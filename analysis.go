package libbat

import (
	"context"
	"fmt"
	"math"
)

// This file provides the common analysis passes the paper's visualization
// use cases need (§I, §V): density voxelization for volume-style rendering,
// per-attribute summary statistics, and radial profiles. All of them run
// through Dataset.QueryCtx, so they inherit spatial/attribute filtering and —
// via the progressive quality parameter — can trade exactness for latency
// on the LOD subset, exactly as the paper's viewer does.

// DensityGrid voxelizes the particles matched by q onto an nx*ny*nz grid
// over the dataset bounds, returning particle counts in x-major order
// (index = (iz*ny + iy)*nx + ix). It is the data backing a splatting/volume
// view of the particles. A grid whose byte size overflows int is an error.
func (d *Dataset) DensityGrid(nx, ny, nz int, q Query) ([]int64, error) {
	if nx < 1 || ny < 1 || nz < 1 {
		return nil, fmt.Errorf("libbat: invalid grid %dx%dx%d", nx, ny, nz)
	}
	if ny > math.MaxInt/8/nx || nz > math.MaxInt/8/(nx*ny) {
		return nil, fmt.Errorf("libbat: grid %dx%dx%d has too many cells", nx, ny, nz)
	}
	b := d.Bounds()
	sz := b.Size()
	grid := make([]int64, nx*ny*nz)
	bin := func(v, lo, extent float64, n int) int {
		if extent <= 0 {
			return 0
		}
		i := int((v - lo) / extent * float64(n))
		if i < 0 {
			return 0
		}
		if i >= n {
			return n - 1
		}
		return i
	}
	err := d.Query(q, func(p Vec3, _ []float64) error {
		ix := bin(p.X, b.Lower.X, sz.X, nx)
		iy := bin(p.Y, b.Lower.Y, sz.Y, ny)
		iz := bin(p.Z, b.Lower.Z, sz.Z, nz)
		grid[(iz*ny+iy)*nx+ix]++
		return nil
	})
	return grid, err
}

// AttrSummary holds streaming statistics of one attribute over a query.
type AttrSummary struct {
	Count    int64
	Min, Max float64
	Mean     float64
	Stddev   float64
}

// Summarize computes count/min/max/mean/stddev of an attribute over the
// particles matched by q (Welford's algorithm, single pass).
func (d *Dataset) Summarize(attr int, q Query) (AttrSummary, error) {
	if attr < 0 || attr >= d.meta.Schema.NumAttrs() {
		return AttrSummary{}, fmt.Errorf("libbat: attribute %d out of range", attr)
	}
	s := AttrSummary{Min: math.Inf(1), Max: math.Inf(-1)}
	var m2 float64
	err := d.Query(q, func(_ Vec3, attrs []float64) error {
		v := attrs[attr]
		s.Count++
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
		delta := v - s.Mean
		s.Mean += delta / float64(s.Count)
		m2 += delta * (v - s.Mean)
		return nil
	})
	if err != nil {
		return AttrSummary{}, err
	}
	if s.Count == 0 {
		return AttrSummary{}, nil
	}
	if s.Count > 1 {
		s.Stddev = math.Sqrt(m2 / float64(s.Count))
	}
	return s, nil
}

// RadialProfile bins the particles matched by q by distance from center
// into `bins` equal-width shells out to radius, returning per-shell counts
// and the mean of the given attribute (NaN for empty shells; attr < 0
// skips attribute averaging). This is the standard first look at halos,
// plumes, and droplets. When ctx ends, it stops and returns ctx.Err().
func (d *Dataset) RadialProfile(ctx context.Context, center Vec3, radius float64, bins, attr int, q Query) (counts []int64, means []float64, err error) {
	if bins < 1 || !(radius > 0) || math.IsInf(radius, 1) {
		return nil, nil, fmt.Errorf("libbat: invalid profile (bins=%d, radius=%g)", bins, radius)
	}
	for _, c := range []float64{center.X, center.Y, center.Z} {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return nil, nil, fmt.Errorf("libbat: profile center %v is not finite", center)
		}
	}
	if attr >= d.meta.Schema.NumAttrs() {
		return nil, nil, fmt.Errorf("libbat: attribute %d out of range", attr)
	}
	counts = make([]int64, bins)
	sums := make([]float64, bins)
	err = d.QueryCtx(ctx, q, func(p Vec3, attrs []float64) error {
		r := p.Sub(center).Length()
		if !(r < radius) { // also skips a NaN distance
			return nil
		}
		b := int(r / radius * float64(bins))
		if b >= bins {
			b = bins - 1
		}
		counts[b]++
		if attr >= 0 {
			sums[b] += attrs[attr]
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	means = make([]float64, bins)
	for i := range means {
		if counts[i] > 0 && attr >= 0 {
			means[i] = sums[i] / float64(counts[i])
		} else {
			means[i] = math.NaN()
		}
	}
	return counts, means, nil
}
