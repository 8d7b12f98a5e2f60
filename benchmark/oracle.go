package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"libbat"
	"libbat/internal/geom"
	"libbat/internal/particles"
)

// result is what the oracle compares: how many particles a query returned
// and an order-independent checksum of their positions (positions are stored
// losslessly in every workload, so the checksum is exact even under v3).
type result struct {
	Count int64
	Sum   uint64
}

func (r *result) add(x, y, z float32) {
	r.Count++
	r.Sum += posHash(math.Float32bits(x), math.Float32bits(y), math.Float32bits(z))
}

func (r *result) merge(o result) {
	r.Count += o.Count
	r.Sum += o.Sum
}

func posHash(x, y, z uint32) uint64 {
	h := uint64(x)*0x9E3779B97F4A7C15 ^ uint64(y)*0xC2B2AE3D27D4EB4F ^ uint64(z)*0x165667B19E3779F9
	h ^= h >> 29
	return h * 0xBF58476D1CE4E5B9
}

// visitor returns a libbat.Visitor accumulating into r.
func (r *result) visitor() libbat.Visitor {
	return func(p libbat.Vec3, _ []float64) error {
		r.add(float32(p.X), float32(p.Y), float32(p.Z))
		return nil
	}
}

// oracle is the one brute-force evaluator: it answers every query kind the
// benchmark times by scanning the generated particles, never the files.
type oracle struct {
	sets []*particles.Set // per-rank generated particles
	// extent is the bounding box of each set's own particles: a box query
	// skips the sets it cannot touch, which keeps the P per-rank expectations
	// of a P-rank restart read from costing P full scans.
	extent []geom.Box
	n      int64
	full   result
	attrs  int
	min    []float64 // global attribute ranges
	max    []float64
	// bound is the absolute error the layout was allowed per attribute
	// (zero when lossless): filter results are bracketed by it.
	bound []float64
}

func newOracle(sets []*particles.Set) *oracle {
	o := &oracle{sets: sets, attrs: sets[0].Schema.NumAttrs()}
	o.min = make([]float64, o.attrs)
	o.max = make([]float64, o.attrs)
	o.bound = make([]float64, o.attrs)
	for a := 0; a < o.attrs; a++ {
		o.min[a], o.max[a] = math.Inf(1), math.Inf(-1)
	}
	o.extent = make([]geom.Box, len(sets))
	for si, s := range sets {
		o.n += int64(s.Len())
		o.extent[si] = geom.EmptyBox()
		for i := 0; i < s.Len(); i++ {
			o.extent[si] = o.extent[si].Extend(s.Position(i))
		}
		for a := 0; a < o.attrs; a++ {
			for _, v := range s.Attrs[a] {
				o.min[a] = math.Min(o.min[a], v)
				o.max[a] = math.Max(o.max[a], v)
			}
		}
	}
	o.full = o.eval(nil, func(*particles.Set, int) bool { return true })
	return o
}

// eval scans every particle of the sets `use` admits (nil: all) on at most
// nproc goroutines and returns the result of those pred accepts.
func (o *oracle) eval(use func(si int) bool, pred func(s *particles.Set, i int) bool) result {
	var next atomic.Int64
	var mu sync.Mutex
	var total result
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var r result
			for si := int(next.Add(1)) - 1; si < len(o.sets); si = int(next.Add(1)) - 1 {
				if use != nil && !use(si) {
					continue
				}
				s := o.sets[si]
				for i := 0; i < s.Len(); i++ {
					if pred(s, i) {
						r.add(s.X[i], s.Y[i], s.Z[i])
					}
				}
			}
			mu.Lock()
			total.merge(r)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return total
}

// box answers a spatial query under the layout's inclusive box rule.
func (o *oracle) box(b geom.Box) result {
	return o.eval(func(si int) bool { return b.Overlaps(o.extent[si]) },
		func(s *particles.Set, i int) bool { return b.Contains(s.Position(i)) })
}

// filter answers a whole-domain attribute filter with the interval grown by
// grow on both sides (negative shrinks it).
func (o *oracle) filter(f libbat.AttrFilter, grow float64) result {
	lo, hi := f.Min-grow, f.Max+grow
	return o.eval(nil, func(s *particles.Set, i int) bool {
		v := s.Attrs[f.Attr][i]
		return v >= lo && v <= hi
	})
}

// bracket is an expected result. Most are exact (narrow == wide). A filter
// on a lossy layout may disagree with the oracle on values within the
// declared error bound of an interval end, so its count is bracketed by the
// interval shrunk and grown by that bound.
type bracket struct{ narrow, wide result }

func exactly(r result) bracket { return bracket{r, r} }

func (o *oracle) filterBracket(f libbat.AttrFilter) bracket {
	b := o.bound[f.Attr]
	if b == 0 {
		return exactly(o.filter(f, 0))
	}
	return bracket{o.filter(f, -b), o.filter(f, b)}
}

func (e bracket) matches(got result) bool {
	if e.narrow == e.wide {
		return got == e.wide
	}
	return got.Count >= e.narrow.Count && got.Count <= e.wide.Count
}

// windows checks the progressive-read contract: the ten quality windows
// tile the full set exactly. Which particles land in which window is the
// layout's choice, so the verified windows become the reference for later
// reads of the same windows.
func (o *oracle) windows(ws []result) error {
	var union result
	for i, w := range ws {
		if w.Count == 0 && i == 0 {
			return fmt.Errorf("first quality window is empty")
		}
		union.merge(w)
	}
	if union != o.full {
		return fmt.Errorf("union of %d quality windows = %+v, full set = %+v", len(ws), union, o.full)
	}
	return nil
}

// histogram bins attribute attr like Dataset.Histogram does.
func (o *oracle) histogram(attr, bins int) []int64 {
	out := make([]int64, bins)
	width := o.max[attr] - o.min[attr]
	for _, s := range o.sets {
		for _, v := range s.Attrs[attr] {
			b := 0
			if width > 0 {
				b = min(max(int((v-o.min[attr])/width*float64(bins)), 0), bins-1)
			}
			out[b]++
		}
	}
	return out
}

// mean returns the mean of attribute attr.
func (o *oracle) mean(attr int) float64 {
	var sum float64
	for _, s := range o.sets {
		for _, v := range s.Attrs[attr] {
			sum += v
		}
	}
	return sum / float64(o.n)
}

// densityGrid voxelizes positions like Dataset.DensityGrid does.
func (o *oracle) densityGrid(b geom.Box, nx, ny, nz int) []int64 {
	grid := make([]int64, nx*ny*nz)
	sz := b.Size()
	bin := func(v, lo, extent float64, n int) int {
		if extent <= 0 {
			return 0
		}
		return min(max(int((v-lo)/extent*float64(n)), 0), n-1)
	}
	for _, s := range o.sets {
		for i := 0; i < s.Len(); i++ {
			ix := bin(float64(s.X[i]), b.Lower.X, sz.X, nx)
			iy := bin(float64(s.Y[i]), b.Lower.Y, sz.Y, ny)
			iz := bin(float64(s.Z[i]), b.Lower.Z, sz.Z, nz)
			grid[(iz*ny+iy)*nx+ix]++
		}
	}
	return grid
}
