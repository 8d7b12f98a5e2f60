package oracle

import (
	"math"

	"libbat/internal/geom"
	"libbat/internal/particles"
)

// The reference aggregates below fold a set — typically Select's exact
// answer — the way the library's analysis passes fold a query's particles,
// with the same binning rules, so a pass is checked against the input it
// summarises rather than against another read.

// bin maps v in [lo, lo+extent] to one of n equal bins, clamping outliers
// to the end bins; a zero extent puts everything in bin 0.
func bin(v, lo, extent float64, n int) int {
	if extent <= 0 {
		return 0
	}
	return min(max(int((v-lo)/extent*float64(n)), 0), n-1)
}

// Histogram bins attribute attr of s into bins equal-width buckets over
// [lo, hi].
func Histogram(s *particles.Set, attr int, lo, hi float64, bins int) []int64 {
	out := make([]int64, bins)
	for _, v := range s.Attrs[attr] {
		out[bin(v, lo, hi-lo, bins)]++
	}
	return out
}

// DensityGrid counts the particles of s on an nx*ny*nz grid over b, x
// fastest (index (iz*ny + iy)*nx + ix).
func DensityGrid(s *particles.Set, b geom.Box, nx, ny, nz int) []int64 {
	grid := make([]int64, nx*ny*nz)
	sz := b.Size()
	for i := 0; i < s.Len(); i++ {
		p := s.Position(i)
		ix := bin(p.X, b.Lower.X, sz.X, nx)
		iy := bin(p.Y, b.Lower.Y, sz.Y, ny)
		iz := bin(p.Z, b.Lower.Z, sz.Z, nz)
		grid[(iz*ny+iy)*nx+ix]++
	}
	return grid
}

// Summary is count, range, mean and population standard deviation of one
// attribute; the zero Summary describes no particles.
type Summary struct {
	Count    int64
	Min, Max float64
	Mean     float64
	Stddev   float64
}

// Summarize computes attribute attr's Summary over s in two passes.
func Summarize(s *particles.Set, attr int) Summary {
	vals := s.Attrs[attr]
	if len(vals) == 0 {
		return Summary{}
	}
	out := Summary{Count: int64(len(vals)), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, v := range vals {
		out.Min, out.Max = math.Min(out.Min, v), math.Max(out.Max, v)
		sum += v
	}
	out.Mean = sum / float64(len(vals))
	var m2 float64
	for _, v := range vals {
		m2 += (v - out.Mean) * (v - out.Mean)
	}
	out.Stddev = math.Sqrt(m2 / float64(len(vals)))
	return out
}

// RadialProfile bins the particles of s closer than radius to center into
// bins equal-width shells and returns each shell's count and mean of
// attribute attr (NaN for an empty shell, or for every shell when attr < 0).
func RadialProfile(s *particles.Set, center geom.Vec3, radius float64, bins, attr int) (counts []int64, means []float64) {
	counts = make([]int64, bins)
	sums := make([]float64, bins)
	for i := 0; i < s.Len(); i++ {
		r := s.Position(i).Sub(center).Length()
		if r >= radius {
			continue
		}
		b := bin(r, 0, radius, bins)
		counts[b]++
		if attr >= 0 {
			sums[b] += s.Attrs[attr][i]
		}
	}
	means = make([]float64, bins)
	for b := range means {
		means[b] = math.NaN()
		if counts[b] > 0 && attr >= 0 {
			means[b] = sums[b] / float64(counts[b])
		}
	}
	return counts, means
}
