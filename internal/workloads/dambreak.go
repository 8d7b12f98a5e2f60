package workloads

import (
	"math"
	"slices"

	"libbat/internal/geom"
	"libbat/internal/particles"
)

// DamBreak is a synthetic reproduction of the ExaMPM/Cabana dam break of
// §VI-A.2: a water column against the low-x wall collapses and a fixed
// population of particles surges along the floor. The domain is
// decomposed among ranks with a 2D grid along x and y (the floor), as in
// the paper, so the advancing front concentrates particles in a moving
// band of ranks — a fixed-size but strongly time-varying I/O workload.
//
// The height profile follows Ritter's classical dam-break solution: for a
// column of initial height h0 released at x0, at scaled time t the free
// surface between the backward rarefaction and the front is
//
//	h(x,t) = h0                                  x < x0 - t*c0
//	h(x,t) = (2*c0 - (x-x0)/t)^2 / (9*g)         otherwise, down to 0
//
// with c0 = sqrt(g*h0) and the front at x0 + 2*c0*t.
type DamBreak struct {
	decomp *Decomp
	schema particles.Schema
	seed   int
	total  int64

	// Column geometry.
	x0 float64 // initial column extent along x
	h0 float64 // initial column height (z)
	// TimeScale converts a timestep index to solution time.
	TimeScale float64

	memo countsMemo[float64]
}

// DamBreakSchema matches the paper: three float coordinates plus four
// double-precision attributes.
func DamBreakSchema() particles.Schema {
	return particles.NewSchema("pressure", "vx", "vz", "density")
}

// NewDamBreak builds the workload with a fixed population of total
// particles over nranks arranged in a 2D grid along x and y.
func NewDamBreak(nranks int, total int64) (*DamBreak, error) {
	domain := geom.NewBox(geom.V3(0, 0, 0), geom.V3(8, 2, 2))
	// 2D decomposition: all of z on every rank, as in the paper.
	nx, ny, _ := Factor3D(nranks)
	if nx*ny != nranks {
		// Fall back to an exact 2D factorization.
		nx, ny = factor2D(nranks)
	}
	d, err := NewDecomp(domain, nx, ny, 1)
	if err != nil {
		return nil, err
	}
	return &DamBreak{
		decomp:    d,
		schema:    DamBreakSchema(),
		seed:      3,
		total:     total,
		x0:        1.5,
		h0:        1.5,
		TimeScale: 1.0 / 2000.0,
	}, nil
}

// factor2D returns the most square 2D factorization of n.
func factor2D(n int) (nx, ny int) {
	ny = int(math.Sqrt(float64(n)))
	for n%ny != 0 {
		ny--
	}
	return n / ny, ny
}

// Name implements Workload.
func (w *DamBreak) Name() string { return "dam-break" }

// Schema implements Workload.
func (w *DamBreak) Schema() particles.Schema { return w.schema }

// Decomp implements Workload.
func (w *DamBreak) Decomp() *Decomp { return w.decomp }

const gravity = 9.81

// solutionTime converts a timestep index to solution time.
func (w *DamBreak) solutionTime(step int) float64 { return float64(step) * w.TimeScale }

// height returns the water column height at position x and solution time t.
func (w *DamBreak) height(x, t float64) float64 {
	if t <= 0 {
		if x <= w.x0 {
			return w.h0
		}
		return 0
	}
	c0 := math.Sqrt(gravity * w.h0)
	xr := w.x0 - c0*t   // rarefaction tail
	xf := w.x0 + 2*c0*t // front
	domainX := w.decomp.Domain.Upper.X
	if xf > domainX {
		// After the front reaches the far wall the flow levels out; relax
		// the profile toward a flat pool of equal volume.
		level := w.h0 * w.x0 / domainX
		over := math.Min(1, (xf-domainX)/domainX)
		h := w.ritter(x, t, c0, xr)
		return h*(1-over) + level*over
	}
	return w.ritter(x, t, c0, xr)
}

func (w *DamBreak) ritter(x, t, c0, xr float64) float64 {
	if x <= xr {
		return w.h0
	}
	u := 2*c0 - (x-w.x0)/t
	if u <= 0 {
		return 0
	}
	return u * u / (9 * gravity) * 4 // scaled to conserve the column better
}

// Counts implements Workload: rank weights integrate the height profile
// over the rank's x-range (uniform in y).
func (w *DamBreak) Counts(step int) []int64 {
	return slices.Clone(w.counts(step))
}

// counts returns the memoized per-rank counts; callers must not modify
// them. The step and TimeScale reach them only as the solution time, which
// is therefore the whole memo key.
func (w *DamBreak) counts(step int) []int64 {
	t := w.solutionTime(step)
	return w.memo.get(t, func() []int64 {
		n := w.decomp.NumRanks()
		weights := make([]float64, n)
		for r := 0; r < n; r++ {
			b := w.decomp.RankBounds(r)
			// Midpoint rule over 4 x-samples.
			var sum float64
			for i := 0; i < 4; i++ {
				x := b.Lower.X + b.Size().X*(0.125+0.25*float64(i))
				sum += w.height(x, t)
			}
			weights[r] = sum * b.Size().X * b.Size().Y
		}
		return apportion(w.total, weights)
	})
}

// Generate implements Workload: x positions are sampled from the height
// profile restricted to the rank's x-range by inverse-CDF over a fine
// table; z uniform within the local height; y uniform.
func (w *DamBreak) Generate(step, rank int) *particles.Set {
	want := w.counts(step)[rank]
	r := rng(w.seed, step, rank)
	b := w.decomp.RankBounds(rank)
	t := w.solutionTime(step)
	// Build a small inverse-CDF table of the height profile across the
	// rank's x-range.
	const tableN = 64
	cdf := make([]float64, tableN+1)
	for i := 1; i <= tableN; i++ {
		x := b.Lower.X + b.Size().X*(float64(i)-0.5)/tableN
		cdf[i] = cdf[i-1] + math.Max(w.height(x, t), 1e-9)
	}
	total := cdf[tableN]
	s := particles.NewSet(w.schema, int(want))
	attrs := make([]float64, w.schema.NumAttrs())
	c0 := math.Sqrt(gravity * w.h0)
	for i := int64(0); i < want; i++ {
		// Inverse CDF sample of x.
		u := r.Float64() * total
		lo, hi := 0, tableN
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid+1] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		fx := (float64(lo) + r.Float64()) / tableN
		x := b.Lower.X + b.Size().X*fx
		h := math.Max(w.height(x, t), 1e-6)
		pt := geom.Vec3{
			X: x,
			Y: b.Lower.Y + r.Float64()*b.Size().Y,
			Z: r.Float64() * math.Min(h, w.decomp.Domain.Upper.Z),
		}
		// Shallow-water velocity field: u(x) = 2/3*(c0 + (x-x0)/t).
		vx := 0.0
		if t > 0 && x > w.x0-c0*t {
			vx = 2.0 / 3.0 * (c0 + (x-w.x0)/t)
		}
		attrs[0] = 1000 * gravity * (h - pt.Z) // hydrostatic pressure
		attrs[1] = vx + 0.05*r.NormFloat64()
		attrs[2] = -0.1*pt.Z + 0.05*r.NormFloat64()
		attrs[3] = 1000 + 5*r.NormFloat64()
		s.Append(pt, attrs)
	}
	return s
}
