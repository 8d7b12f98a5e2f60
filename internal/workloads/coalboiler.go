package workloads

import (
	"math"
	"slices"

	"libbat/internal/geom"
	"libbat/internal/particles"
)

// CoalBoiler is a synthetic reproduction of the Uintah coal boiler
// simulation used in §VI-A.2: coal particles are injected through inlets on
// one boiler wall and carried upward, forming a strongly clustered,
// time-growing population (4.6M particles at timestep 501 growing to 41.5M
// at timestep 4501 in the paper, on 1536 ranks).
//
// The density model is a sum of Gaussian plumes anchored at inlets on the
// low-x wall. Over time each plume's centroid rises (z) and drifts into the
// domain (x) while spreading, so both the total count and the spatial
// imbalance evolve — the signature that defeats uniform-grid aggregation.
type CoalBoiler struct {
	decomp *Decomp
	schema particles.Schema
	seed   int

	// StartStep/EndStep and StartCount/EndCount define the linear growth
	// of the particle population.
	StartStep, EndStep   int
	StartCount, EndCount int64

	plumes []plume
	memo   countsMemo[coalKey]
}

type plume struct {
	inlet  geom.Vec3 // anchor on the low-x wall
	weight float64
}

// CoalBoilerSchema matches the paper: three float coordinates plus seven
// double-precision attributes.
func CoalBoilerSchema() particles.Schema {
	return particles.NewSchema("temp", "mass", "vx", "vy", "vz", "char", "moisture")
}

// NewCoalBoiler builds the workload over nranks arranged as a 3D grid on a
// boiler-shaped (tall) domain. Counts follow the paper's time series by
// default: use SetGrowth to override.
func NewCoalBoiler(nranks int) (*CoalBoiler, error) {
	// Boiler: wider than deep, tall (x depth, y width, z height).
	domain := geom.NewBox(geom.V3(0, 0, 0), geom.V3(4, 4, 8))
	nx, ny, nz := Factor3D(nranks)
	// Put the largest factor on z to mirror the tall domain.
	d, err := NewDecomp(domain, ny, nz, nx)
	if err != nil {
		return nil, err
	}
	cb := &CoalBoiler{
		decomp:     d,
		schema:     CoalBoilerSchema(),
		seed:       2,
		StartStep:  501,
		EndStep:    4501,
		StartCount: 4_600_000,
		EndCount:   41_500_000,
	}
	// Inlets: a 2x3 bank on the low-x wall near the bottom.
	for iy := 0; iy < 3; iy++ {
		for iz := 0; iz < 2; iz++ {
			cb.plumes = append(cb.plumes, plume{
				inlet:  geom.V3(0, 0.8+1.2*float64(iy), 1.0+1.5*float64(iz)),
				weight: 1 + 0.3*float64(iy) + 0.2*float64(iz),
			})
		}
	}
	return cb, nil
}

// SetGrowth overrides the population growth schedule (used to scale the
// workload down for materialized runs).
func (c *CoalBoiler) SetGrowth(startStep, endStep int, startCount, endCount int64) {
	c.StartStep, c.EndStep = startStep, endStep
	c.StartCount, c.EndCount = startCount, endCount
}

// Name implements Workload.
func (c *CoalBoiler) Name() string { return "coal-boiler" }

// Schema implements Workload.
func (c *CoalBoiler) Schema() particles.Schema { return c.schema }

// Decomp implements Workload.
func (c *CoalBoiler) Decomp() *Decomp { return c.decomp }

// Total returns the particle population at a timestep (linear in step,
// clamped to the schedule).
func (c *CoalBoiler) Total(step int) int64 {
	if step <= c.StartStep {
		return c.StartCount
	}
	if step >= c.EndStep {
		return c.EndCount
	}
	f := float64(step-c.StartStep) / float64(c.EndStep-c.StartStep)
	return c.StartCount + int64(f*float64(c.EndCount-c.StartCount))
}

// progress maps a step to [0,1] through the schedule.
func (c *CoalBoiler) progress(step int) float64 {
	f := float64(step-c.StartStep) / float64(c.EndStep-c.StartStep)
	return math.Max(0, math.Min(1, f))
}

// plumeState is one plume at a fixed schedule progress.
type plumeState struct {
	center, sigma geom.Vec3
	weight        float64
}

// plumesAt places every plume at schedule progress f: the centroid drifts
// into the boiler (x) and rises (z) while the plume spreads.
func (c *CoalBoiler) plumesAt(f float64) []plumeState {
	size := c.decomp.Domain.Size()
	out := make([]plumeState, len(c.plumes))
	for i, p := range c.plumes {
		out[i] = plumeState{
			center: geom.Vec3{
				X: p.inlet.X + (0.15+0.55*f)*size.X,
				Y: p.inlet.Y,
				Z: p.inlet.Z + (0.1+0.6*f)*(size.Z-p.inlet.Z),
			},
			sigma:  geom.Vec3{X: 0.25 + 1.1*f, Y: 0.2 + 0.9*f, Z: 0.35 + 2.2*f},
			weight: p.weight,
		}
	}
	return out
}

// plumeDensity evaluates the (unnormalized) particle density at a point.
// Unlike Cosmo's mixture the sum has no positive floor (it starts at zero),
// so no term is ever provably negligible and every plume is evaluated.
func plumeDensity(plumes []plumeState, pt geom.Vec3) float64 {
	var d float64
	for i := range plumes {
		p := &plumes[i]
		dx := (pt.X - p.center.X) / p.sigma.X
		dy := (pt.Y - p.center.Y) / p.sigma.Y
		dz := (pt.Z - p.center.Z) / p.sigma.Z
		d += p.weight * math.Exp(-0.5*(dx*dx+dy*dy+dz*dz))
	}
	return d
}

// Counts implements Workload: each rank's share of the step's population is
// proportional to the plume density integrated (midpoint rule over a 2^3
// grid) over its bounds.
func (c *CoalBoiler) Counts(step int) []int64 {
	return slices.Clone(c.counts(step))
}

// coalKey is everything CoalBoiler's counts depend on that SetGrowth or a
// write to the exported schedule fields can change.
type coalKey struct {
	progress float64
	total    int64
}

// counts returns the memoized per-rank counts; callers must not modify
// them.
func (c *CoalBoiler) counts(step int) []int64 {
	key := coalKey{progress: c.progress(step), total: c.Total(step)}
	return c.memo.get(key, func() []int64 {
		plumes := c.plumesAt(key.progress)
		density := func(pt geom.Vec3) float64 { return plumeDensity(plumes, pt) }
		return apportion(key.total, octantWeights(c.decomp, density))
	})
}

// Generate implements Workload: positions are rejection-sampled from the
// plume density restricted to the rank's bounds; attributes are spatially
// correlated (temperature falls with height, velocity follows the plume
// drift).
func (c *CoalBoiler) Generate(step, rank int) *particles.Set {
	want := c.counts(step)[rank]
	r := rng(c.seed, step, rank)
	f := c.progress(step)
	plumes := c.plumesAt(f)
	b := c.decomp.RankBounds(rank)
	sz := b.Size()
	// Estimate the local density maximum for rejection sampling.
	var dmax float64
	for i := 0; i < 32; i++ {
		pt := geom.Vec3{
			X: b.Lower.X + r.Float64()*sz.X,
			Y: b.Lower.Y + r.Float64()*sz.Y,
			Z: b.Lower.Z + r.Float64()*sz.Z,
		}
		if d := plumeDensity(plumes, pt); d > dmax {
			dmax = d
		}
	}
	dmax *= 1.5
	s := particles.NewSet(c.schema, int(want))
	attrs := make([]float64, c.schema.NumAttrs())
	for int64(s.Len()) < want {
		pt := geom.Vec3{
			X: b.Lower.X + r.Float64()*sz.X,
			Y: b.Lower.Y + r.Float64()*sz.Y,
			Z: b.Lower.Z + r.Float64()*sz.Z,
		}
		if dmax > 0 && r.Float64()*dmax > plumeDensity(plumes, pt) {
			// Cap rejection work: accept uniformly after enough tries by
			// decaying the threshold.
			dmax *= 0.999
			continue
		}
		h := pt.Z / c.decomp.Domain.Size().Z
		attrs[0] = 1800 - 900*h + 30*r.NormFloat64() // temp
		attrs[1] = 1e-6 * (1 + 0.2*r.NormFloat64())  // mass
		attrs[2] = 2 + r.NormFloat64()*0.3           // vx
		attrs[3] = r.NormFloat64() * 0.3             // vy
		attrs[4] = 4 + 2*h + r.NormFloat64()*0.5     // vz
		attrs[5] = math.Max(0, 1-f-0.1*r.Float64())  // char
		attrs[6] = math.Max(0, 0.3-0.3*h)            // moisture
		s.Append(pt, attrs)
	}
	return s
}
