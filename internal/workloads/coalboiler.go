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
// so no term is ever provably negligible and every plume is evaluated;
// Generate calls it only where plumeBounds cannot decide.
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

// The rejection test's bracket grid (DESIGN §3.1).
const (
	// boundCells is the grid's resolution per axis over a rank box.
	boundCells = 8
	// boundPad widens every cell on each side, as a fraction of the cell,
	// far past the few ulps by which a candidate can round out of the cell
	// its index names.
	boundPad = 1e-6
	// boundRel widens every bracket relatively: a bound and the exact sum
	// are each off by parts in 10^13 at most.
	boundRel = 1e-9
	// boundFloor widens every bracket absolutely, past the error of a
	// subnormal term, which boundRel does not cover.
	boundFloor = 1e-300
)

// plumeBounds brackets plumeDensity over a boundCells^3 grid of cells laid
// on one rank box, so that most rejection tests are decided without the
// exact sum. A cell is filled on the first candidate that lands in it; hi
// == 0 marks it unfilled (a filled hi is at least boundFloor).
type plumeBounds struct {
	plumes           []plumeState
	lower, cell, inv geom.Vec3
	cells            [boundCells * boundCells * boundCells]struct{ lo, hi float64 }
	// candidates counts the rejection tests made, exact those of them
	// that needed plumeDensity.
	candidates, exact int
}

func newPlumeBounds(plumes []plumeState, b geom.Box) *plumeBounds {
	cell := b.Size().Scale(1.0 / boundCells)
	return &plumeBounds{
		plumes: plumes,
		lower:  b.Lower,
		cell:   cell,
		inv:    geom.Vec3{X: 1 / cell.X, Y: 1 / cell.Y, Z: 1 / cell.Z},
	}
}

// rejects reports t > plumeDensity(pt), computing the sum only when t
// falls inside pt's cell bracket.
func (pb *plumeBounds) rejects(pt geom.Vec3, t float64) bool {
	pb.candidates++
	lo, hi := pb.bracket(pt)
	if t <= lo {
		return false
	}
	if t > hi {
		return true
	}
	pb.exact++
	return t > plumeDensity(pb.plumes, pt)
}

// bracket returns lo <= plumeDensity(pt) <= hi for any pt of the box; a
// point rounded just outside it is clamped into the nearest cell, whose
// padding still covers it.
func (pb *plumeBounds) bracket(pt geom.Vec3) (lo, hi float64) {
	ix := cellIndex(pt.X, pb.lower.X, pb.inv.X)
	iy := cellIndex(pt.Y, pb.lower.Y, pb.inv.Y)
	iz := cellIndex(pt.Z, pb.lower.Z, pb.inv.Z)
	cell := &pb.cells[(iz*boundCells+iy)*boundCells+ix]
	if cell.hi == 0 {
		cell.lo, cell.hi = pb.fill(ix, iy, iz)
	}
	return cell.lo, cell.hi
}

func cellIndex(v, lower, inv float64) int {
	return min(max(int((v-lower)*inv), 0), boundCells-1)
}

// fill bounds the plume sum over one padded cell: each plume's term is
// smallest at the cell's farthest corner and largest at the cell point
// nearest its centre.
func (pb *plumeBounds) fill(ix, iy, iz int) (lo, hi float64) {
	for i := range pb.plumes {
		p := &pb.plumes[i]
		nx, fx := axisReach(pb.lower.X, pb.cell.X, ix, p.center.X, p.sigma.X)
		ny, fy := axisReach(pb.lower.Y, pb.cell.Y, iy, p.center.Y, p.sigma.Y)
		nz, fz := axisReach(pb.lower.Z, pb.cell.Z, iz, p.center.Z, p.sigma.Z)
		lo += p.weight * math.Exp(-0.5*(fx+fy+fz))
		hi += p.weight * math.Exp(-0.5*(nx+ny+nz))
	}
	return lo*(1-boundRel) - boundFloor, hi*(1+boundRel) + boundFloor
}

// axisReach returns the squared distances, in units of s, from c to the
// nearest and the farthest point of padded cell i along one axis.
func axisReach(lower, cell float64, i int, c, s float64) (near, far float64) {
	a := lower + (float64(i)-boundPad)*cell
	b := lower + (float64(i+1)+boundPad)*cell
	dn := (min(max(c, a), b) - c) / s
	df := max(c-a, b-c) / s
	return dn * dn, df * df
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
	s, _ := c.generate(step, rank)
	return s
}

// generate is Generate, also returning the rank's rejection-test bracket
// with its counters.
func (c *CoalBoiler) generate(step, rank int) (*particles.Set, *plumeBounds) {
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
	bounds := newPlumeBounds(plumes, b)
	// The columns are filled in place: Append's per-call slice bookkeeping
	// cost a sixth of the loop.
	n := int(want)
	s := particles.NewSet(c.schema, n)
	s.X, s.Y, s.Z = s.X[:n], s.Y[:n], s.Z[:n]
	for a := range s.Attrs {
		s.Attrs[a] = s.Attrs[a][:n]
	}
	temp, mass, vx, vy, vz := s.Attrs[0], s.Attrs[1], s.Attrs[2], s.Attrs[3], s.Attrs[4]
	char, moisture := s.Attrs[5], s.Attrs[6]
	height := c.decomp.Domain.Size().Z
	for i := 0; i < n; {
		pt := geom.Vec3{
			X: b.Lower.X + r.Float64()*sz.X,
			Y: b.Lower.Y + r.Float64()*sz.Y,
			Z: b.Lower.Z + r.Float64()*sz.Z,
		}
		if dmax > 0 && bounds.rejects(pt, r.Float64()*dmax) {
			// Cap rejection work: accept uniformly after enough tries by
			// decaying the threshold.
			dmax *= 0.999
			continue
		}
		h := pt.Z / height
		s.X[i], s.Y[i], s.Z[i] = float32(pt.X), float32(pt.Y), float32(pt.Z)
		temp[i] = 1800 - 900*h + 30*r.NormFloat64()
		mass[i] = 1e-6 * (1 + 0.2*r.NormFloat64())
		vx[i] = 2 + r.NormFloat64()*0.3
		vy[i] = r.NormFloat64() * 0.3
		vz[i] = 4 + 2*h + r.NormFloat64()*0.5
		char[i] = math.Max(0, 1-f-0.1*r.Float64())
		moisture[i] = math.Max(0, 0.3-0.3*h)
		i++
	}
	return s, bounds
}
