package workloads

import (
	"math"
	"math/rand"
	"slices"

	"libbat/internal/geom"
	"libbat/internal/particles"
)

// Cosmo is an N-body-style cosmology workload, the other domain the
// paper's introduction motivates (HACC/Dark Sky-like): particles cluster
// into halos whose concentration grows over time as structure forms. The
// distribution is static-in-count but becomes progressively more
// imbalanced, stressing the adaptive aggregation differently from the
// coal boiler (growth) and dam break (advection).
type Cosmo struct {
	decomp *Decomp
	schema particles.Schema
	seed   int
	total  int64
	halos  []halo
	// ClusteredFraction(step) of the particles live in halos; the rest
	// stay in a uniform background that thins as structure forms.
	MaxClustered float64
	FormSteps    int

	memo countsMemo[float64]
}

type halo struct {
	center geom.Vec3
	mass   float64
	radius float64
}

// CosmoSchema: three float coordinates plus mass, velocity magnitude, and
// local density attributes.
func CosmoSchema() particles.Schema {
	return particles.NewSchema("mass", "vel", "density")
}

// NewCosmo builds the workload with nHalos halos at deterministic random
// positions in a unit box.
func NewCosmo(nranks int, total int64, nHalos int) (*Cosmo, error) {
	nx, ny, nz := Factor3D(nranks)
	d, err := NewDecomp(geom.NewBox(geom.V3(0, 0, 0), geom.V3(1, 1, 1)), nx, ny, nz)
	if err != nil {
		return nil, err
	}
	c := &Cosmo{
		decomp:       d,
		schema:       CosmoSchema(),
		seed:         4,
		total:        total,
		MaxClustered: 0.85,
		FormSteps:    1000,
	}
	r := rand.New(rand.NewSource(99))
	for i := 0; i < nHalos; i++ {
		c.halos = append(c.halos, halo{
			center: geom.V3(r.Float64(), r.Float64(), r.Float64()),
			mass:   0.2 + r.Float64(),
			radius: 0.02 + 0.05*r.Float64(),
		})
	}
	return c, nil
}

// Name implements Workload.
func (c *Cosmo) Name() string { return "cosmo" }

// Schema implements Workload.
func (c *Cosmo) Schema() particles.Schema { return c.schema }

// Decomp implements Workload.
func (c *Cosmo) Decomp() *Decomp { return c.decomp }

// clustered returns the halo mass fraction at a step.
func (c *Cosmo) clustered(step int) float64 {
	f := float64(step) / float64(c.FormSteps)
	if f > 1 {
		f = 1
	}
	return c.MaxClustered * f
}

// mixture is the density (uniform background + Gaussian halos) at one
// clustered fraction, with everything that does not depend on the point
// hoisted out of the per-point loop.
type mixture struct {
	background float64 // 1 - cl
	terms      []haloTerm
}

// haloTerm is one halo's share of the mixture: at squared distance d2 from
// center it adds coef * exp(-0.5*d2/s2) / s3, unless d2 > cut2.
type haloTerm struct {
	center geom.Vec3
	coef   float64 // cl * mass / sum of all halo masses
	s2, s3 float64 // radius^2, radius^3
	// cut2 is the squared distance beyond which the term is below half an
	// ulp of the background and so cannot change the float64 sum.
	cut2 float64
}

// cutoffMargin widens every cut-off by this many e-foldings of the term
// (the term must be e times below the half-ulp threshold before it is
// skipped). The float64 evaluation of a term and of the cut-off itself is
// off by parts in 1e13 at most, so a factor of e is far more than needed;
// it costs 2 % of the cut-off distance.
const cutoffMargin = 1

// mixtureAt builds the evaluator for clustered fraction cl.
//
// density sums background + term_0 + term_1 + ... in halo order. With
// 0 < cl < 1 the sum starts at the positive background 1-cl and every term
// is >= 0, so the running sum never drops below the background, and adding
// a term smaller than half the gap to the next float64 above the background
// (gaps only widen with magnitude) rounds back to the sum it was added to.
// Such a term may be skipped with no effect on any bit of the result.
// Outside 0 < cl < 1 (no positive floor, or terms of the other sign, or NaN)
// nothing is skipped, except that at cl == 0 every term is exactly zero.
func (c *Cosmo) mixtureAt(cl float64) mixture {
	m := mixture{background: 1 - cl}
	if cl == 0 {
		return m
	}
	var hmass float64
	for _, h := range c.halos {
		hmass += h.mass
	}
	skippable := cl > 0 && m.background > 0
	halfUlp := (math.Nextafter(m.background, math.Inf(1)) - m.background) / 2
	m.terms = make([]haloTerm, len(c.halos))
	for i, h := range c.halos {
		s := h.radius
		t := haloTerm{center: h.center, coef: cl * (h.mass / hmass), s2: s * s, s3: s * s * s, cut2: math.Inf(1)}
		if skippable {
			// coef/s3 * exp(-d2/(2*s2)) < halfUlp/e^margin, solved for d2.
			t.cut2 = 2 * t.s2 * (math.Log(t.coef/t.s3/halfUlp) + cutoffMargin)
		}
		m.terms[i] = t
	}
	return m
}

// within returns the mixture restricted to the terms that can reach into
// box b: a halo whose nearest point of b lies past its cut-off is skipped at
// every point of b anyway, so dropping it up front changes no result there
// (nor an ulp outside b, where rounding can put a sampled point:
// cutoffMargin covers that). Term order is kept.
func (m mixture) within(b geom.Box) mixture {
	out := mixture{background: m.background}
	for _, t := range m.terms {
		off := t.center.Max(b.Lower).Min(b.Upper).Sub(t.center)
		if off.Dot(off) <= t.cut2 {
			out.terms = append(out.terms, t)
		}
	}
	return out
}

// density evaluates the mixture at a point.
func (m *mixture) density(pt geom.Vec3) float64 {
	d := m.background
	for i := range m.terms {
		t := &m.terms[i]
		off := pt.Sub(t.center)
		d2 := off.Dot(off)
		if d2 > t.cut2 {
			continue
		}
		dist := math.Sqrt(d2) // squared again below: the reference rounds twice
		d += t.coef * math.Exp(-0.5*dist*dist/t.s2) / t.s3
	}
	return d
}

// Counts implements Workload.
func (c *Cosmo) Counts(step int) []int64 {
	return slices.Clone(c.counts(step))
}

// counts returns the memoized per-rank counts; callers must not modify
// them. They depend on the step and the exported fields only through the
// clustered fraction, which is therefore the whole memo key.
func (c *Cosmo) counts(step int) []int64 {
	cl := c.clustered(step)
	return c.memo.get(cl, func() []int64 {
		mix := c.mixtureAt(cl)
		return apportion(c.total, octantWeights(c.decomp, mix.density))
	})
}

// Generate implements Workload: the clustered fraction samples Gaussian
// offsets around a halo (rejecting positions outside the rank bounds); the
// rest are uniform in the rank bounds.
func (c *Cosmo) Generate(step, rank int) *particles.Set {
	want := c.counts(step)[rank]
	r := rng(c.seed, step, rank)
	b := c.decomp.RankBounds(rank)
	sz := b.Size()
	cl := c.clustered(step)
	mix := c.mixtureAt(cl).within(b)
	// Halos overlapping this rank, weighted by their density contribution
	// at the rank center.
	type cand struct {
		h halo
		w float64
	}
	var cands []cand
	var wsum float64
	for _, h := range c.halos {
		dist := b.Center().Sub(h.center).Length()
		w := h.mass * math.Exp(-0.5*dist*dist/(h.radius*h.radius*4))
		if w > 1e-9 {
			cands = append(cands, cand{h: h, w: w})
			wsum += w
		}
	}
	s := particles.NewSet(c.schema, int(want))
	attrs := make([]float64, 3)
	uniform := func() geom.Vec3 {
		return geom.Vec3{
			X: b.Lower.X + r.Float64()*sz.X,
			Y: b.Lower.Y + r.Float64()*sz.Y,
			Z: b.Lower.Z + r.Float64()*sz.Z,
		}
	}
	for int64(s.Len()) < want {
		var pt geom.Vec3
		inHalo := false
		if len(cands) > 0 && r.Float64() < cl {
			// Pick a halo by weight and sample a Gaussian offset.
			u := r.Float64() * wsum
			pick := len(cands) - 1
			for i := range cands {
				if u -= cands[i].w; u <= 0 {
					pick = i
					break
				}
			}
			h := &cands[pick].h
			pt = geom.Vec3{
				X: h.center.X + r.NormFloat64()*h.radius,
				Y: h.center.Y + r.NormFloat64()*h.radius,
				Z: h.center.Z + r.NormFloat64()*h.radius,
			}
			if !b.Contains(pt) {
				continue // rejected; try again
			}
			inHalo = true
		} else {
			pt = uniform()
		}
		den := mix.density(pt)
		attrs[0] = 1 + 0.1*r.NormFloat64() // mass
		if inHalo {
			attrs[1] = 300 + 100*r.NormFloat64() // velocity dispersion in halos
		} else {
			attrs[1] = 50 + 20*r.NormFloat64()
		}
		attrs[2] = den
		s.Append(pt, attrs)
	}
	return s
}
