package workloads

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"libbat/internal/geom"
	"libbat/internal/particles"
)

// referenceDensity is the straightforward mixture density the evaluator
// replaced: every halo at every point, nothing hoisted. It is the oracle
// for mixture.density and lives only here.
func referenceDensity(c *Cosmo, pt geom.Vec3, step int) float64 {
	cl := c.clustered(step)
	d := 1 - cl // uniform background
	var hmass float64
	for _, h := range c.halos {
		hmass += h.mass
	}
	for _, h := range c.halos {
		dist := pt.Sub(h.center).Length()
		s := h.radius
		d += cl * (h.mass / hmass) * math.Exp(-0.5*dist*dist/(s*s)) / (s * s * s)
	}
	return d
}

func newTestCosmo(t testing.TB, ranks int, total int64) *Cosmo {
	t.Helper()
	c, err := NewCosmo(ranks, total, 24)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestMixtureMatchesReference holds the cut-off evaluator — whole, and
// restricted to a rank's box as Generate uses it — to bit equality with the
// all-halos reference at clustered fractions on both sides of every branch
// of mixtureAt, with halo radii at both ends of NewCosmo's range, and
// requires that it really skips terms where it may.
func TestMixtureMatchesReference(t *testing.T) {
	const points = 100_000
	for _, cl := range []float64{0, 1e-12, 0.3, 0.85, 1 - 0x1p-53, 1, 1.25} {
		c := newTestCosmo(t, 64, 1000)
		c.MaxClustered, c.FormSteps = cl, 1
		for i := range c.halos {
			// Narrowest and widest halos NewCosmo can draw, alternating.
			c.halos[i].radius = []float64{0.02, 0.07}[i%2]
		}
		mix := c.mixtureAt(c.clustered(1))
		boxed := make([]mixture, c.decomp.NumRanks())
		var pruned int
		for rank := range boxed {
			boxed[rank] = mix.within(c.decomp.RankBounds(rank))
			pruned += len(mix.terms) - len(boxed[rank].terms)
		}
		r := rand.New(rand.NewSource(7))
		var skipped, evaluated int
		for i := 0; i < points; i++ {
			rank := i % len(boxed)
			b := c.decomp.RankBounds(rank)
			sz := b.Size()
			pt := geom.V3(b.Lower.X+r.Float64()*sz.X, b.Lower.Y+r.Float64()*sz.Y, b.Lower.Z+r.Float64()*sz.Z)
			if i%4 == 0 {
				// Near a halo centre, where the terms are largest.
				h := c.halos[r.Intn(len(c.halos))]
				near := h.center.Add(geom.V3(r.NormFloat64(), r.NormFloat64(), r.NormFloat64()).Scale(h.radius))
				if b.Contains(near) {
					pt = near
				}
			}
			want := math.Float64bits(referenceDensity(c, pt, 1))
			if got := math.Float64bits(mix.density(pt)); got != want {
				t.Fatalf("cl=%v pt=%v: evaluator %#x, reference %#x", cl, pt, got, want)
			}
			if got := math.Float64bits(boxed[rank].density(pt)); got != want {
				t.Fatalf("cl=%v pt=%v rank %d: boxed evaluator %#x, reference %#x", cl, pt, rank, got, want)
			}
			for _, term := range mix.terms {
				off := pt.Sub(term.center)
				if off.Dot(off) > term.cut2 {
					skipped++
				} else {
					evaluated++
				}
			}
		}
		t.Logf("cl=%v: %d terms skipped, %d evaluated, %d of %d pruned per box",
			cl, skipped, evaluated, pruned, len(mix.terms)*len(boxed))
		switch {
		case cl == 0:
			if len(mix.terms) != 0 {
				t.Errorf("cl=0: %d terms, want none", len(mix.terms))
			}
		case cl > 0 && cl < 1:
			if skipped == 0 || pruned == 0 {
				t.Errorf("cl=%v: %d terms skipped, %d pruned; the test proves nothing unless both happen", cl, skipped, pruned)
			}
		default: // no positive background: nothing may be skipped
			if skipped != 0 || pruned != 0 {
				t.Errorf("cl=%v: %d terms skipped, %d pruned without a positive background", cl, skipped, pruned)
			}
		}
	}
}

// TestCutoffBelowHalfUlp checks the cut-off itself: just past it, a term as
// the evaluator computes it is under half an ulp of the background by about
// the stated margin, and well inside it the term is still large enough to
// matter (so the cut-off is not uselessly far out).
func TestCutoffBelowHalfUlp(t *testing.T) {
	for _, cl := range []float64{1e-12, 0.3, 0.85, 1 - 0x1p-53} {
		c := newTestCosmo(t, 8, 1000)
		mix := c.mixtureAt(cl)
		halfUlp := (math.Nextafter(mix.background, math.Inf(1)) - mix.background) / 2
		term := func(h haloTerm, d2 float64) float64 {
			dist := math.Sqrt(d2)
			return h.coef * math.Exp(-0.5*dist*dist/h.s2) / h.s3
		}
		for i, h := range mix.terms {
			if h.cut2 <= 0 {
				if v := term(h, 0); v >= halfUlp {
					t.Errorf("cl=%v halo %d: always skipped, but its peak %g >= half ulp %g", cl, i, v, halfUlp)
				}
				continue
			}
			if v := term(h, h.cut2); v > halfUlp/2 || v < halfUlp/4 {
				t.Errorf("cl=%v halo %d: term at the cut-off is %g, want about half ulp / e = %g", cl, i, v, halfUlp/math.E)
			}
		}
	}
}

// TestCountsMemoFollowsFields mutates, between calls, every exported field
// that feeds Counts and demands the answer of a fresh workload value that
// was configured the same way before its first call.
func TestCountsMemoFollowsFields(t *testing.T) {
	t.Run("cosmo", func(t *testing.T) {
		c := newTestCosmo(t, 27, 50_000)
		configure := []func(*Cosmo){
			func(*Cosmo) {},
			func(c *Cosmo) { c.FormSteps = 10 },
			func(c *Cosmo) { c.MaxClustered = 0.4 },
			func(c *Cosmo) { c.FormSteps = 1 },
		}
		for i := range configure {
			configure[i](c)
			ref := newTestCosmo(t, 27, 50_000)
			for _, f := range configure[:i+1] {
				f(ref)
			}
			for _, step := range []int{5, 5, 700} {
				if got, want := c.Counts(step), ref.Counts(step); !slices.Equal(got, want) {
					t.Errorf("after mutation %d, step %d: memoized counts differ from a fresh value's", i, step)
				}
				if got, want := c.Generate(step, 3).Len(), int(ref.Counts(step)[3]); got != want {
					t.Errorf("after mutation %d, step %d: Generate made %d particles, want %d", i, step, got, want)
				}
			}
		}
	})
	t.Run("coal", func(t *testing.T) {
		c, err := NewCoalBoiler(12)
		if err != nil {
			t.Fatal(err)
		}
		schedules := [][4]int64{{0, 100, 1000, 9000}, {0, 100, 1000, 5000}, {0, 400, 1000, 5000}, {50, 400, 2000, 5000}}
		for _, s := range schedules {
			c.SetGrowth(int(s[0]), int(s[1]), s[2], s[3])
			ref, _ := NewCoalBoiler(12)
			ref.SetGrowth(int(s[0]), int(s[1]), s[2], s[3])
			for _, step := range []int{60, 60, 90} {
				if got, want := c.Counts(step), ref.Counts(step); !slices.Equal(got, want) {
					t.Errorf("schedule %v step %d: memoized counts differ from a fresh value's", s, step)
				}
			}
		}
		// The fields SetGrowth writes are exported; a direct write counts too.
		c.EndCount = 7000
		ref, _ := NewCoalBoiler(12)
		ref.SetGrowth(50, 400, 2000, 7000)
		if got, want := c.Counts(90), ref.Counts(90); !slices.Equal(got, want) {
			t.Errorf("after EndCount write: memoized counts differ from a fresh value's")
		}
	})
	t.Run("dam", func(t *testing.T) {
		w, err := NewDamBreak(8, 30_000)
		if err != nil {
			t.Fatal(err)
		}
		for _, scale := range []float64{1.0 / 2000, 1.0 / 500, 0} {
			w.TimeScale = scale
			ref, _ := NewDamBreak(8, 30_000)
			ref.TimeScale = scale
			for _, step := range []int{300, 300, 1200} {
				if got, want := w.Counts(step), ref.Counts(step); !slices.Equal(got, want) {
					t.Errorf("TimeScale %v step %d: memoized counts differ from a fresh value's", scale, step)
				}
			}
		}
	})
}

// TestCountsNotAliased: callers may modify what Counts returns.
func TestCountsNotAliased(t *testing.T) {
	coal, _ := NewCoalBoiler(8)
	coal.SetGrowth(0, 1000, 10_000, 10_000)
	dam, _ := NewDamBreak(8, 10_000)
	for _, w := range []Workload{newTestCosmo(t, 8, 10_000), coal, dam} {
		first := w.Counts(600)
		want := slices.Clone(first)
		for i := range first {
			first[i] = -1
		}
		if got := w.Counts(600); !slices.Equal(got, want) {
			t.Errorf("%s: modifying a returned slice changed the next Counts", w.Name())
		}
		if got := int64(w.Generate(600, 2).Len()); got != want[2] {
			t.Errorf("%s: modifying a returned slice changed Generate: %d particles, want %d", w.Name(), got, want[2])
		}
	}
}

// TestCountsOncePerWorld is the O(P) claim as a count, not a timing:
// materializing all 1 536 ranks of a world, serially or concurrently, runs
// the per-rank density integration once, and again only when the step or a
// parameter changes.
func TestCountsOncePerWorld(t *testing.T) {
	const ranks = 1536
	c := newTestCosmo(t, ranks, 30_000)
	c.FormSteps = 1
	for r := 0; r < ranks; r++ {
		c.Generate(1, r)
	}
	c.Counts(1)
	RankInfos(c, 1)
	if c.memo.fills != 1 {
		t.Errorf("cosmo: one world cost %d count computations, want 1", c.memo.fills)
	}
	c.MaxClustered = 0.5
	c.Generate(1, 0)
	c.Generate(1, 1)
	if c.memo.fills != 2 {
		t.Errorf("cosmo: %d count computations after a parameter change, want 2", c.memo.fills)
	}

	coal, err := NewCoalBoiler(ranks)
	if err != nil {
		t.Fatal(err)
	}
	coal.SetGrowth(0, 100, 30_000, 60_000)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			coal.Generate(50, r)
		}(r)
	}
	wg.Wait()
	if coal.memo.fills != 1 {
		t.Errorf("coal: one concurrent world cost %d count computations, want 1", coal.memo.fills)
	}
	coal.Generate(51, 0)
	if coal.memo.fills != 2 {
		t.Errorf("coal: %d count computations after a step change, want 2", coal.memo.fills)
	}
}

// TestConcurrentGenerate makes the calls benchmark/trip.go and the fabric
// ranks make — every rank of one workload value at once — and compares
// each set with the one a serial loop over a fresh value produces. Run
// under -race by scripts/check.sh.
func TestConcurrentGenerate(t *testing.T) {
	coalA, _ := NewCoalBoiler(16)
	coalB, _ := NewCoalBoiler(16)
	coalA.SetGrowth(0, 100, 20_000, 20_000)
	coalB.SetGrowth(0, 100, 20_000, 20_000)
	damA, _ := NewDamBreak(16, 20_000)
	damB, _ := NewDamBreak(16, 20_000)
	for _, pair := range [][2]Workload{
		{newTestCosmo(t, 16, 20_000), newTestCosmo(t, 16, 20_000)},
		{coalA, coalB},
		{damA, damB},
	} {
		conc, serial := pair[0], pair[1]
		n := conc.Decomp().NumRanks()
		for _, step := range []int{40, 900} {
			sets := make([]*particles.Set, n)
			var wg sync.WaitGroup
			for r := 0; r < n; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					sets[r] = conc.Generate(step, r)
				}(r)
			}
			wg.Wait()
			for r := 0; r < n; r++ {
				if setDigest(sets[r]) != setDigest(serial.Generate(step, r)) {
					t.Errorf("%s step %d rank %d: concurrent set differs from serial", conc.Name(), step, r)
				}
			}
		}
	}
}
