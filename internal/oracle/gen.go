package oracle

import (
	"math/rand"

	"libbat/internal/bat"
	"libbat/internal/geom"
	"libbat/internal/particles"
)

// Workload is one seeded particle world. Rank r owns the unit cell with
// lower corner (r mod 4, r div 4, 0) and PerRank particles inside it:
// uniform, or with four in five of them in the cell's 0.1-wide corner when
// Clustered. Every particle carries "temp" = 100·x, so a filter on it is
// spatially coherent as the bitmaps assume, and "id", its index in the
// world.
type Workload struct {
	Seed      int64
	Ranks     int
	PerRank   int
	Clustered bool
}

// Rank returns rank r's particles and its cell.
func (w Workload) Rank(r int) (*particles.Set, geom.Box) {
	rng := rand.New(rand.NewSource(w.Seed<<8 + int64(r)))
	lo := geom.V3(float64(r%4), float64(r/4), 0)
	s := particles.NewSet(particles.NewSchema("temp", "id"), w.PerRank)
	for i := 0; i < w.PerRank; i++ {
		side := 1.0
		if w.Clustered && i%5 != 0 {
			side = 0.1
		}
		p := lo.Add(geom.V3(rng.Float64()*side, rng.Float64()*side, rng.Float64()*side))
		s.Append(p, []float64{p.X * 100, float64(r*w.PerRank + i)})
	}
	return s, geom.NewBox(lo, lo.Add(geom.V3(1, 1, 1)))
}

// Sets returns every rank's particles.
func (w Workload) Sets() []*particles.Set {
	out := make([]*particles.Set, w.Ranks)
	for r := range out {
		out[r], _ = w.Rank(r)
	}
	return out
}

// All returns the whole world as one set, the input of a single-file build.
func (w Workload) All() *particles.Set { return concat(w.Sets()) }

// concat appends sets, all of one schema, into one.
func concat(sets []*particles.Set) *particles.Set {
	all := particles.NewSet(sets[0].Schema, 0)
	for _, s := range sets {
		all.AppendSet(s)
	}
	return all
}

// Domain returns the union of the ranks' cells.
func (w Workload) Domain() geom.Box {
	return geom.NewBox(geom.V3(0, 0, 0), geom.V3(float64(min(w.Ranks, 4)), float64((w.Ranks+3)/4), 1))
}

// Case is one generated (workload, write config) pair; its queries come
// from its Reference.
type Case struct {
	Workload
	// Build is the leaf layout: tree shape, and half the time declared
	// error bounds (a lossy write).
	Build bat.BuildConfig
	// Target is a collective write's target file size, small enough that
	// most worlds span several files.
	Target int64
	// AUG selects the AUG baseline's aggregation instead of the adaptive
	// tree's.
	AUG bool
}

// Generate draws the case for seed: 1–8 ranks of 50–549 particles, a tree
// of 4–128 particles per leaf, lossless or lossy, 4–63 KiB files.
func Generate(seed int64) Case {
	rng := rand.New(rand.NewSource(seed))
	c := Case{
		Workload: Workload{Seed: seed, Ranks: 1 + rng.Intn(8), PerRank: 50 + rng.Intn(500), Clustered: rng.Intn(2) == 0},
		Build:    bat.DefaultBuildConfig(),
		Target:   1024 * int64(4+rng.Intn(60)),
		AUG:      rng.Intn(3) == 0,
	}
	c.Build.MaxLeafSize = []int{4, 16, 32, 128}[rng.Intn(4)]
	c.Build.LODPerNode = []int{2, 4, 8}[rng.Intn(3)]
	if rng.Intn(2) == 0 {
		c.Build.Compress = true
		c.Build.AttrErrorBounds = []float64{0.1, 0.5}
		c.Build.LODErrorScale = float64(1 + rng.Intn(2))
	}
	return c
}

// Reference returns the evaluator of what c writes.
func (c Case) Reference() *Reference { return New(c.Build, c.Sets()...) }
