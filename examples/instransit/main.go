// In-transit analysis: the paper notes (§III-C) that after compaction the
// BAT "can be used for in transit visualization and analysis on the
// aggregators before or instead of being written to disk". This example
// builds the compacted layout in memory on an aggregator and runs analysis
// queries against the buffer directly — no file I/O at all — then writes
// the same buffer out, demonstrating that the written bytes and the
// in-transit view are one and the same.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"

	"libbat/internal/bat"
	"libbat/internal/geom"
	"libbat/internal/particles"
)

func main() {
	// Pretend we are an aggregator that just received ~200k particles for
	// its leaf of the aggregation tree.
	const n = 200_000
	r := rand.New(rand.NewSource(7))
	schema := particles.NewSchema("energy", "species")
	set := particles.NewSet(schema, n)
	domain := geom.NewBox(geom.V3(0, 0, 0), geom.V3(2, 2, 2))
	for i := 0; i < n; i++ {
		// Two blobs with different energies and species labels.
		var p geom.Vec3
		var energy, species float64
		if i%3 == 0 {
			p = geom.V3(0.4+0.3*r.NormFloat64(), 0.4+0.3*r.NormFloat64(), 0.4+0.3*r.NormFloat64())
			energy, species = 10+r.Float64(), 1
		} else {
			p = geom.V3(1.5+0.2*r.NormFloat64(), 1.5+0.2*r.NormFloat64(), 1.5+0.2*r.NormFloat64())
			energy, species = 50+5*r.Float64(), 2
		}
		p = p.Max(domain.Lower).Min(domain.Upper)
		set.Append(p, []float64{energy, species})
	}

	// Build the compacted layout (this is what the write pipeline does on
	// every aggregator).
	built, err := bat.Build(set, domain, bat.DefaultBuildConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built BAT in memory: %d particles, %d treelets, %.2f%% layout overhead\n",
		built.Stats.NumParticles, built.Stats.NumTreelets, 100*built.Stats.OverheadFraction())

	// In-transit analysis straight off the buffer.
	f, err := bat.FromBuffer(built.Buf)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Attribute query: how many high-energy particles?
	hi, err := f.CountMatching(bat.Query{Filters: []bat.AttrFilter{{Attr: 0, Min: 40, Max: 100}}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("high-energy (>=40) particles: %d\n", hi)

	// 2. Spatial + attribute: species-1 particles in the lower octant.
	box := geom.NewBox(geom.V3(0, 0, 0), geom.V3(1, 1, 1))
	s1, err := f.CountMatching(bat.Query{
		Bounds:  &box,
		Filters: []bat.AttrFilter{{Attr: 1, Min: 0.5, Max: 1.5}},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("species-1 particles in the lower octant: %d\n", s1)

	// 3. A coarse LOD pass computing a mean — in transit, over ~5%% of
	// the data, without touching the rest.
	var sum float64
	var cnt int
	_, err = f.Query(context.Background(), bat.Query{Quality: 0.05}, bat.QueryConfig{}, func(_ geom.Vec3, attrs []float64) error {
		sum += attrs[0]
		cnt++
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("coarse-pass mean energy: %.1f from %d LOD samples (full data: %d)\n",
		sum/float64(cnt), cnt, n)

	// The buffer written to disk is byte-identical to what we analyzed.
	f2, err := bat.FromBuffer(append([]byte(nil), built.Buf...))
	if err != nil {
		log.Fatal(err)
	}
	n2, _ := f2.CountMatching(bat.Query{})
	if int(n2) != n || !bytes.Equal(built.Buf[:4], []byte("BAT1")) {
		log.Fatal("in-transit view diverged from the written layout")
	}
	fmt.Println("written bytes == analyzed bytes: in situ and post hoc views agree")
}
