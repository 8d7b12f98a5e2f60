// Checkpoint/restart: the library's other first-class read path (paper
// §IV: "high-bandwidth reads for fast checkpoint restart reads"). A toy
// advection simulation writes periodic checkpoints through the collective
// two-phase pipeline, is killed, and restarts from the latest checkpoint
// with a collective read in which every rank fetches exactly its own
// subdomain — on a different number of ranks than wrote it, which the read
// aggregator assignment handles transparently (§IV-A).
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"sync"

	"libbat"
)

const (
	domainSize = 8.0
	dt         = 0.05
)

// advect moves particles with their stored velocity, bouncing off the
// domain walls.
func advect(s *libbat.ParticleSet, steps int) {
	for n := 0; n < steps; n++ {
		for i := 0; i < s.Len(); i++ {
			x := float64(s.X[i]) + s.Attrs[0][i]*dt
			y := float64(s.Y[i]) + s.Attrs[1][i]*dt
			if x < 0 || x > domainSize {
				s.Attrs[0][i] = -s.Attrs[0][i]
				x = math.Max(0, math.Min(domainSize, x))
			}
			if y < 0 || y > domainSize {
				s.Attrs[1][i] = -s.Attrs[1][i]
				y = math.Max(0, math.Min(domainSize, y))
			}
			s.X[i], s.Y[i] = float32(x), float32(y)
		}
	}
}

// rankBounds slabs the domain along x.
func rankBounds(rank, ranks int) libbat.Box {
	w := domainSize / float64(ranks)
	return libbat.NewBox(
		libbat.V3(float64(rank)*w, 0, 0),
		libbat.V3(float64(rank+1)*w, domainSize, 1))
}

// ownerOf returns the rank whose slab holds x.
func ownerOf(x float64, ranks int) int {
	r := int(x / domainSize * float64(ranks))
	if r < 0 {
		r = 0
	}
	if r >= ranks {
		r = ranks - 1
	}
	return r
}

// ownedOnly filters a read-back slab to half-open ownership [lo, hi) so a
// particle sitting exactly on a slab face is restored by exactly one rank.
func ownedOnly(s *libbat.ParticleSet, rank, ranks int) *libbat.ParticleSet {
	out := libbat.NewParticleSet(s.Schema, s.Len())
	attrs := make([]float64, s.Schema.NumAttrs())
	for i := 0; i < s.Len(); i++ {
		if ownerOf(float64(s.X[i]), ranks) != rank {
			continue
		}
		for a := range attrs {
			attrs[a] = s.Attrs[a][i]
		}
		out.Append(s.Position(i), attrs)
	}
	return out
}

// migrate exchanges particles so every rank holds exactly those inside its
// slab — what a real simulation's load balancer does each step, and the
// invariant the write pipeline's rank bounds rely on.
func migrate(c *libbat.Comm, local *libbat.ParticleSet) (*libbat.ParticleSet, error) {
	ranks := c.Size()
	outgoing := make([]*libbat.ParticleSet, ranks)
	for r := range outgoing {
		outgoing[r] = libbat.NewParticleSet(local.Schema, 0)
	}
	attrs := make([]float64, local.Schema.NumAttrs())
	for i := 0; i < local.Len(); i++ {
		for a := range attrs {
			attrs[a] = local.Attrs[a][i]
		}
		dst := ownerOf(float64(local.X[i]), ranks)
		outgoing[dst].Append(local.Position(i), attrs)
	}
	return libbat.Exchange(c, local.Schema, outgoing)
}

func main() {
	dir, err := os.MkdirTemp("", "libbat-restart")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := libbat.DirStorage(dir)
	if err != nil {
		log.Fatal(err)
	}
	schema := libbat.NewSchema("vx", "vy")
	ctx := context.Background()
	const (
		writeRanks = 8
		perRank    = 5000
		checkEvery = 40
	)

	// Phase 1: run on 8 ranks, checkpoint every 40 steps, "crash" after
	// the second checkpoint.
	fmt.Printf("phase 1: %d ranks, checkpoints every %d steps\n", writeRanks, checkEvery)
	lastCheckpoint := ""
	for epoch := 0; epoch < 2; epoch++ {
		base := fmt.Sprintf("ckpt-%04d", (epoch+1)*checkEvery)
		err := libbat.Run(writeRanks, func(c *libbat.Comm) error {
			// Each rank regenerates (epoch 0) or reads (epoch > 0) its
			// state; within this demo the state persists via checkpoints
			// only, exactly like a real restart.
			var local *libbat.ParticleSet
			if epoch == 0 {
				r := rand.New(rand.NewSource(int64(c.Rank())))
				local = libbat.NewParticleSet(schema, perRank)
				b := rankBounds(c.Rank(), writeRanks)
				for i := 0; i < perRank; i++ {
					p := libbat.V3(
						b.Lower.X+r.Float64()*b.Size().X,
						r.Float64()*domainSize,
						r.Float64())
					local.Append(p, []float64{4 * r.NormFloat64(), 4 * r.NormFloat64()})
				}
			} else {
				prev := fmt.Sprintf("ckpt-%04d", epoch*checkEvery)
				var err error
				b := rankBounds(c.Rank(), writeRanks)
				local, _, err = libbat.ReadQueryCtx(ctx, c, store, prev, libbat.Query{Bounds: &b})
				if err != nil {
					return err
				}
				local = ownedOnly(local, c.Rank(), writeRanks)
			}
			advect(local, checkEvery)
			// Rebalance so each rank's particles sit inside its declared
			// bounds before the collective write.
			local, err := migrate(c, local)
			if err != nil {
				return err
			}
			_, err = libbat.Write(c, store, base, local, rankBounds(c.Rank(), writeRanks),
				libbat.DefaultWriteConfig(256<<10))
			return err
		})
		if err != nil {
			log.Fatal(err)
		}
		lastCheckpoint = base
		fmt.Printf("  wrote %s\n", base)
	}
	fmt.Println("phase 1 crashed (simulated)")

	// Phase 2: restart from the last checkpoint on a DIFFERENT rank
	// count (12), each rank pulling its own slab.
	const restartRanks = 12
	fmt.Printf("phase 2: restarting %s on %d ranks\n", lastCheckpoint, restartRanks)
	var mu sync.Mutex
	recovered := 0
	err = libbat.Run(restartRanks, func(c *libbat.Comm) error {
		b := rankBounds(c.Rank(), restartRanks)
		local, stats, err := libbat.ReadQueryCtx(ctx, c, store, lastCheckpoint, libbat.Query{Bounds: &b})
		if err != nil {
			return err
		}
		local = ownedOnly(local, c.Rank(), restartRanks)
		mu.Lock()
		recovered += local.Len()
		mu.Unlock()
		if c.Rank() == 0 {
			fmt.Printf("  rank 0 served %d files, read %d particles for its slab\n",
				stats.NumFiles, local.Len())
		}
		// ... and the simulation would continue from here.
		advect(local, 10)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered %d particles (expected exactly %d)\n", recovered, writeRanks*perRank)
	if recovered != writeRanks*perRank {
		log.Fatal("restart lost or duplicated particles")
	}
	fmt.Println("restart successful")
}
