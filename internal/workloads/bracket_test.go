package workloads

import (
	"math"
	"math/rand"
	"testing"

	"libbat/internal/geom"
)

// TestPlumeBoundsBracket holds plumeBounds to its contract, lo <=
// plumeDensity <= hi, at the schedule's start, middle and end on three
// decompositions: random points in every cell of a rank box, and every
// lattice point of the grid (cell faces, edges, corners, the box's own
// faces) with each coordinate also moved one ulp to either side.
func TestPlumeBoundsBracket(t *testing.T) {
	for _, ranks := range []int{8, 16, 1536} {
		c, err := NewCoalBoiler(ranks)
		if err != nil {
			t.Fatal(err)
		}
		// Every rank of the small worlds; a spread of the large one's, its
		// first and last included.
		var checked []int
		for rank := 0; rank < ranks; rank += max(1, ranks/24) {
			checked = append(checked, rank)
		}
		if checked[len(checked)-1] != ranks-1 {
			checked = append(checked, ranks-1)
		}
		for _, f := range []float64{0, 0.5, 1} {
			plumes := c.plumesAt(f)
			r := rand.New(rand.NewSource(int64(ranks)))
			var points int
			for _, rank := range checked {
				b := c.decomp.RankBounds(rank)
				pb := newPlumeBounds(plumes, b)
				check := func(pt geom.Vec3) {
					points++
					lo, hi := pb.bracket(pt)
					if d := plumeDensity(plumes, pt); !(lo <= d && d <= hi) {
						t.Fatalf("ranks %d f=%v rank %d pt %v: density %g outside bracket [%g, %g]",
							ranks, f, rank, pt, d, lo, hi)
					}
				}
				cell := b.Size().Scale(1.0 / boundCells)
				for iz := 0; iz < boundCells; iz++ {
					for iy := 0; iy < boundCells; iy++ {
						for ix := 0; ix < boundCells; ix++ {
							for range 4 {
								check(geom.Vec3{
									X: b.Lower.X + (float64(ix)+r.Float64())*cell.X,
									Y: b.Lower.Y + (float64(iy)+r.Float64())*cell.Y,
									Z: b.Lower.Z + (float64(iz)+r.Float64())*cell.Z,
								})
							}
						}
					}
				}
				xs := latticeWithUlps(b.Lower.X, b.Upper.X, cell.X)
				ys := latticeWithUlps(b.Lower.Y, b.Upper.Y, cell.Y)
				zs := latticeWithUlps(b.Lower.Z, b.Upper.Z, cell.Z)
				for _, z := range zs {
					for _, y := range ys {
						for _, x := range xs {
							check(geom.V3(x, y, z))
						}
					}
				}
			}
			t.Logf("ranks %d f=%v: %d points bracketed", ranks, f, points)
		}
	}
}

// latticeWithUlps returns the grid's face coordinates along one axis, the
// box's own ends included, each with its neighbours one ulp below and above.
func latticeWithUlps(lower, upper, cell float64) []float64 {
	var out []float64
	for i := 0; i <= boundCells; i++ {
		v := lower + float64(i)*cell
		if i == boundCells {
			v = upper
		}
		out = append(out, math.Nextafter(v, math.Inf(-1)), v, math.Nextafter(v, math.Inf(1)))
	}
	return out
}

// TestPlumeBoundsDecideMost is the speed claim as a count, not a timing:
// materializing the generator benchmark's coal world, the bracket decides
// all but a small share of the rejection tests without the exact sum.
func TestPlumeBoundsDecideMost(t *testing.T) {
	c, err := NewCoalBoiler(16)
	if err != nil {
		t.Fatal(err)
	}
	c.SetGrowth(benchStep-2000, benchStep+2000, 1_000_000, 1_000_000)
	var candidates, exact int
	for rank := 0; rank < c.decomp.NumRanks(); rank++ {
		_, pb := c.generate(benchStep, rank)
		candidates += pb.candidates
		exact += pb.exact
	}
	share := float64(exact) / float64(candidates)
	t.Logf("%d of %d candidates (%.1f %%) needed the exact plume sum", exact, candidates, 100*share)
	if share >= 0.15 {
		t.Errorf("exact plume sum ran for %.1f %% of candidates, want < 15 %%", 100*share)
	}
}
