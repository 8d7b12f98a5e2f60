package aggtree

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"libbat/internal/geom"
)

// gridRanks builds an nx x ny x nz grid of ranks over [0,1]^3 with counts
// produced by the given function of the cell index.
func gridRanks(nx, ny, nz int, count func(ix, iy, iz int) int64) []RankInfo {
	ranks := make([]RankInfo, 0, nx*ny*nz)
	id := 0
	for iz := 0; iz < nz; iz++ {
		for iy := 0; iy < ny; iy++ {
			for ix := 0; ix < nx; ix++ {
				lo := geom.V3(float64(ix)/float64(nx), float64(iy)/float64(ny), float64(iz)/float64(nz))
				hi := geom.V3(float64(ix+1)/float64(nx), float64(iy+1)/float64(ny), float64(iz+1)/float64(nz))
				ranks = append(ranks, RankInfo{Rank: id, Bounds: geom.NewBox(lo, hi), Count: count(ix, iy, iz)})
				id++
			}
		}
	}
	return ranks
}

const bpp = 12 + 4*8 // 3xf32 + 4xf64

func TestBuildValidatesConfig(t *testing.T) {
	ranks := gridRanks(2, 2, 2, func(_, _, _ int) int64 { return 10 })
	if _, err := Build(ranks, Config{TargetFileSize: 0, BytesPerParticle: bpp}); err == nil {
		t.Error("zero target should error")
	}
	if _, err := Build(ranks, Config{TargetFileSize: 100, BytesPerParticle: 0}); err == nil {
		t.Error("zero bpp should error")
	}
}

func TestBuildEmpty(t *testing.T) {
	tr, err := Build(nil, DefaultConfig(1<<20, bpp))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Leaves) != 0 {
		t.Errorf("empty build has %d leaves", len(tr.Leaves))
	}
	// All-empty ranks behave like no ranks.
	ranks := gridRanks(2, 2, 2, func(_, _, _ int) int64 { return 0 })
	tr, err = Build(ranks, DefaultConfig(1<<20, bpp))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Leaves) != 0 {
		t.Errorf("all-empty build has %d leaves", len(tr.Leaves))
	}
}

func TestBuildSingleLeafWhenUnderTarget(t *testing.T) {
	ranks := gridRanks(4, 4, 4, func(_, _, _ int) int64 { return 100 })
	tr, err := Build(ranks, DefaultConfig(1<<30, bpp))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Leaves) != 1 {
		t.Fatalf("want 1 leaf, got %d", len(tr.Leaves))
	}
	if got := tr.Leaves[0].Count; got != 64*100 {
		t.Errorf("leaf count = %d", got)
	}
	if len(tr.Leaves[0].Ranks) != 64 {
		t.Errorf("leaf ranks = %d", len(tr.Leaves[0].Ranks))
	}
}

// checkPartition verifies every particle-owning rank appears in exactly one
// leaf, each leaf's count and bounds are its members' sum and union, and
// total counts are preserved.
func checkPartition(t *testing.T, ranks []RankInfo, tr *Tree) {
	t.Helper()
	seen := map[int]int{}
	var total int64
	for li, l := range tr.Leaves {
		var n int64
		for _, r := range l.Ranks {
			if prev, dup := seen[r]; dup {
				t.Fatalf("rank %d in leaves %d and %d", r, prev, li)
			}
			seen[r] = li
			n += ranks[r].Count
		}
		if n != l.Count {
			t.Fatalf("leaf %d count %d != sum of member counts %d", li, l.Count, n)
		}
		total += n
		// Leaf bounds are exactly the union of member bounds.
		union := geom.EmptyBox()
		for _, r := range l.Ranks {
			union = union.Union(ranks[r].Bounds)
		}
		if l.Bounds != union {
			t.Fatalf("leaf %d bounds %v != union of member bounds %v", li, l.Bounds, union)
		}
	}
	var want int64
	for _, r := range ranks {
		if r.Count > 0 {
			if _, ok := seen[r.Rank]; !ok {
				t.Fatalf("rank %d with %d particles missing from tree", r.Rank, r.Count)
			}
			want += r.Count
		} else if _, ok := seen[r.Rank]; ok {
			t.Fatalf("empty rank %d assigned to a leaf", r.Rank)
		}
	}
	if total != want {
		t.Fatalf("leaves hold %d particles, want %d", total, want)
	}
}

func TestBuildUniformPartition(t *testing.T) {
	ranks := gridRanks(4, 4, 4, func(_, _, _ int) int64 { return 1000 })
	target := int64(8 * 1000 * bpp) // ~8 ranks per leaf
	tr, err := Build(ranks, DefaultConfig(target, bpp))
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, ranks, tr)
	if len(tr.Leaves) < 4 || len(tr.Leaves) > 16 {
		t.Errorf("unexpected leaf count %d for 8:1 aggregation of 64 ranks", len(tr.Leaves))
	}
	// Uniform distribution: every leaf should be within the overfull bound.
	for i, l := range tr.Leaves {
		if float64(l.Bytes(bpp)) > 1.5*float64(target) {
			t.Errorf("leaf %d size %d exceeds overfull bound", i, l.Bytes(bpp))
		}
	}
}

func TestAdaptiveBalancesNonuniform(t *testing.T) {
	// Dense corner: counts vary by 100x across the domain. The adaptive
	// tree should still produce leaves of similar size.
	ranks := gridRanks(8, 8, 1, func(ix, iy, _ int) int64 {
		if ix < 2 && iy < 2 {
			return 10000
		}
		return 100
	})
	var total int64
	for _, r := range ranks {
		total += r.Count
	}
	target := total * int64(bpp) / 8 // aim for ~8 files
	tr, err := Build(ranks, DefaultConfig(target, bpp))
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, ranks, tr)
	stats := LeafSizeStats(tr.Leaves, bpp)
	if stats.NumFiles < 2 {
		t.Fatalf("expected multiple leaves, got %d", stats.NumFiles)
	}
	// Adaptivity: the coefficient of variation should be modest even
	// though per-rank counts vary 100x.
	cv := stats.StddevB / stats.MeanB
	if cv > 0.8 {
		t.Errorf("leaf sizes too imbalanced: cv=%.2f stats=%+v", cv, stats)
	}
}

func TestSingleRankOverTarget(t *testing.T) {
	// A single rank exceeding the target must become its own leaf; rank
	// data is never partitioned.
	ranks := gridRanks(2, 1, 1, func(ix, _, _ int) int64 {
		if ix == 0 {
			return 1000000
		}
		return 10
	})
	tr, err := Build(ranks, DefaultConfig(1000, bpp))
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, ranks, tr)
	if len(tr.Leaves) != 2 {
		t.Fatalf("want 2 leaves, got %d", len(tr.Leaves))
	}
}

func TestOverfullLeafCreation(t *testing.T) {
	// Two ranks: 80/20 split (ratio 4) with total size in (target,
	// 1.5*target]. With overfull enabled we should get one leaf; without,
	// two.
	mk := func() []RankInfo {
		return gridRanks(2, 1, 1, func(ix, _, _ int) int64 {
			if ix == 0 {
				return 80
			}
			return 20
		})
	}
	totalBytes := float64(100 * bpp)
	target := int64(totalBytes / 1.2) // total = 1.2*target
	cfg := DefaultConfig(target, bpp)
	tr, err := Build(mk(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Leaves) != 1 || !tr.Leaves[0].Overfull {
		t.Errorf("overfull rule should make 1 overfull leaf, got %d leaves", len(tr.Leaves))
	}
	cfg.AllowOverfull = false
	tr, err = Build(mk(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Leaves) != 2 {
		t.Errorf("without overfull, want 2 leaves, got %d", len(tr.Leaves))
	}
}

func TestOverfullRespectsFactorBound(t *testing.T) {
	// Ratio-4 imbalance but total far above 1.5x target: must split anyway.
	ranks := gridRanks(2, 1, 1, func(ix, _, _ int) int64 {
		if ix == 0 {
			return 8000
		}
		return 2000
	})
	target := int64(100 * bpp)
	tr, err := Build(ranks, DefaultConfig(target, bpp))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Leaves) != 2 {
		t.Errorf("want forced split into 2 leaves, got %d", len(tr.Leaves))
	}
}

func TestIdenticalBoundsFallback(t *testing.T) {
	// Ranks with identical bounds cannot be separated; they must land in
	// one (overfull) leaf rather than recurse forever.
	b := geom.NewBox(geom.V3(0, 0, 0), geom.V3(1, 1, 1))
	ranks := []RankInfo{
		{Rank: 0, Bounds: b, Count: 1000},
		{Rank: 1, Bounds: b, Count: 1000},
	}
	tr, err := Build(ranks, DefaultConfig(10, bpp))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Leaves) != 1 {
		t.Fatalf("want 1 leaf, got %d", len(tr.Leaves))
	}
}

func TestAssignAggregators(t *testing.T) {
	ranks := gridRanks(4, 4, 4, func(_, _, _ int) int64 { return 1000 })
	tr, err := Build(ranks, DefaultConfig(4*1000*bpp, bpp))
	if err != nil {
		t.Fatal(err)
	}
	agg := AssignAggregators(tr.Leaves, 64)
	// Every member rank's aggregator matches its leaf's.
	for li, l := range tr.Leaves {
		if l.Aggregator < 0 || l.Aggregator >= 64 {
			t.Fatalf("leaf %d aggregator %d out of range", li, l.Aggregator)
		}
		for _, r := range l.Ranks {
			if agg[r] != l.Aggregator {
				t.Fatalf("rank %d agg %d != leaf %d agg %d", r, agg[r], li, l.Aggregator)
			}
		}
	}
	// Aggregators are spread: distinct leaves get distinct aggregators
	// when leaves <= ranks.
	seen := map[int]bool{}
	for _, l := range tr.Leaves {
		if seen[l.Aggregator] {
			t.Fatalf("aggregator %d assigned twice with %d leaves over 64 ranks", l.Aggregator, len(tr.Leaves))
		}
		seen[l.Aggregator] = true
	}
}

func TestAssignAggregatorsEmptyRanks(t *testing.T) {
	ranks := gridRanks(2, 2, 1, func(ix, _, _ int) int64 {
		if ix == 0 {
			return 100
		}
		return 0
	})
	tr, err := Build(ranks, DefaultConfig(1<<20, bpp))
	if err != nil {
		t.Fatal(err)
	}
	agg := AssignAggregators(tr.Leaves, 4)
	for r, a := range agg {
		empty := ranks[r].Count == 0
		if empty && a != -1 {
			t.Errorf("empty rank %d assigned aggregator %d", r, a)
		}
		if !empty && a == -1 {
			t.Errorf("rank %d with particles has no aggregator", r)
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ranks := gridRanks(8, 8, 4, func(_, _, _ int) int64 { return rng.Int63n(5000) })
	cfgP := DefaultConfig(10000*bpp, bpp)
	cfgS := cfgP
	cfgS.Parallel = false
	trP, err := Build(ranks, cfgP)
	if err != nil {
		t.Fatal(err)
	}
	trS, err := Build(ranks, cfgS)
	if err != nil {
		t.Fatal(err)
	}
	if len(trP.Leaves) < 2 {
		t.Fatalf("test misconfigured: %d leaves exercise no split", len(trP.Leaves))
	}
	if !reflect.DeepEqual(trP.Leaves, trS.Leaves) {
		t.Fatalf("parallel and serial builds differ:\nparallel %+v\n  serial %+v", trP.Leaves, trS.Leaves)
	}
}

func TestBestSplitAllAxes(t *testing.T) {
	// Domain is longest in x but the imbalance is along y. The all-axes
	// search should find a cheaper split than the longest-axis-only one.
	ranks := []RankInfo{
		{Rank: 0, Bounds: geom.NewBox(geom.V3(0, 0, 0), geom.V3(10, 0.5, 1)), Count: 500},
		{Rank: 1, Bounds: geom.NewBox(geom.V3(0, 0.5, 0), geom.V3(10, 1, 1)), Count: 500},
	}
	cfg := DefaultConfig(500*bpp, bpp)
	cfg.BestSplitAllAxes = true
	tr, err := Build(ranks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Leaves) != 2 {
		t.Fatalf("want 2 leaves, got %d", len(tr.Leaves))
	}
	if l := tr.Leaves[0]; len(l.Ranks) != 1 || l.Ranks[0] != 0 || l.Bounds.Upper.Y != 0.5 {
		t.Errorf("expected y split with rank 0 below it, got leaves %+v", tr.Leaves)
	}
}

func TestLeafSizeStats(t *testing.T) {
	leaves := []Leaf{{Count: 10}, {Count: 20}, {Count: 30}}
	s := LeafSizeStats(leaves, 10)
	if s.NumFiles != 3 || s.MeanB != 200 || s.MaxB != 300 || s.MinB != 100 {
		t.Errorf("stats = %+v", s)
	}
	want := math.Sqrt((100.*100 + 0 + 100.*100) / 3)
	if math.Abs(s.StddevB-want) > 1e-9 {
		t.Errorf("stddev = %v, want %v", s.StddevB, want)
	}
	if LeafSizeStats(nil, 10).NumFiles != 0 {
		t.Error("empty stats wrong")
	}
}

func TestTreeStructureInvariants(t *testing.T) {
	// A deeper tree over a nonuniform 6x6x3 world still partitions the
	// ranks, and every leaf's bounds are exactly its members' union.
	rng := rand.New(rand.NewSource(9))
	ranks := gridRanks(6, 6, 3, func(_, _, _ int) int64 { return rng.Int63n(3000) + 1 })
	tr, err := Build(ranks, DefaultConfig(4000*bpp, bpp))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Leaves) < 8 {
		t.Fatalf("test misconfigured: only %d leaves", len(tr.Leaves))
	}
	checkPartition(t, ranks, tr)
}

func BenchmarkBuild1536Ranks(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ranks := gridRanks(16, 12, 8, func(ix, iy, iz int) int64 {
		// Nonuniform: dense near the origin corner.
		d := float64(ix+iy+iz) / 33.0
		return int64(100 + 30000*math.Exp(-4*d)*rng.Float64())
	})
	cfg := DefaultConfig(8<<20, 12+7*8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(ranks, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestIrregularOverlappingBounds(t *testing.T) {
	// Ranks need not form a grid: AMR-style decompositions give irregular,
	// differently sized, even overlapping boxes. The tree must still
	// partition every particle-owning rank exactly once.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(60)
		ranks := make([]RankInfo, n)
		for i := range ranks {
			lo := geom.V3(rng.Float64()*8, rng.Float64()*8, rng.Float64()*8)
			sz := geom.V3(0.2+rng.Float64()*2, 0.2+rng.Float64()*2, 0.2+rng.Float64()*2)
			ranks[i] = RankInfo{
				Rank:   i,
				Bounds: geom.NewBox(lo, lo.Add(sz)),
				Count:  rng.Int63n(5000),
			}
		}
		var total int64
		for _, r := range ranks {
			total += r.Count
		}
		if total == 0 {
			return true
		}
		tr, err := Build(ranks, DefaultConfig(total*bpp/7, bpp))
		if err != nil {
			return false
		}
		// Partition invariants (non-fatal variant of checkPartition).
		seen := map[int]bool{}
		var sum int64
		for _, l := range tr.Leaves {
			for _, r := range l.Ranks {
				if seen[r] {
					return false
				}
				seen[r] = true
				if !l.Bounds.ContainsBox(ranks[r].Bounds) {
					return false
				}
			}
			sum += l.Count
		}
		for _, r := range ranks {
			if (r.Count > 0) != seen[r.Rank] {
				return false
			}
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSingleRank(t *testing.T) {
	tr, err := Build([]RankInfo{{
		Rank:   0,
		Bounds: geom.NewBox(geom.V3(0, 0, 0), geom.V3(1, 1, 1)),
		Count:  1000,
	}}, DefaultConfig(10, bpp))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Leaves) != 1 || tr.Leaves[0].Count != 1000 {
		t.Errorf("single rank tree wrong: %+v", tr.Leaves)
	}
}
