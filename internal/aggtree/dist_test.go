package aggtree

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"libbat/internal/fabric"
	"libbat/internal/geom"
)

// distRanks generates one seeded rank layout of the given flavor. Every
// flavor the centralized build is known to handle — uniform grids, skewed
// counts, spatial clusters, coincident bounds, sparse active sets — must
// round-trip through the distributed build identically.
func distRanks(flavor string, size int, rng *rand.Rand) []RankInfo {
	ranks := make([]RankInfo, size)
	for r := range ranks {
		ranks[r].Rank = r
		switch flavor {
		case "uniform":
			// Regular slab decomposition along X, equal counts.
			lo := float64(r) / float64(size)
			hi := float64(r+1) / float64(size)
			ranks[r].Bounds = geom.NewBox(geom.V3(lo, 0, 0), geom.V3(hi, 1, 1))
			ranks[r].Count = 5000
		case "skewed":
			// Random boxes with power-law counts; some ranks empty.
			c := geom.V3(rng.Float64(), rng.Float64(), rng.Float64())
			w := rng.Float64() * 0.3
			ranks[r].Bounds = geom.NewBox(
				geom.V3(c.X-w, c.Y-w, c.Z-w), geom.V3(c.X+w, c.Y+w, c.Z+w))
			if rng.Intn(5) == 0 {
				ranks[r].Count = 0
			} else {
				ranks[r].Count = int64(1 + rng.Intn(100)*rng.Intn(100)*10)
			}
		case "clustered":
			// Two dense clusters far apart plus scattered outliers.
			var c geom.Vec3
			switch rng.Intn(3) {
			case 0:
				c = geom.V3(0.1+rng.Float64()*0.05, 0.1, 0.1)
			case 1:
				c = geom.V3(0.9, 0.9-rng.Float64()*0.05, 0.9)
			default:
				c = geom.V3(rng.Float64(), rng.Float64(), rng.Float64())
			}
			w := 0.01 + rng.Float64()*0.02
			ranks[r].Bounds = geom.NewBox(
				geom.V3(c.X-w, c.Y-w, c.Z-w), geom.V3(c.X+w, c.Y+w, c.Z+w))
			ranks[r].Count = int64(1000 + rng.Intn(9000))
		case "coincident":
			// Every rank shares identical bounds: no split can separate
			// them, forcing the overfull-root path.
			ranks[r].Bounds = geom.NewBox(geom.V3(0, 0, 0), geom.V3(1, 1, 1))
			ranks[r].Count = 3000
		}
	}
	return ranks
}

// runDistributed executes DistributedBuild across a simulated fabric and
// returns every rank's plan.
func runDistributed(t *testing.T, ranks []RankInfo, cfg DistConfig) []*DistPlan {
	t.Helper()
	plans := make([]*DistPlan, len(ranks))
	err := fabric.Run(len(ranks), func(c *fabric.Comm) error {
		p, err := DistributedBuild(c, ranks[c.Rank()], cfg)
		plans[c.Rank()] = p
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return plans
}

// checkEquivalence asserts every rank's distributed plan is the centralized
// oracle's: the same leaf count and total, the same leaf and aggregator for
// the rank, and the same leaves (index, bounds, count, overfull flag,
// members and their counts) for each aggregator. Together these cover every
// field of every oracle leaf.
func checkEquivalence(t *testing.T, label string, ranks []RankInfo, cfg DistConfig) {
	t.Helper()
	oracle, err := Build(ranks, cfg.Config)
	if err != nil {
		t.Fatalf("%s: oracle: %v", label, err)
	}
	oracleAgg := AssignAggregators(oracle.Leaves, len(ranks))
	var oracleTotal int64
	oracleLeaf := make(map[int]int)
	for i, l := range oracle.Leaves {
		oracleTotal += l.Count
		for _, r := range l.Ranks {
			oracleLeaf[r] = i
		}
	}

	plans := runDistributed(t, ranks, cfg)

	for r, p := range plans {
		if p.NumLeaves != len(oracle.Leaves) {
			t.Fatalf("%s: rank %d NumLeaves = %d, oracle %d", label, r, p.NumLeaves, len(oracle.Leaves))
		}
		if p.TotalCount != oracleTotal {
			t.Fatalf("%s: rank %d TotalCount = %d, oracle %d", label, r, p.TotalCount, oracleTotal)
		}
		wantLeaf, ok := oracleLeaf[r]
		if !ok {
			wantLeaf = -1
		}
		if p.OwnLeaf != wantLeaf {
			t.Fatalf("%s: rank %d OwnLeaf = %d, oracle %d", label, r, p.OwnLeaf, wantLeaf)
		}
		if p.OwnAggregator != oracleAgg[r] {
			t.Fatalf("%s: rank %d OwnAggregator = %d, oracle %d", label, r, p.OwnAggregator, oracleAgg[r])
		}
		// This rank's aggregated leaves must be exactly the oracle leaves
		// assigned to it, with matching sender lists and counts.
		var want []AggLeaf
		for i, l := range oracle.Leaves {
			if l.Aggregator != r {
				continue
			}
			counts := make([]int64, len(l.Ranks))
			for j, rr := range l.Ranks {
				counts[j] = ranks[rr].Count
			}
			want = append(want, AggLeaf{
				Index: i, Bounds: l.Bounds, Count: l.Count, Overfull: l.Overfull,
				Senders: append([]int(nil), l.Ranks...), Counts: counts,
			})
		}
		if len(p.AggLeaves) != len(want) {
			t.Fatalf("%s: rank %d aggregates %d leaves, oracle %d", label, r, len(p.AggLeaves), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(p.AggLeaves[i], want[i]) {
				t.Fatalf("%s: rank %d agg leaf %d differs:\n got %+v\nwant %+v",
					label, r, i, p.AggLeaves[i], want[i])
			}
		}
	}
}

// TestDistributedEquivalence is the seeded property test of the acceptance
// criteria: across world sizes 1..64, bounds distributions and
// consolidation thresholds, DistributedBuild must produce exactly the
// centralized plan. One 256-rank clustered world (not under -short) covers
// consolidation across many member ranks per node.
func TestDistributedEquivalence(t *testing.T) {
	sizes := []int{1, 2, 3, 5, 8, 13, 16, 32, 64}
	flavors := []string{"uniform", "skewed", "clustered", "coincident"}
	check := func(flavor string, size int, seed int64) {
		rng := rand.New(rand.NewSource(seed*7919 + int64(size)))
		ranks := distRanks(flavor, size, rng)
		// Target sized to yield a handful of leaves at this world size,
		// exercising both split and leaf paths.
		target := max(1, int64(size)*5000*bpp/7)
		cfg := DistConfig{Config: DefaultConfig(target, bpp)}
		// Vary the consolidation threshold with the seed; it may not change
		// the resulting plan.
		cfg.ConsolidateMembers = []int{1, 8}[int(seed)%2]
		label := fmt.Sprintf("size=%d flavor=%s seed=%d", size, flavor, seed)
		checkEquivalence(t, label, ranks, cfg)
	}
	for _, size := range sizes {
		for _, flavor := range flavors {
			for seed := int64(0); seed < 2; seed++ {
				check(flavor, size, seed)
			}
		}
	}
	if !testing.Short() {
		check("clustered", 256, 1)
	}
}

// TestDistributedEquivalenceConfigVariants covers the Config switches that
// change the oracle's own decisions: all-axes split search, no overfull
// leaves, tiny and huge targets.
func TestDistributedEquivalenceConfigVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ranks := distRanks("skewed", 24, rng)
	base := DefaultConfig(200*bpp, bpp)

	allAxes := base
	allAxes.BestSplitAllAxes = true
	noOverfull := base
	noOverfull.AllowOverfull = false
	tiny := base
	tiny.TargetFileSize = 1
	huge := base
	huge.TargetFileSize = 1 << 50

	for name, cc := range map[string]Config{
		"all-axes": allAxes, "no-overfull": noOverfull, "tiny": tiny, "huge": huge,
	} {
		cfg := DistConfig{Config: cc, ConsolidateMembers: 2}
		checkEquivalence(t, name, ranks, cfg)
	}
}

// TestDistributedEmptyWorld: a world with no particles anywhere must yield
// an empty plan on every rank, like the centralized build.
func TestDistributedEmptyWorld(t *testing.T) {
	ranks := distRanks("uniform", 8, rand.New(rand.NewSource(1)))
	for r := range ranks {
		ranks[r].Count = 0
	}
	plans := runDistributed(t, ranks, DistConfig{Config: DefaultConfig(1<<20, bpp)})
	for r, p := range plans {
		if p.TotalCount != 0 || p.NumLeaves != 0 || p.OwnLeaf != -1 || p.OwnAggregator != -1 || len(p.AggLeaves) != 0 {
			t.Fatalf("rank %d: non-empty plan %+v", r, p)
		}
	}
}

// TestDistributedValidatesConfig mirrors TestBuildValidatesConfig.
func TestDistributedValidatesConfig(t *testing.T) {
	err := fabric.Run(2, func(c *fabric.Comm) error {
		own := RankInfo{Rank: c.Rank(), Bounds: geom.NewBox(geom.V3(0, 0, 0), geom.V3(1, 1, 1)), Count: 10}
		if _, err := DistributedBuild(c, own, DistConfig{Config: Config{TargetFileSize: 0, BytesPerParticle: bpp}}); err == nil {
			return fmt.Errorf("zero target should error")
		}
		if _, err := DistributedBuild(c, own, DistConfig{Config: Config{TargetFileSize: 100, BytesPerParticle: 0}}); err == nil {
			return fmt.Errorf("zero bpp should error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDistributedPeakState asserts the point of the whole exercise: no
// rank's planning state grows with P. A rank holds its own record until a
// node consolidates onto it, and a node consolidates only at or below
// ConsolidateMembers members or when it is one leaf, so the per-rank peak is
// bounded by the larger of the two — the same number at 64 and 256 ranks.
func TestDistributedPeakState(t *testing.T) {
	cfg := DistConfig{
		Config:             DefaultConfig(2*5000*bpp, bpp), // ~2 ranks per leaf
		ConsolidateMembers: 16,
	}
	for _, size := range []int{64, 256} {
		ranks := distRanks("uniform", size, rand.New(rand.NewSource(9)))
		oracle, err := Build(ranks, cfg.Config)
		if err != nil {
			t.Fatal(err)
		}
		bound := cfg.ConsolidateMembers
		for _, l := range oracle.Leaves {
			bound = max(bound, len(l.Ranks))
		}
		if bound != cfg.ConsolidateMembers {
			t.Fatalf("size %d: test misconfigured: bound %d depends on the world size", size, bound)
		}
		plans := runDistributed(t, ranks, cfg)
		for r, p := range plans {
			if p.Stats.PeakMembers < 1 || p.Stats.PeakMembers > bound {
				t.Errorf("size %d: rank %d peak planning state %d outside [1, %d]",
					size, r, p.Stats.PeakMembers, bound)
			}
		}
	}
}
