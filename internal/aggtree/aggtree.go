// Package aggtree implements the paper's central contribution: the adaptive
// Aggregation Tree (§III-A). Rank 0 builds a k-d tree over the ranks'
// spatial bounds so that each leaf holds a similar number of particles.
// Splits are restricted to rank boundaries (a rank's data is never divided
// between aggregators), the split minimizing the imbalance cost
// c = |0.5 - n_l/(n_l+n_r)| is chosen, and leaves are created when a node's
// data falls below the target file size — optionally allowing "overfull"
// leaves when no acceptable split exists. Each leaf is assigned to an
// aggregator rank, spread evenly through the rank space to even out network
// utilization (paper [39]).
package aggtree

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"libbat/internal/geom"
)

// RankInfo describes one rank's contribution to a write: its spatial bounds
// in the simulation domain and the number of particles it owns.
type RankInfo struct {
	Rank   int
	Bounds geom.Box
	Count  int64
}

// Config controls the tree build.
type Config struct {
	// TargetFileSize is the desired output file size in bytes; a node whose
	// data fits under it becomes a leaf. This is the paper's main tunable:
	// it trades file count against aggregation network traffic.
	TargetFileSize int64
	// BytesPerParticle converts particle counts to data sizes.
	BytesPerParticle int
	// AllowOverfull enables overfull leaves: when the best split's balance
	// ratio is at least SplitCostThreshold and the node's data is within
	// OverfullFactor of the target, a leaf is created instead of forcing a
	// badly imbalanced split.
	AllowOverfull bool
	// OverfullFactor bounds overfull leaves to OverfullFactor*TargetFileSize
	// (paper evaluation uses 1.5).
	OverfullFactor float64
	// SplitCostThreshold is the balance ratio max(n_l,n_r)/min(n_l,n_r) at
	// or above which a split is considered bad (paper evaluation uses 4).
	SplitCostThreshold float64
	// BestSplitAllAxes searches all three axes for the lowest-cost split
	// instead of only the longest axis (paper §III-A option).
	BestSplitAllAxes bool
	// Parallel enables the top-down parallel build (a task per right
	// subtree, as the paper does with TBB).
	Parallel bool
}

// DefaultConfig returns the configuration used by the paper's evaluation:
// overfull leaves up to 1.5x the target when the best split has a balance
// ratio of 4 or higher.
func DefaultConfig(targetFileSize int64, bytesPerParticle int) Config {
	return Config{
		TargetFileSize:     targetFileSize,
		BytesPerParticle:   bytesPerParticle,
		AllowOverfull:      true,
		OverfullFactor:     1.5,
		SplitCostThreshold: 4,
		Parallel:           true,
	}
}

// Leaf is a set of ranks aggregated into one output file.
type Leaf struct {
	// Bounds is the union of the member ranks' bounds.
	Bounds geom.Box
	// Ranks lists the member ranks (ascending).
	Ranks []int
	// Count is the total number of particles in the leaf.
	Count int64
	// Aggregator is the rank assigned to receive and write this leaf.
	Aggregator int
	// Overfull records whether the leaf was created by the overfull rule.
	Overfull bool
}

// Bytes returns the leaf's data size under the given schema.
func (l Leaf) Bytes(bytesPerParticle int) int64 {
	return l.Count * int64(bytesPerParticle)
}

// Tree is the adaptive aggregation tree as its consumers see it: the
// leaves in depth-first (left-to-right spatial) order, the order that
// numbers the output files. No split plane is kept.
type Tree struct {
	Leaves []Leaf
}

// validate rejects a config no build can use.
func (cfg Config) validate() error {
	if cfg.TargetFileSize <= 0 {
		return fmt.Errorf("aggtree: target file size must be positive, got %d", cfg.TargetFileSize)
	}
	if cfg.BytesPerParticle <= 0 {
		return fmt.Errorf("aggtree: bytes per particle must be positive, got %d", cfg.BytesPerParticle)
	}
	return nil
}

// Build constructs the aggregation tree from per-rank particle counts and
// bounds. Ranks with zero particles are excluded (their transfer is skipped
// during aggregation). The returned tree has at least one leaf if any rank
// has particles.
func Build(ranks []RankInfo, cfg Config) (*Tree, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	active := make([]RankInfo, 0, len(ranks))
	for _, r := range ranks {
		if r.Count > 0 {
			active = append(active, r)
		}
	}
	if len(active) == 0 {
		return &Tree{}, nil
	}
	return &Tree{Leaves: buildRec(active, cfg, 0)}, nil
}

// totalCount sums the particle counts of a rank set.
func totalCount(ranks []RankInfo) int64 {
	var n int64
	for _, r := range ranks {
		n += r.Count
	}
	return n
}

// unionBounds returns the union of the ranks' bounds.
func unionBounds(ranks []RankInfo) geom.Box {
	b := geom.EmptyBox()
	for _, r := range ranks {
		b = b.Union(r.Bounds)
	}
	return b
}

// splitResult captures one evaluated candidate split.
type splitResult struct {
	axis   geom.Axis
	pos    float64
	cost   float64 // |0.5 - n_l/(n_l+n_r)|
	ratio  float64 // max(n_l,n_r)/min(n_l,n_r); +Inf when a side is empty
	nl, nr int64
	ok     bool
}

// evaluateAxis finds the best candidate split along one axis. Candidates are
// the unique edges of each rank's bounds along the axis; a rank falls left
// when its center is below the split position, so no rank's data is divided.
func evaluateAxis(ranks []RankInfo, axis geom.Axis) splitResult {
	edges := make([]float64, 0, 2*len(ranks))
	for _, r := range ranks {
		edges = append(edges, r.Bounds.Lower.Component(axis), r.Bounds.Upper.Component(axis))
	}
	sort.Float64s(edges)
	// Deduplicate.
	uniq := edges[:0]
	for i, e := range edges {
		if i == 0 || e != edges[i-1] {
			uniq = append(uniq, e)
		}
	}
	best := splitResult{axis: axis, cost: math.Inf(1), ratio: math.Inf(1)}
	for _, pos := range uniq {
		var nl, nr int64
		var leftRanks, rightRanks int
		for _, r := range ranks {
			if r.Bounds.Center().Component(axis) < pos {
				nl += r.Count
				leftRanks++
			} else {
				nr += r.Count
				rightRanks++
			}
		}
		if leftRanks == 0 || rightRanks == 0 {
			continue // split separates nothing
		}
		cost := math.Abs(0.5 - float64(nl)/float64(nl+nr))
		if cost < best.cost {
			ratio := math.Inf(1)
			if nl > 0 && nr > 0 {
				ratio = float64(max(nl, nr)) / float64(min(nl, nr))
			}
			best = splitResult{axis: axis, pos: pos, cost: cost, ratio: ratio, nl: nl, nr: nr, ok: true}
		}
	}
	return best
}

// parallelDepth bounds goroutine spawning during the parallel build.
const parallelDepth = 6

// buildRec returns the leaves of the subtree over ranks in depth-first
// order: one leaf, or its left subtree's leaves followed by its right's.
func buildRec(ranks []RankInfo, cfg Config, depth int) []Leaf {
	count := totalCount(ranks)
	bytes := count * int64(cfg.BytesPerParticle)
	bounds := unionBounds(ranks)
	makeLeaf := func(overfull bool) []Leaf {
		ids := make([]int, len(ranks))
		for i, r := range ranks {
			ids[i] = r.Rank
		}
		sort.Ints(ids)
		return []Leaf{{Bounds: bounds, Ranks: ids, Count: count, Overfull: overfull}}
	}
	if bytes <= cfg.TargetFileSize || len(ranks) == 1 {
		return makeLeaf(false)
	}
	// Find the best split: longest axis by default, all axes optionally.
	// If the preferred axis has no separating rank edge (e.g. a 1D rank
	// decomposition whose longest aggregate axis is unpartitioned), fall
	// back to the remaining axes rather than giving up.
	best := evaluateAxis(ranks, bounds.LongestAxis())
	for _, axis := range []geom.Axis{geom.X, geom.Y, geom.Z} {
		if axis == bounds.LongestAxis() {
			continue
		}
		if !cfg.BestSplitAllAxes && best.ok {
			break
		}
		if s := evaluateAxis(ranks, axis); s.ok && (!best.ok || s.cost < best.cost) {
			best = s
		}
	}
	if !best.ok {
		// No split separates the ranks (e.g. identical bounds); aggregate
		// them together even though the target is exceeded.
		return makeLeaf(true)
	}
	// Overfull rule: avoid forcing an extremely imbalanced split when the
	// node is already close to the target size.
	if cfg.AllowOverfull &&
		best.ratio >= cfg.SplitCostThreshold &&
		float64(bytes) <= cfg.OverfullFactor*float64(cfg.TargetFileSize) {
		return makeLeaf(true)
	}
	var left, right []RankInfo
	for _, r := range ranks {
		if r.Bounds.Center().Component(best.axis) < best.pos {
			left = append(left, r)
		} else {
			right = append(right, r)
		}
	}
	var l, r []Leaf
	if cfg.Parallel && depth < parallelDepth {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			r = buildRec(right, cfg, depth+1)
		}()
		l = buildRec(left, cfg, depth+1)
		wg.Wait()
	} else {
		l = buildRec(left, cfg, depth+1)
		r = buildRec(right, cfg, depth+1)
	}
	return append(l, r...)
}

// AssignAggregators assigns each leaf in the slice to an aggregator rank,
// spreading assignments evenly across the rank space (shared by the
// adaptive tree and the AUG baseline so both are compared under the same
// aggregator placement policy). It mutates the leaves' Aggregator fields
// and returns the per-rank aggregator view (-1 for ranks without
// particles).
func AssignAggregators(leaves []Leaf, worldSize int) []int {
	agg := make([]int, worldSize)
	for i := range agg {
		agg[i] = -1
	}
	n := len(leaves)
	for i := range leaves {
		// Spread leaf i's aggregator evenly through the rank space.
		leaves[i].Aggregator = i * worldSize / n
		for _, r := range leaves[i].Ranks {
			agg[r] = leaves[i].Aggregator
		}
	}
	return agg
}

// SizeStats summarizes leaf data sizes for the §VI-A.2 file statistics.
type SizeStats struct {
	NumFiles int
	MeanB    float64
	StddevB  float64
	MaxB     int64
	MinB     int64
}

// LeafSizeStats computes output file size statistics under the schema.
func LeafSizeStats(leaves []Leaf, bytesPerParticle int) SizeStats {
	s := SizeStats{NumFiles: len(leaves)}
	if len(leaves) == 0 {
		return s
	}
	s.MinB = math.MaxInt64
	var sum, sumSq float64
	for _, l := range leaves {
		b := l.Bytes(bytesPerParticle)
		sum += float64(b)
		sumSq += float64(b) * float64(b)
		if b > s.MaxB {
			s.MaxB = b
		}
		if b < s.MinB {
			s.MinB = b
		}
	}
	n := float64(len(leaves))
	s.MeanB = sum / n
	variance := sumSq/n - s.MeanB*s.MeanB
	if variance > 0 {
		s.StddevB = math.Sqrt(variance)
	}
	return s
}
