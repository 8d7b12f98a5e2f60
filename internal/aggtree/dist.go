// Distributed aggregation-tree construction. DistributedBuild produces,
// collectively across all fabric ranks, exactly the plan the centralized
// Build would compute from the gathered rank infos — same leaves, same
// aggregator assignments, bit-identical split planes — while no rank ever
// materializes all P rank infos. A rank's peak planning state is
// max(ConsolidateMembers, members of one leaf), independent of P.
//
// The construction (DESIGN §14) is one replicated top-down recursion over
// the tree. Every rank carries only its own record and whether it is a
// member of the current node: per-node aggregates come from an Allreduce
// (the root's is the global census: total count, active ranks, domain),
// nodes small enough to finish serially are consolidated onto their lowest
// member rank and built there by the serial oracle buildRec, and the others
// find their exact split plane through collective bit-pattern bisection
// (distrefine.go). Leaf numbering falls out of the shared depth-first
// order, so assignments are delivered point-to-point without any central
// fan-in.
package aggtree

import (
	"encoding/binary"
	"fmt"
	"math"

	"libbat/internal/fabric"
	"libbat/internal/geom"
)

// DistConfig controls the distributed build. The embedded Config must match
// the centralized build's exactly for the equivalence guarantee to hold;
// ConsolidateMembers only trades collective rounds against the size of the
// serially finished subtrees and never changes the resulting plan.
type DistConfig struct {
	Config
	// ConsolidateMembers is the member-count threshold at or below which a
	// node is consolidated onto its lowest member rank and finished
	// serially instead of split collectively. Default 32.
	ConsolidateMembers int
}

// AggLeaf is one leaf this rank aggregates: the member ranks and counts an
// aggregator would receive and the bounds of the file it would write. The
// write pipeline plans centrally and does not read it; only the
// equivalence tests do.
type AggLeaf struct {
	// Index is the leaf's global index in depth-first tree order.
	Index int
	// Bounds is the union of the member ranks' bounds.
	Bounds geom.Box
	// Count is the total particle count of the leaf.
	Count int64
	// Overfull records whether the leaf was created by the overfull rule.
	Overfull bool
	// Senders lists the member ranks (ascending) and Counts their particle
	// counts, parallel to Senders.
	Senders []int
	Counts  []int64
}

// DistStats reports how the distributed construction went on this rank.
type DistStats struct {
	// PeakMembers is the largest number of rank infos this rank held at any
	// point — at most max(ConsolidateMembers, members of one leaf), the
	// planning-state bound under test.
	PeakMembers int
	// Rounds counts the Allreduce rounds the refinement recursion used.
	Rounds int
}

// DistPlan is one rank's view of the collectively built plan. Its consumers
// are the equivalence tests, which diff it against Build, and the
// benchmark's planning probe, which reads Stats; core.Write plans centrally.
type DistPlan struct {
	// TotalCount is the global particle count.
	TotalCount int64
	// NumLeaves is the number of leaves (output files) in the tree.
	NumLeaves int
	// OwnLeaf is the global index of the leaf containing this rank, or -1
	// when the rank has no particles.
	OwnLeaf int
	// OwnAggregator is the aggregator rank this rank sends its data to, or
	// -1 when it has no particles.
	OwnAggregator int
	// AggLeaves lists the leaves this rank aggregates, ascending by index.
	AggLeaves []AggLeaf
	// Stats describes the construction itself.
	Stats DistStats
}

// localSub is a subtree this rank owns: the serial-oracle-built leaves,
// the global index of the first, and the records they were built from.
type localSub struct {
	leaves     []Leaf
	leafOffset int
	members    []RankInfo
}

// Reserved point-to-point tag block for the distributed build, above the
// write pipeline's small tags and below the fabric collective tags.
const (
	tagDistConsolidate = 1<<28 + iota
	tagDistAssign
	tagDistAggLeaf
)

// A RankInfo is 60 bytes on the wire: rank, count, bounds.
func appendRankInfo(buf []byte, r RankInfo) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Rank))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Count))
	return appendBox(buf, r.Bounds)
}

func decodeRankInfo(b []byte) RankInfo {
	return RankInfo{
		Rank:   int(binary.LittleEndian.Uint32(b)),
		Count:  int64(binary.LittleEndian.Uint64(b[4:])),
		Bounds: decodeBox(b[12:]),
	}
}

// DistributedBuild collectively constructs the aggregation-tree plan. All
// ranks of the fabric must call it with the same cfg; own describes the
// calling rank's contribution (own.Rank must equal c.Rank()). The returned
// plan is provably identical to what Build + AssignAggregators would
// produce centrally from the same inputs.
func DistributedBuild(c *fabric.Comm, own RankInfo, cfg DistConfig) (*DistPlan, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if own.Rank != c.Rank() {
		return nil, fmt.Errorf("aggtree: own.Rank %d != fabric rank %d", own.Rank, c.Rank())
	}
	if cfg.ConsolidateMembers <= 0 {
		cfg.ConsolidateMembers = 32
	}

	d := &distBuilder{c: c, cfg: cfg, own: own, size: c.Size(), peak: 1}
	plan := &DistPlan{OwnLeaf: -1, OwnAggregator: -1}
	d.refineRoot(plan) // distrefine.go
	plan.Stats = DistStats{PeakMembers: d.peak, Rounds: d.rounds}
	return plan, nil
}

// distBuilder carries the per-rank state of one distributed build. peak
// starts at 1: every rank holds its own record throughout.
type distBuilder struct {
	c      *fabric.Comm
	cfg    DistConfig
	own    RankInfo
	size   int
	rounds int
	peak   int
	subs   []localSub // subtrees delegated to this rank, in leaf order
}

func appendBox(buf []byte, b geom.Box) []byte {
	for _, f := range [6]float64{
		b.Lower.X, b.Lower.Y, b.Lower.Z,
		b.Upper.X, b.Upper.Y, b.Upper.Z,
	} {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	return buf
}

func decodeBox(buf []byte) geom.Box {
	f := func(o int) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(buf[o:]))
	}
	return geom.Box{
		Lower: geom.V3(f(0), f(8), f(16)),
		Upper: geom.V3(f(24), f(32), f(40)),
	}
}
