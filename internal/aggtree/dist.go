// Distributed aggregation-tree construction. DistributedBuild produces,
// collectively across all fabric ranks, exactly the plan the centralized
// Build would compute from the gathered rank infos — same leaves, same
// aggregator assignments, bit-identical split planes — while no rank ever
// materializes all P rank infos. A rank's peak planning state is
// max(ConsolidateMembers, members of one leaf), independent of P.
//
// The construction (DESIGN §14) runs in two phases:
//
//  1. A tree Allreduce agrees on the global domain, total particle count,
//     and active-rank count.
//  2. All ranks walk one replicated top-down recursion over the tree, each
//     carrying only its own record and whether it is a member of the
//     current node: per-node aggregates come from an Allreduce, nodes small
//     enough to finish serially are consolidated onto their lowest member
//     rank and built there by the serial oracle buildRec, and the others
//     find their exact split plane through collective bit-pattern bisection
//     (distrefine.go). Leaf numbering falls out of the shared depth-first
//     order, so assignments are delivered point-to-point without any
//     central fan-in.
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

// AggLeaf is one leaf this rank aggregates: everything the write pipeline
// needs to receive the member ranks' data and write the output file.
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

// DistPlan is one rank's view of the collectively built plan.
type DistPlan struct {
	// Domain is the union of all active ranks' bounds.
	Domain geom.Box
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

	// Skeleton and owned subtree fragments, kept for AssembleTree.
	skel []skelNode
	subs []localSub
	size int
}

// skelNode is one node of the replicated tree skeleton. Split nodes carry
// the collectively agreed split; sub nodes delegate a whole subtree to one
// owner rank and record how many leaves it contributed.
type skelNode struct {
	split       bool
	axis        geom.Axis
	pos         float64
	bounds      geom.Box
	count       int64
	left, right int // skeleton indices, split nodes only
	owner       int // sub nodes only
	leaves      int // sub nodes only
}

// localSub is a subtree this rank owns: the serial-oracle-built root plus
// its position in the global plan.
type localSub struct {
	skelIdx    int
	root       *buildNode
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
	if cfg.TargetFileSize <= 0 {
		return nil, fmt.Errorf("aggtree: target file size must be positive, got %d", cfg.TargetFileSize)
	}
	if cfg.BytesPerParticle <= 0 {
		return nil, fmt.Errorf("aggtree: bytes per particle must be positive, got %d", cfg.BytesPerParticle)
	}
	if own.Rank != c.Rank() {
		return nil, fmt.Errorf("aggtree: own.Rank %d != fabric rank %d", own.Rank, c.Rank())
	}
	if cfg.ConsolidateMembers <= 0 {
		cfg.ConsolidateMembers = 32
	}

	d := &distBuilder{c: c, cfg: cfg, own: own, size: c.Size(), peak: 1}

	// Phase 1: global domain, total count, active-rank count.
	active := own.Count > 0
	rec := make([]byte, 0, 8*8)
	rec = binary.LittleEndian.AppendUint64(rec, uint64(own.Count))
	if active {
		rec = binary.LittleEndian.AppendUint64(rec, 1)
	} else {
		rec = binary.LittleEndian.AppendUint64(rec, 0)
	}
	b := own.Bounds
	if !active {
		b = geom.EmptyBox()
	}
	rec = appendBox(rec, b)
	out := c.Allreduce(rec, combineGlobal)
	d.rounds++
	total := int64(binary.LittleEndian.Uint64(out))
	activeRanks := int64(binary.LittleEndian.Uint64(out[8:]))
	domain := decodeBox(out[16:])

	plan := &DistPlan{
		Domain:        domain,
		TotalCount:    total,
		OwnLeaf:       -1,
		OwnAggregator: -1,
		size:          d.size,
	}
	if activeRanks == 0 {
		return plan, nil
	}

	// Phase 2: replicated top-down refinement (distrefine.go).
	d.refineRoot(active, plan)

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

// combineGlobal folds two phase-1 records: counts sum, bounds union.
func combineGlobal(acc, next []byte) []byte {
	a := binary.LittleEndian.Uint64(acc) + binary.LittleEndian.Uint64(next)
	binary.LittleEndian.PutUint64(acc, a)
	a = binary.LittleEndian.Uint64(acc[8:]) + binary.LittleEndian.Uint64(next[8:])
	binary.LittleEndian.PutUint64(acc[8:], a)
	ab := decodeBox(acc[16:])
	nb := decodeBox(next[16:])
	u := ab.Union(nb)
	box := appendBox(acc[:16], u)
	return box
}
