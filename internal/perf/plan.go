package perf

import "time"

// PlanParams holds the wire and protocol constants of the write pipeline's
// planning phase (phase a) for the cost models. The byte sizes mirror the
// actual encodings in internal/aggtree: a rank info record is 60 B on the
// wire, a split-probe lane 24 B.
type PlanParams struct {
	// InfoBytes is one rank's {rank, count, bounds} record.
	InfoBytes int
	// AssignBytes is one rank's assignment message (leaf + aggregator,
	// with framing).
	AssignBytes int
	// ProbeBytes is one collective split-probe lane.
	ProbeBytes int
	// RoundsPerNode is the number of collective probe rounds one refined
	// split node costs: two bit-bisections of ~64 probes per axis tried,
	// and a node whose longest axis separates nothing tries another.
	// Measured at 512 ranks it is 104–179 by layout; 200 keeps the modeled
	// crossover on the side of the planner that is faster wherever both
	// can be run.
	RoundsPerNode int
	// ConsolidateMembers is the refinement frontier: nodes at or below
	// this member count consolidate to one owner and finish serially.
	ConsolidateMembers int
}

// DefaultPlanParams matches aggtree.DistributedBuild's defaults and the
// encodings in internal/aggtree/dist.go.
func DefaultPlanParams() PlanParams {
	return PlanParams{
		InfoBytes:          60,
		AssignBytes:        48,
		ProbeBytes:         24,
		RoundsPerNode:      200,
		ConsolidateMembers: 32,
	}
}

// PlanCost breaks one planning phase into its legs. A centralized plan
// fills Gather/Build/Scatter; a distributed plan fills the other three.
type PlanCost struct {
	// Centralized legs.
	Gather  time.Duration // all rank infos funneled into rank 0
	Build   time.Duration // serial aggregation-tree build on rank 0
	Scatter time.Duration // assignments scattered back out

	// Distributed legs.
	Reduce  time.Duration // root node's stats allreduce: the global census
	Refine  time.Duration // collective split refinement + frontier builds
	Deliver time.Duration // leaf assignments and summaries delivered p2p
}

// Total sums the legs.
func (c PlanCost) Total() time.Duration {
	return c.Gather + c.Build + c.Scatter +
		c.Reduce + c.Refine + c.Deliver
}

// log2Ceil returns ceil(log2(n)) for n >= 1.
func log2Ceil(n int) int {
	d := 0
	for v := 1; v < n; v <<= 1 {
		d++
	}
	return d
}

// allreduceTime models one small allreduce over n ranks: a reduction up a
// binomial tree plus a broadcast back down.
func (p Profile) allreduceTime(n, bytes int) time.Duration {
	if n <= 1 {
		return 0
	}
	d := log2Ceil(n)
	return time.Duration(2*d)*p.NetLatency +
		seconds(float64(2*d*bytes)/p.NICBandwidth)
}

// ModelCentralizedPlan charges the paper's original phase (a): every rank's
// info record crosses rank 0's NIC, rank 0 builds the whole tree serially,
// and every assignment crosses back out. All three legs are Θ(n) in the
// world size — the planning bottleneck the distributed protocol removes.
func (p Profile) ModelCentralizedPlan(n int, pp PlanParams) PlanCost {
	var c PlanCost
	if n <= 0 {
		return c
	}
	d := time.Duration(log2Ceil(n)) * p.NetLatency
	c.Gather = d + seconds(float64(n*pp.InfoBytes)/p.NICBandwidth)
	c.Build = seconds(float64(n) / p.TreeBuildRate)
	c.Scatter = d + seconds(float64(n*pp.AssignBytes)/p.NICBandwidth)
	return c
}

// ModelDistributedPlan charges the distributed protocol (DESIGN §14: one
// replicated refinement over records that stay on their ranks, whose root
// stats allreduce is the global census) on a real interconnect for a world
// of n ranks producing files leaves.
//
// The refinement leg models the protocol's critical path: sibling subtrees
// touch disjoint member sets, so an MPI implementation refines
// them on split sub-communicators concurrently and the critical path is one
// root-to-frontier chain — levels = ceil(log2(n/C)) levels, each costing
// RoundsPerNode probe allreduces over a communicator that halves per level.
// That makes the leg O(log^2 n) where the centralized plan is Θ(n). (The
// in-process simulation fabric has no sub-communicators and serializes
// sibling collectives, so measured small-world times sit above this model;
// the model describes the interconnect behavior the paper's systems would
// see.) No leg has a wire term that grows with n.
func (p Profile) ModelDistributedPlan(n, files int, pp PlanParams) PlanCost {
	var c PlanCost
	if n <= 0 {
		return c
	}
	if files < 1 {
		files = 1
	}

	// The root node's stats allreduce — count, members, lowest member and
	// bounds over all n ranks — which every other leg waits for. Charged at
	// a 64 B lane; the record is 72 B, a difference the model does not
	// resolve.
	c.Reduce = p.allreduceTime(n, 64)

	// Refinement critical path, plus the serial build of one frontier
	// subtree on its owner.
	levels := log2Ceil(max(1, n/max(1, pp.ConsolidateMembers)))
	for l := 0; l < levels; l++ {
		sub := max(2, n>>l)
		c.Refine += time.Duration(pp.RoundsPerNode+1) * p.allreduceTime(sub, pp.ProbeBytes)
	}
	c.Refine += seconds(float64(pp.ConsolidateMembers) / p.TreeBuildRate)

	// Delivery: an owner walks its leaves, sending each member its
	// assignment and each aggregator its leaf summary; a rank aggregates
	// ~files/n leaves.
	perAgg := files/n + 1
	c.Deliver = time.Duration(perAgg+1)*p.NetLatency +
		seconds(float64(perAgg*(pp.InfoBytes+pp.AssignBytes))/p.NICBandwidth)
	return c
}

// PlanCrossover scans power-of-two world sizes in [lo, hi] and returns the
// first at which the distributed plan models faster than the centralized
// one, or 0 if the centralized plan wins everywhere in range. filesPerRank
// holds the output file count proportional to the world, matching the weak
// scaling regime.
func (p Profile) PlanCrossover(pp PlanParams, filesPerRank float64, lo, hi int) int {
	for n := lo; n <= hi; n *= 2 {
		files := max(1, int(filesPerRank*float64(n)))
		if p.ModelDistributedPlan(n, files, pp).Total() < p.ModelCentralizedPlan(n, pp).Total() {
			return n
		}
	}
	return 0
}
