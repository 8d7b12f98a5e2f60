// Phase 2 of the distributed build: the replicated top-down refinement.
//
// Every rank walks the same recursion over the forming tree, carrying its
// own record and an "am I a member of this node" flag. Per-node aggregates
// (count, member count, lowest member, bounds) come from one Allreduce, so
// every rank reaches the same classification from the same numbers the
// serial oracle would see:
//
//   - nodes passing the oracle leaf test and nodes whose member count has
//     shrunk to ConsolidateMembers or below are consolidated onto their
//     lowest member rank and finished locally by the unmodified serial
//     buildRec — the subtree is oracle-built on the exact member multiset,
//     so equivalence there is by construction;
//   - the remaining nodes find the serial algorithm's exact split plane
//     through collective bisection over float bit space (evalAxis below),
//     and each member picks the child its own center falls in.
//
// The recursion's depth-first order doubles as the global leaf numbering,
// so once it finishes every owner knows its leaves' global indices and
// delivers assignments point-to-point — no central fan-in anywhere.
package aggtree

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"sort"

	"libbat/internal/fabric"
	"libbat/internal/geom"
)

// nodeStats are the collectively agreed aggregates of one node.
type nodeStats struct {
	count     int64 // total particles
	members   int64 // member ranks
	minMember int   // lowest member rank
	bounds    geom.Box
}

func (d *distBuilder) nodeStats(in bool) nodeStats {
	cnt, members, minMember, b := int64(0), 0, d.size, geom.EmptyBox()
	if in {
		cnt, members, minMember, b = d.own.Count, 1, d.own.Rank, d.own.Bounds
	}
	rec := make([]byte, 0, 3*8+6*8)
	rec = binary.LittleEndian.AppendUint64(rec, uint64(cnt))
	rec = binary.LittleEndian.AppendUint64(rec, uint64(members))
	rec = binary.LittleEndian.AppendUint64(rec, uint64(minMember))
	rec = appendBox(rec, b)
	out := d.c.Allreduce(rec, combineNodeStats)
	d.rounds++
	return nodeStats{
		count:     int64(binary.LittleEndian.Uint64(out)),
		members:   int64(binary.LittleEndian.Uint64(out[8:])),
		minMember: int(binary.LittleEndian.Uint64(out[16:])),
		bounds:    decodeBox(out[24:]),
	}
}

func combineNodeStats(acc, next []byte) []byte {
	addAt := func(o int) {
		s := binary.LittleEndian.Uint64(acc[o:]) + binary.LittleEndian.Uint64(next[o:])
		binary.LittleEndian.PutUint64(acc[o:], s)
	}
	addAt(0)
	addAt(8)
	if binary.LittleEndian.Uint64(next[16:]) < binary.LittleEndian.Uint64(acc[16:]) {
		binary.LittleEndian.PutUint64(acc[16:], binary.LittleEndian.Uint64(next[16:]))
	}
	u := decodeBox(acc[24:]).Union(decodeBox(next[24:]))
	return appendBox(acc[:24], u)
}

// refineRoot drives the replicated recursion and the assignment delivery.
func (d *distBuilder) refineRoot(active bool, plan *DistPlan) {
	leafCounter := 0
	d.refineNode(active, plan, &leafCounter)
	plan.NumLeaves = leafCounter
	d.deliver(plan)
}

// refineNode processes one node; every rank calls it with whether it is a
// member, and all ranks return the same skeleton index. The classification
// mirrors buildRec's decision order exactly; consolidated subtrees re-run
// buildRec on the full member multiset, so a node that consolidates because
// the collective already knows it is a leaf (or overfull) reproduces
// precisely that leaf.
func (d *distBuilder) refineNode(in bool, plan *DistPlan, leafCounter *int) int {
	st := d.nodeStats(in)
	nodeBytes := st.count * int64(d.cfg.BytesPerParticle)
	leafTest := nodeBytes <= d.cfg.TargetFileSize || st.members == 1
	if leafTest || st.members <= int64(d.cfg.ConsolidateMembers) {
		return d.delegate(d.consolidate(in, st), st, plan, leafCounter)
	}
	best := d.collectiveSplit(in, st)
	if !best.ok ||
		(d.cfg.AllowOverfull &&
			best.ratio >= d.cfg.SplitCostThreshold &&
			float64(nodeBytes) <= d.cfg.OverfullFactor*float64(d.cfg.TargetFileSize)) {
		// The serial oracle would make this node an (overfull) leaf; let
		// the delegated buildRec reach the same verdict from the same data.
		return d.delegate(d.consolidate(in, st), st, plan, leafCounter)
	}
	goesLeft := d.own.Bounds.Center().Component(best.axis) < best.pos
	me := len(plan.skel)
	plan.skel = append(plan.skel, skelNode{
		split: true, axis: best.axis, pos: best.pos,
		bounds: st.bounds, count: st.count,
	})
	l := d.refineNode(in && goesLeft, plan, leafCounter)
	r := d.refineNode(in && !goesLeft, plan, leafCounter)
	plan.skel[me].left, plan.skel[me].right = l, r
	return me
}

// consolidate moves every member's record for the current node onto the
// node's lowest member and returns the gathered records there (nil
// elsewhere). Sends are buffered and the receiver knows the exact member
// count from the stats Allreduce, so the exchange cannot deadlock or mix
// with a later node's (every sender re-synchronizes at the next collective
// before it can send again).
func (d *distBuilder) consolidate(in bool, st nodeStats) []RankInfo {
	if !in {
		return nil
	}
	if d.own.Rank != st.minMember {
		d.c.Send(st.minMember, tagDistConsolidate, appendRankInfo(nil, d.own))
		return nil
	}
	mine := make([]RankInfo, 1, st.members)
	mine[0] = d.own
	for int64(len(mine)) < st.members {
		buf, _ := d.c.Recv(fabric.AnySource, tagDistConsolidate)
		mine = append(mine, decodeRankInfo(buf))
	}
	d.peak = max(d.peak, len(mine))
	return mine
}

// delegate finishes the node's whole subtree on its consolidated owner with
// the serial oracle, and broadcasts the subtree's leaf count so every rank
// advances the shared depth-first numbering.
func (d *distBuilder) delegate(mine []RankInfo, st nodeStats, plan *DistPlan, leafCounter *int) int {
	me := len(plan.skel)
	owner := d.own.Rank == st.minMember
	var root *buildNode
	var buf []byte
	if owner {
		root = buildRec(mine, d.cfg.Config, 0)
		buf = binary.LittleEndian.AppendUint64(nil, uint64(countLeaves(root)))
	}
	out := d.c.Bcast(st.minMember, buf)
	d.rounds++
	leaves := int(binary.LittleEndian.Uint64(out))
	plan.skel = append(plan.skel, skelNode{
		owner: st.minMember, leaves: leaves, bounds: st.bounds, count: st.count,
	})
	if owner {
		plan.subs = append(plan.subs, localSub{
			skelIdx: me, root: root, leafOffset: *leafCounter, members: mine,
		})
	}
	*leafCounter += leaves
	return me
}

func countLeaves(n *buildNode) int {
	if n.leaf != nil {
		return 1
	}
	return countLeaves(n.left) + countLeaves(n.right)
}

// walkLeaves visits the subtree's leaves in depth-first (left-to-right)
// order — the same order flatten numbers them.
func walkLeaves(n *buildNode, fn func(*Leaf)) {
	if n.leaf != nil {
		fn(n.leaf)
		return
	}
	walkLeaves(n.left, fn)
	walkLeaves(n.right, fn)
}

// collectiveSplit mirrors Build's axis-selection loop: longest axis first,
// the remaining axes only as fallback (or all of them under
// BestSplitAllAxes), cross-axis winner by strictly smaller cost. All
// comparisons use values replicated by the probes, so every rank picks the
// same split.
func (d *distBuilder) collectiveSplit(in bool, st nodeStats) splitResult {
	longest := st.bounds.LongestAxis()
	best := d.evalAxis(in, st, longest)
	for _, axis := range []geom.Axis{geom.X, geom.Y, geom.Z} {
		if axis == longest {
			continue
		}
		if !d.cfg.BestSplitAllAxes && best.ok {
			break
		}
		if s := d.evalAxis(in, st, axis); s.ok && (!best.ok || s.cost < best.cost) {
			best = s
		}
	}
	return best
}

// probeRes is one collective probe at position p along an axis: the
// particle count left of p, and the nearest member bound-edge values at or
// below / at or above p.
type probeRes struct {
	nl    int64
	maxLE float64
	minGE float64
}

func (d *distBuilder) probe(in bool, axis geom.Axis, p float64) probeRes {
	var nl int64
	maxLE, minGE := math.Inf(-1), math.Inf(1)
	if in {
		if d.own.Bounds.Center().Component(axis) < p {
			nl = d.own.Count
		}
		for _, e := range [2]float64{
			d.own.Bounds.Lower.Component(axis), d.own.Bounds.Upper.Component(axis),
		} {
			if e <= p && e > maxLE {
				maxLE = e
			}
			if e >= p && e < minGE {
				minGE = e
			}
		}
	}
	rec := make([]byte, 0, 24)
	rec = binary.LittleEndian.AppendUint64(rec, uint64(nl))
	rec = binary.LittleEndian.AppendUint64(rec, math.Float64bits(maxLE))
	rec = binary.LittleEndian.AppendUint64(rec, math.Float64bits(minGE))
	out := d.c.Allreduce(rec, combineProbe)
	d.rounds++
	return probeRes{
		nl:    int64(binary.LittleEndian.Uint64(out)),
		maxLE: math.Float64frombits(binary.LittleEndian.Uint64(out[8:])),
		minGE: math.Float64frombits(binary.LittleEndian.Uint64(out[16:])),
	}
}

func combineProbe(acc, next []byte) []byte {
	s := binary.LittleEndian.Uint64(acc) + binary.LittleEndian.Uint64(next)
	binary.LittleEndian.PutUint64(acc, s)
	if a, n := math.Float64frombits(binary.LittleEndian.Uint64(acc[8:])),
		math.Float64frombits(binary.LittleEndian.Uint64(next[8:])); n > a {
		binary.LittleEndian.PutUint64(acc[8:], math.Float64bits(n))
	}
	if a, n := math.Float64frombits(binary.LittleEndian.Uint64(acc[16:])),
		math.Float64frombits(binary.LittleEndian.Uint64(next[16:])); n < a {
		binary.LittleEndian.PutUint64(acc[16:], math.Float64bits(n))
	}
	return acc
}

// ordOf maps a float64 to a uint64 whose unsigned order matches the
// float's total order, letting the bisections walk float space bit by bit.
func ordOf(f float64) uint64 {
	b := math.Float64bits(f)
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | 1<<63
}

func floatOf(o uint64) float64 {
	if o&(1<<63) != 0 {
		return math.Float64frombits(o &^ (1 << 63))
	}
	return math.Float64frombits(^o)
}

// bisect narrows the open interval (lo, hi) in float bit space until the
// two ends are adjacent floats. pred must be monotone — false up to some
// position, true from there on — and is taken as false at lo and true at
// hi without being called there; bisect returns the last position where it
// is false and the first where it is true.
func bisect(lo, hi float64, pred func(float64) bool) (float64, float64) {
	loOrd, hiOrd := ordOf(lo), ordOf(hi)
	for hiOrd-loOrd > 1 {
		mid := loOrd + (hiOrd-loOrd)/2
		if pred(floatOf(mid)) {
			hiOrd = mid
		} else {
			loOrd = mid
		}
	}
	return floatOf(loOrd), floatOf(hiOrd)
}

// evalAxis reproduces evaluateAxis's result for the node's full member
// multiset without gathering it. The serial algorithm scans candidate
// positions (the unique member bound edges) in ascending order and keeps
// the first strict cost minimum; because the left count nl(p) is
// nondecreasing in p and the cost |0.5 - nl/N| is V-shaped in nl, that
// winner is determined by just two achievable counts — v_lo, the largest
// nl <= N/2, and v_hi, the smallest nl > N/2 — plus the first candidate
// position achieving the winning count. They are found by bisecting two
// monotone predicates over float bit space with O(64) collective probes
// each (A and C bisect the same predicate, so they share one run):
//
//	A: largest position b with nl(b) <= N/2; the largest edge c_lo <= b is
//	   the v_lo candidate, v_lo = nl(c_lo), valid iff v_lo >= 1.
//	C: smallest position b3 with nl(b3) > N/2; the smallest edge c_hi >=
//	   b3 is the first v_hi candidate, v_hi = nl(c_hi), valid iff v_hi < N.
//	B: (winner = lo only) smallest position b2 with nl(b2) >= v_lo; the
//	   smallest edge >= b2 is the first candidate achieving v_lo — the
//	   serial first-minimum tie-break.
//
// Validity matches the serial leftRanks/rightRanks guards because members
// all have Count > 0, so nl = 0 <=> no member is left of p and nl = N <=>
// none is right. On cost ties the lo side wins, as in the serial scan where
// the lo candidate comes first and later equal-cost candidates never
// displace it (strict <).
func (d *distBuilder) evalAxis(in bool, st nodeStats, axis geom.Axis) splitResult {
	lo := st.bounds.Lower.Component(axis)
	hi := st.bounds.Upper.Component(axis)
	N := st.count
	nlAt := func(p float64) int64 { return d.probe(in, axis, p).nl }

	// Sub-phases A and C are one bisection read at both ends: b is the last
	// position with nl <= N/2, b3 the first past it. When even hi is not
	// past half, b is hi itself and there is no v_hi candidate.
	pHi := d.probe(in, axis, hi)
	bProbe := pHi
	var cHi float64
	vHi, hiValid := int64(0), false
	if pHi.nl > N-pHi.nl {
		b, b3 := bisect(lo, hi, func(p float64) bool { nl := nlAt(p); return nl > N-nl })
		bProbe = d.probe(in, axis, b)
		cHi = d.probe(in, axis, b3).minGE
		if !math.IsInf(cHi, 1) {
			vHi = nlAt(cHi)
			hiValid = vHi < N
		}
	}
	cLo := bProbe.maxLE
	vLo := int64(0)
	if !math.IsInf(cLo, -1) {
		vLo = nlAt(cLo)
	}
	loValid := vLo >= 1

	cost := func(v int64) float64 { return math.Abs(0.5 - float64(v)/float64(N)) }
	res := splitResult{axis: axis, cost: math.Inf(1), ratio: math.Inf(1)}
	fill := func(pos float64, nl int64) {
		nr := N - nl
		res = splitResult{
			axis: axis, pos: pos, cost: cost(nl),
			ratio: float64(max(nl, nr)) / float64(min(nl, nr)),
			nl:    nl, nr: nr, ok: true,
		}
	}
	switch {
	case loValid && (!hiValid || cost(vLo) <= cost(vHi)):
		// Sub-phase B: first candidate achieving v_lo.
		_, b2 := bisect(lo, cLo, func(p float64) bool { return nlAt(p) >= vLo })
		pos := d.probe(in, axis, b2).minGE
		fill(pos, vLo)
	case hiValid:
		fill(cHi, vHi)
	}
	return res
}

// deliver sends every rank its leaf assignment and every aggregator its
// leaf summaries, point to point. Receivers know their exact expected
// message counts (one assignment per active rank; the aggregator leaf
// range follows from the shared numbering), so the exchange terminates
// deterministically without a barrier.
func (d *distBuilder) deliver(plan *DistPlan) {
	n := plan.NumLeaves
	if n == 0 {
		return
	}
	for _, sub := range plan.subs {
		counts := make(map[int]int64, len(sub.members))
		for _, m := range sub.members {
			counts[m.Rank] = m.Count
		}
		g := sub.leafOffset
		walkLeaves(sub.root, func(l *Leaf) {
			agg := g * d.size / n
			assign := make([]byte, 0, 8)
			assign = binary.LittleEndian.AppendUint32(assign, uint32(g))
			assign = binary.LittleEndian.AppendUint32(assign, uint32(agg))
			for _, r := range l.Ranks {
				d.c.Send(r, tagDistAssign, assign)
			}
			d.c.Send(agg, tagDistAggLeaf, encodeAggLeaf(g, l, counts))
			g++
		})
	}
	if d.own.Count > 0 {
		buf, _ := d.c.Recv(fabric.AnySource, tagDistAssign)
		plan.OwnLeaf = int(binary.LittleEndian.Uint32(buf))
		plan.OwnAggregator = int(binary.LittleEndian.Uint32(buf[4:]))
	}
	first := (d.own.Rank*n + d.size - 1) / d.size
	last := ((d.own.Rank+1)*n + d.size - 1) / d.size
	for i := first; i < last; i++ {
		buf, _ := d.c.Recv(fabric.AnySource, tagDistAggLeaf)
		plan.AggLeaves = append(plan.AggLeaves, decodeAggLeaf(buf))
	}
	sort.Slice(plan.AggLeaves, func(i, j int) bool {
		return plan.AggLeaves[i].Index < plan.AggLeaves[j].Index
	})
}

func encodeAggLeaf(g int, l *Leaf, counts map[int]int64) []byte {
	buf := make([]byte, 0, 4+1+8+48+4+len(l.Ranks)*12)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(g))
	if l.Overfull {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(l.Count))
	buf = appendBox(buf, l.Bounds)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(l.Ranks)))
	for _, r := range l.Ranks {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(counts[r]))
	}
	return buf
}

func decodeAggLeaf(buf []byte) AggLeaf {
	a := AggLeaf{
		Index:    int(binary.LittleEndian.Uint32(buf)),
		Overfull: buf[4] == 1,
		Count:    int64(binary.LittleEndian.Uint64(buf[5:])),
		Bounds:   decodeBox(buf[13:]),
	}
	ns := int(binary.LittleEndian.Uint32(buf[61:]))
	a.Senders = make([]int, ns)
	a.Counts = make([]int64, ns)
	for i := 0; i < ns; i++ {
		b := buf[65+i*12:]
		a.Senders[i] = int(binary.LittleEndian.Uint32(b))
		a.Counts[i] = int64(binary.LittleEndian.Uint64(b[4:]))
	}
	return a
}

// treeFrag is one owner-built subtree in flattened form, shipped to rank 0
// by AssembleTree. Child references inside Nodes are fragment-local.
type treeFrag struct {
	SkelIdx int
	Nodes   []Node
	Leaves  []Leaf
}

// AssembleTree reconstructs the full flattened Tree on rank 0 (returning
// nil on other ranks). It is a collective: every rank contributes its
// owned subtree fragments through one tree Gather, and rank 0 stitches
// them into the skeleton in depth-first order — reproducing, node for node
// and leaf for leaf, the flattening the centralized Build emits. The write
// pipeline defers this to metadata time, where rank 0 already handles
// O(files) state, keeping the planning phase itself free of any O(P)
// materialization.
func (p *DistPlan) AssembleTree(c *fabric.Comm) (*Tree, error) {
	frags := make([]treeFrag, 0, len(p.subs))
	for _, sub := range p.subs {
		var st Tree
		st.flatten(sub.root)
		frags = append(frags, treeFrag{SkelIdx: sub.skelIdx, Nodes: st.Nodes, Leaves: st.Leaves})
	}
	var enc bytes.Buffer
	if err := gob.NewEncoder(&enc).Encode(frags); err != nil {
		return nil, fmt.Errorf("aggtree: encode fragments: %w", err)
	}
	gathered := c.Gather(0, enc.Bytes())
	if c.Rank() != 0 {
		return nil, nil
	}
	byIdx := make(map[int]treeFrag)
	for _, g := range gathered {
		var fs []treeFrag
		if err := gob.NewDecoder(bytes.NewReader(g)).Decode(&fs); err != nil {
			return nil, fmt.Errorf("aggtree: decode fragments: %w", err)
		}
		for _, f := range fs {
			byIdx[f.SkelIdx] = f
		}
	}
	t := &Tree{Domain: p.Domain}
	if p.NumLeaves == 0 {
		return t, nil
	}
	var rec func(si int) (int32, error)
	rec = func(si int) (int32, error) {
		s := p.skel[si]
		if s.split {
			me := len(t.Nodes)
			t.Nodes = append(t.Nodes, Node{
				Axis: s.axis, Pos: s.pos, Bounds: s.bounds, Count: s.count,
			})
			l, err := rec(s.left)
			if err != nil {
				return 0, err
			}
			r, err := rec(s.right)
			if err != nil {
				return 0, err
			}
			t.Nodes[me].Left, t.Nodes[me].Right = l, r
			return int32(me), nil
		}
		f, ok := byIdx[si]
		if !ok || len(f.Leaves) != s.leaves {
			return 0, fmt.Errorf("aggtree: missing or inconsistent fragment for skeleton node %d", si)
		}
		nodeOff, leafOff := len(t.Nodes), len(t.Leaves)
		remap := func(ref int32) int32 {
			if li, isLeaf := IsLeafRef(ref); isLeaf {
				return LeafRef(li + leafOff)
			}
			return ref + int32(nodeOff)
		}
		for _, nd := range f.Nodes {
			nd.Left, nd.Right = remap(nd.Left), remap(nd.Right)
			t.Nodes = append(t.Nodes, nd)
		}
		t.Leaves = append(t.Leaves, f.Leaves...)
		if len(f.Nodes) == 0 {
			return LeafRef(leafOff), nil
		}
		return int32(nodeOff), nil
	}
	if _, err := rec(0); err != nil {
		return nil, err
	}
	AssignAggregators(t.Leaves, p.size)
	return t, nil
}
