package bat

import (
	"context"
	"errors"
	"math"
	"runtime"

	"libbat/internal/bitmap"
	"libbat/internal/geom"
	"libbat/internal/particles"
	"libbat/internal/radix"
)

// maxSaneDepth bounds the treelet depth a file may declare: a treelet with
// 2^64 leaves is impossible, so a deeper header is corrupt. The reader
// refuses it at open and a node below the declared depth at load, so no
// traversal goes deeper.
const maxSaneDepth = 64

// AttrFilter restricts a query to particles whose attribute lies in
// [Min, Max].
type AttrFilter = particles.AttrFilter

// Query describes a visualization read (paper §V): an optional bounding box
// for spatial filtering, a set of attribute filters, and a progressive
// quality window. Quality ranges over (0, 1], 1 being the entire data set;
// the value is log-remapped to a maximum treelet depth since the number of
// LOD particles doubles each level (§V-B). The zero value of Quality means 1,
// so the zero Query reads everything: a caller holding an explicit quality of
// 0 ("load nothing") must not issue the query at all. Setting PrevQuality to
// the previously queried level makes the read progressive, processing only
// the new particles for the quality increment.
type Query struct {
	Bounds      *geom.Box
	Filters     []AttrFilter
	PrevQuality float64
	Quality     float64
}

// Visitor receives each particle matched by a query. attrs is the query's
// one scratch slice, overwritten for the next particle: it is valid only
// until visit returns, so a visitor that keeps the values copies them.
// Returning a non-nil error aborts the traversal.
type Visitor func(p geom.Vec3, attrs []float64) error

// QueryConfig tunes how a traversal executes. It never changes which
// particles a query matches — only how the work is scheduled.
//
// The zero value traverses on the calling goroutine, one treelet at a time
// in deterministic tree order.
type QueryConfig struct {
	// Workers is the number of goroutines collecting treelets. 0 or 1 runs
	// the same collect-then-deliver step inline, starting no goroutine.
	// Negative selects GOMAXPROCS.
	Workers int

	// Ordered, when true with Workers > 1, delivers visits in the same
	// deterministic treelet order as Workers = 1 (completed treelets are
	// buffered until their turn). When false, visits arrive as treelets
	// complete — same particle multiset, lower latency and memory.
	Ordered bool
}

// effectiveWorkers resolves the Workers field to a concrete count.
func (c QueryConfig) effectiveWorkers() int {
	if c.Workers < 0 {
		return runtime.GOMAXPROCS(0)
	}
	if c.Workers == 0 {
		return 1
	}
	return c.Workers
}

// qualityToDepth log-remaps a quality level in [0,1] to a continuous
// treelet depth: the number of particles per level doubles, so quality q
// maps to the depth t at which the cumulative particle count reaches a
// fraction q of the total, t = log2(1 + q*(2^(maxDepth+1)-1)). It returns
// the integer maximum depth to traverse and the fraction of each node's
// particles to process at that depth (§V-B).
func qualityToDepth(q float64, maxDepth int) (depth int, frac float64) {
	if q <= 0 {
		return 0, 0
	}
	if q >= 1 {
		return maxDepth, 1
	}
	t := math.Log2(1 + q*(math.Exp2(float64(maxDepth+1))-1))
	depth = int(t)
	if depth > maxDepth {
		return maxDepth, 1
	}
	frac = t - float64(depth)
	return depth, frac
}

// portion returns the fraction of a node's particles processed at depth d
// for a quality window endpoint (D, frac).
func portion(d, depth int, frac float64) float64 {
	switch {
	case d < depth:
		return 1
	case d == depth:
		return frac
	default:
		return 0
	}
}

// predicate is one exact (false-positive) check of §V-A, a closed interval
// over one column of a treelet: position axis `axis` (0..2 = x, y, z) of the
// query box, or attribute column attr of a filter when axis < 0.
type predicate struct {
	axis, attr int
	min, max   float64
}

// keeps applies the interval test. A NaN attribute value passes its filter
// and a NaN coordinate is outside every box, as both always have.
func (p predicate) keeps(v float64) bool {
	return v >= p.min && v <= p.max || p.axis < 0 && v != v
}

// queryState is the precomputed, read-only filter state of one traversal.
// It is shared by every worker goroutine of a query, so nothing in it may
// be mutated after prepare returns.
type queryState struct {
	q     Query
	masks []bitmap.Bitmap // query bitmap per filter, in Filters order
	preds []predicate     // box axes, then filters; empty = no exact check
	prevD int
	prevF float64
	curD  int
	curF  float64
}

// prepare validates the query against the file and computes the bitmap
// masks and exact predicates. It reports whether the query can match
// anything at all.
func (f *File) prepare(q Query) (*queryState, bool) {
	if q.Quality <= 0 {
		q.Quality = 1
	}
	s := &queryState{q: q}
	s.prevD, s.prevF = qualityToDepth(q.PrevQuality, f.MaxTreeletDepth)
	s.curD, s.curF = qualityToDepth(q.Quality, f.MaxTreeletDepth)
	if q.PrevQuality >= q.Quality {
		return s, false
	}
	if b := q.Bounds; b != nil {
		if !b.Overlaps(f.Domain) {
			return s, false
		}
		s.preds = append(s.preds,
			predicate{axis: 0, min: b.Lower.X, max: b.Upper.X},
			predicate{axis: 1, min: b.Lower.Y, max: b.Upper.Y},
			predicate{axis: 2, min: b.Lower.Z, max: b.Upper.Z})
	}
	s.masks = make([]bitmap.Bitmap, len(q.Filters))
	for i, flt := range q.Filters {
		if flt.Attr < 0 || flt.Attr >= f.Schema.NumAttrs() {
			return s, false
		}
		m := bitmap.OfQuery(flt.Min, flt.Max, f.Ranges[flt.Attr])
		if m == 0 {
			// The filter interval misses the file's local range entirely.
			return s, false
		}
		s.masks[i] = m
		s.preds = append(s.preds, predicate{axis: -1, attr: flt.Attr, min: flt.Min, max: flt.Max})
	}
	return s, true
}

// nodePassesBitmaps tests a treelet node's bitmap IDs against every filter
// mask.
func (s *queryState) nodePassesBitmaps(f *File, ids []bitmap.ID) bool {
	for i, m := range s.masks {
		if !f.dict.Lookup(ids[s.q.Filters[i].Attr]).Overlaps(m) {
			return false
		}
	}
	return true
}

// passes tests a shallow node's or a leaf record's bitmaps against every
// filter mask.
func (s *queryState) passes(bms []bitmap.Bitmap) bool {
	for i, m := range s.masks {
		if !bms[s.q.Filters[i].Attr].Overlaps(m) {
			return false
		}
	}
	return true
}

// scan appends to picks the particles of the window [lo, hi) whose col
// value p keeps.
func scan[T float32 | float64](picks []uint32, col []T, lo, hi uint32, p predicate) []uint32 {
	for pi := lo; pi < hi; pi++ {
		if p.keeps(float64(col[pi])) {
			picks = append(picks, pi)
		}
	}
	return picks
}

// refine drops from picks, in place, the particles whose col value p
// rejects, and returns how many remain.
func refine[T float32 | float64](picks []uint32, col []T, p predicate) int {
	n := 0
	for _, pi := range picks {
		if p.keeps(float64(col[pi])) {
			picks[n] = pi
			n++
		}
	}
	return n
}

// narrow applies the exact checks to the node window [lo, hi) of t, one
// loop per predicate over that predicate's column: the first scans the
// window, each later one refines the survivors. It appends them to picks.
func (s *queryState) narrow(t *parsedTreelet, lo, hi uint32, picks []uint32) []uint32 {
	base := len(picks)
	pos := [3][]float32{t.x, t.y, t.z}
	for i, p := range s.preds {
		switch {
		case i == 0 && p.axis >= 0:
			picks = scan(picks, pos[p.axis], lo, hi, p)
		case i == 0:
			picks = scan(picks, t.attrs[p.attr], lo, hi, p)
		case p.axis >= 0:
			picks = picks[:base+refine(picks[base:], pos[p.axis], p)]
		default:
			picks = picks[:base+refine(picks[base:], t.attrs[p.attr], p)]
		}
	}
	return picks
}

// QueryStats reports what a traversal did: how many particles were
// delivered to the visitor, how many were rejected by the exact
// (false-positive) checks, how many subtrees the bitmaps and bounds pruned
// without touching their particles, and how many treelets it traversed
// and parsed. It is the one record of a query's reads: core.Dataset.Query
// sums it over the leaves and logs it.
type QueryStats struct {
	Visited        int64
	FalsePositives int64
	PrunedSubtrees int64
	// Treelets is the number of treelets actually loaded and traversed
	// (candidates that survived shallow-tree pruning).
	Treelets int64
	// Loads is the number of those treelets this query parsed from
	// storage; the rest it found in the cache, or waited on while another
	// query parsed them. Unlike the other fields it depends on the cache's
	// history, not only on the file and the query: 0 <= Loads <= Treelets.
	Loads int64
}

// Add accumulates o into st.
func (st *QueryStats) Add(o QueryStats) {
	st.Visited += o.Visited
	st.FalsePositives += o.FalsePositives
	st.PrunedSubtrees += o.PrunedSubtrees
	st.Treelets += o.Treelets
	st.Loads += o.Loads
}

// Query traverses the file under cfg, invoking visit for every particle
// matching q. Particles are visited treelet by treelet in increasing depth
// order within each treelet; with Workers > 1 and Ordered false, treelets
// may complete out of order but the visited multiset is identical.
//
// When ctx ends, the traversal stops promptly (collectors observe a shared
// cancel flag per tree node — the context is bridged to it via
// context.AfterFunc, so the check stays a single atomic load — and storage
// reads abort) and ctx.Err() is returned.
//
// Query is safe to call from multiple goroutines concurrently; the visitor
// of any single call is never invoked concurrently with itself, and always
// runs on the calling goroutine.
func (f *File) Query(ctx context.Context, q Query, cfg QueryConfig, visit Visitor) (QueryStats, error) {
	s, ok := f.prepare(q)
	if !ok || len(f.leaves) == 0 {
		return QueryStats{}, ctx.Err()
	}
	var cancel *cancelFlag
	if ctx.Done() != nil {
		cancel = &cancelFlag{}
		stop := context.AfterFunc(ctx, cancel.set)
		defer stop()
	}
	e := &emitter{visit: visit, attrs: make([]float64, f.Schema.NumAttrs())}
	err := f.run(ctx, s, f.selectTreelets(s, &e.stats), cfg, e, cancel)
	if err == errTraversalCancelled {
		// The flag is only ever set externally via ctx here; surface the
		// context's error rather than the internal sentinel.
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
		}
	}
	if err == nil {
		err = ctx.Err()
	}
	return e.stats, err
}

// QueryWithConfig is Query without a context. benchmark/ calls it by this
// name and may not change; new code calls Query.
func (f *File) QueryWithConfig(q Query, cfg QueryConfig, visit Visitor) (QueryStats, error) {
	return f.Query(context.Background(), q, cfg, visit)
}

// selectTreelets walks the shallow tree serially — it is in-memory and tiny
// relative to the treelets — pruning by bounds and bitmaps, and returns the
// surviving treelet leaves in deterministic left-to-right order. This list
// is the unit of scheduling: every worker count collects exactly these
// treelets, and delivers them in this order unless told it need not.
func (f *File) selectTreelets(s *queryState, st *QueryStats) []int {
	if len(f.shallow) == 0 {
		// Single-treelet file: the treelet's root node carries the bitmap
		// summary, so traversal handles all pruning.
		return []int{0}
	}
	var out []int
	var walk func(ref int32, bounds geom.Box)
	walk = func(ref int32, bounds geom.Box) {
		if li, isLeaf := radix.IsLeafRef(ref); isLeaf {
			if !s.passes(f.roots[li]) {
				st.PrunedSubtrees++
				return
			}
			out = append(out, li)
			return
		}
		n := &f.shallow[ref]
		if s.q.Bounds != nil && !s.q.Bounds.Overlaps(bounds) || !s.passes(n.bitmaps) {
			st.PrunedSubtrees++
			return
		}
		lo, hi := bounds.SplitAt(n.axis, n.pos)
		walk(n.left, lo)
		walk(n.right, hi)
	}
	walk(0, f.Domain)
	return out
}

// span is a half-open window [lo, hi) of particle indices in one treelet.
type span struct{ lo, hi uint32 }

// selection is what one candidate treelet contributes to a query, held as
// indices into the treelet's own columns rather than as copied particles:
// node windows of a query without exact checks stay whole spans, windows
// under a box or filter are narrowed to the surviving picks (so a selection
// holds one or the other). Parsed treelets are immutable and outlive cache
// eviction for as long as a selection references them.
type selection struct {
	idx   int // position in the candidate list, for ordered delivery
	t     *parsedTreelet
	spans []span
	picks []uint32
	stats QueryStats // this treelet's walk; Visited is counted at delivery
	err   error      // load, corruption or cancellation; nothing is delivered
}

// errTraversalCancelled is returned when a collector observes the shared
// cancel flag mid-treelet.
var errTraversalCancelled = errors.New("bat: traversal cancelled")

// collect loads candidate treelet li and walks it into sel, reusing sel's
// slices. It is the one function that loads and traverses a treelet: pool
// workers call it, and so does the caller's goroutine when there is no pool.
func (f *File) collect(ctx context.Context, s *queryState, li int, cancel *cancelFlag, sel *selection) {
	sel.t, sel.spans, sel.picks, sel.stats, sel.err = nil, sel.spans[:0], sel.picks[:0], QueryStats{}, nil
	t, loaded, err := f.loadTreelet(ctx, li)
	if err != nil {
		sel.err = err
		return
	}
	sel.t = t
	sel.stats.Treelets = 1
	if loaded {
		sel.stats.Loads = 1
	}
	ref := &f.leaves[li]
	f.cache.AccessRecorder().Treelet(f.leaf, li, int64(ref.byteLen), loaded, cellBounds(ref.cells).Center())
	if len(t.nodes) > 0 {
		sel.err = s.traverseTreelet(f, sel, cancel, 0, 0)
	}
}

// traverseTreelet walks sel.t depth-first from node ni, selecting each
// node's particle window for the progressive quality range. cancel, when
// non-nil, is polled at each node so aborted queries stop promptly.
func (s *queryState) traverseTreelet(f *File, sel *selection, cancel *cancelFlag, ni int32, depth int) error {
	if depth > s.curD {
		return nil
	}
	if cancel.isSet() {
		return errTraversalCancelled
	}
	n := &sel.t.nodes[ni]
	if !s.nodePassesBitmaps(f, n.ids) {
		sel.stats.PrunedSubtrees++
		return nil
	}
	// Select this node's particle window for the quality increment.
	p0 := portion(depth, s.prevD, s.prevF)
	p1 := portion(depth, s.curD, s.curF)
	if p1 > p0 {
		// Floor both window edges so consecutive progressive reads
		// tile exactly: a later read's lower edge equals this read's
		// upper edge.
		lo := uint32(float64(n.count) * p0)
		hi := uint32(float64(n.count) * p1)
		if hi > n.count {
			hi = n.count
		}
		switch {
		case hi <= lo: // the quality increment adds nothing at this node
		case len(s.preds) == 0:
			sel.spans = append(sel.spans, span{n.start + lo, n.start + hi})
		default:
			before := len(sel.picks)
			sel.picks = s.narrow(sel.t, n.start+lo, n.start+hi, sel.picks)
			sel.stats.FalsePositives += int64(hi-lo) - int64(len(sel.picks)-before)
		}
	}
	if n.axis == uint8(leafAxis) {
		return nil
	}
	// Spatial pruning against the split plane.
	if s.q.Bounds != nil {
		ax := geom.Axis(n.axis)
		if s.q.Bounds.Lower.Component(ax) >= n.pos {
			return s.traverseTreelet(f, sel, cancel, n.right, depth+1)
		}
		if s.q.Bounds.Upper.Component(ax) < n.pos {
			return s.traverseTreelet(f, sel, cancel, n.left, depth+1)
		}
	}
	if err := s.traverseTreelet(f, sel, cancel, n.left, depth+1); err != nil {
		return err
	}
	return s.traverseTreelet(f, sel, cancel, n.right, depth+1)
}

// emitter is the delivery half of a query. It runs only on the goroutine
// that called Query, whatever the worker count, and holds the one place a
// Visitor is invoked.
type emitter struct {
	visit Visitor
	attrs []float64 // the scratch slice every visit call receives
	stats QueryStats
}

// deliver turns one selection into visitor calls, reading the treelet's
// columns directly. A cancellation observed between selections stops
// delivery: already-collected treelets must not keep streaming to a caller
// that asked to stop.
func (e *emitter) deliver(ctx context.Context, sel *selection) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if sel.err != nil {
		return sel.err
	}
	e.stats.Add(sel.stats)
	t := sel.t
	emit := func(pi uint32) error {
		for a, col := range t.attrs {
			e.attrs[a] = col[pi]
		}
		e.stats.Visited++
		return e.visit(geom.V3(float64(t.x[pi]), float64(t.y[pi]), float64(t.z[pi])), e.attrs)
	}
	for _, w := range sel.spans {
		for pi := w.lo; pi < w.hi; pi++ {
			if err := emit(pi); err != nil {
				return err
			}
		}
	}
	for _, pi := range sel.picks {
		if err := emit(pi); err != nil {
			return err
		}
	}
	return nil
}

// ReadAll gathers every particle in the file into a new set.
func (f *File) ReadAll() (*particles.Set, error) {
	out := particles.NewSet(f.Schema, int(f.NumParticles))
	_, err := f.Query(context.Background(), Query{}, QueryConfig{}, func(p geom.Vec3, attrs []float64) error {
		out.Append(p, attrs)
		return nil
	})
	return out, err
}

// CountMatching returns the number of particles a query would visit; useful
// for sizing receive buffers before a data transfer.
func (f *File) CountMatching(q Query) (int64, error) {
	st, err := f.Query(context.Background(), q, QueryConfig{}, func(geom.Vec3, []float64) error { return nil })
	return st.Visited, err
}
