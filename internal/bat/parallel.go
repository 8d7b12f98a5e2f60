// The query engine's one walk: a query's candidate treelets — one file's,
// or a dataset's leaf files' in leaf order — are collected (query.go:
// collect) and delivered (query.go: Walk.deliver) one after another on
// the caller's goroutine, in selectTreelets order, so the visit sequence is
// the same at every worker count.
//
// With Workers = w > 1 the walk starts w−1 helpers once, after the first
// candidate it had to load, so a walk over cached treelets starts none.
// Helpers only load: each claims the next candidate less than 2w ahead of
// the caller, loads it through the cache and leaves the treelet in the
// candidate's slot of a ring of 2w, where the caller takes it instead of
// loading it. A caller that finds its candidate still loading claims and
// loads the next free one the same way while it waits, so w goroutines
// load at once. A failed load leaves the slot empty: the caller then loads
// the candidate itself and meets the failure at its place in the order.
// Handing the treelet over, rather than leaving it in the cache for a
// second lookup, means an eviction in between costs no second load, and
// the load counts once, in QueryStats.Loads and the access record, as the
// caller's own would.
//
// The walk itself stays on the caller because on warm data handing it off
// costs more than it saves: with every treelet sent over a channel, a
// count-only warm scan on two workers took 1.7 times the serial time.
// Helpers park once they are 2w ahead or have claimed a file's last
// candidate, and the caller wakes them only after a candidate that had to
// be loaded, so a warm stretch of a walk wakes nobody.
//
// The query's context is the one stop signal. Helpers load under a child of
// it, which Stop cancels before it waits for them, so no load of the query
// runs after Stop returns.
package bat

import (
	"context"
	"sync"
)

// Walk is one query's ordered walk over the candidate treelets of the files
// its Query calls are given, in call order. The goroutine that calls Query
// is the only one that walks a treelet or calls the visitor. Stop a Walk
// when the query is done.
type Walk struct {
	ctx     context.Context
	workers int
	visit   Visitor
	attrs   []float64 // the scratch slice every visit call receives
	stats   QueryStats
	sel     selection // the one selection, refilled for every candidate
	h       *helpers  // nil until a candidate has had to be loaded
}

// NewWalk returns a walk under cfg that delivers to visit; a nil visit
// only counts.
func NewWalk(ctx context.Context, cfg QueryConfig, visit Visitor) *Walk {
	return &Walk{ctx: ctx, workers: cfg.effectiveWorkers(), visit: visit}
}

// Query walks f's candidate treelets for q after those of the files before
// it. It stops at the first failed treelet load (returned as a *LoadError),
// visitor error or end of the walk's context, and returns that error; the
// walk is then over.
func (w *Walk) Query(f *File, q Query) error {
	s, ok := f.prepare(q)
	if !ok || len(f.leaves) == 0 {
		return w.ctx.Err()
	}
	if n := f.Schema.NumAttrs(); len(w.attrs) != n {
		w.attrs = make([]float64, n)
	}
	cands := f.selectTreelets(s, &w.stats)
	if w.h != nil {
		w.h.feed(f, cands, 0)
	}
	for i, li := range cands {
		cold := w.sel.stats.Loads > 0 // the previous candidate had to be loaded
		if cold && w.h == nil && w.workers > 1 {
			w.h = startHelpers(w.ctx, w.workers)
			w.h.feed(f, cands, i)
		}
		var p prefetch
		if w.h != nil {
			p = w.h.take(i, cold)
		}
		if p.t != nil {
			f.collectLoaded(w.ctx, s, li, p.t, p.loaded, &w.sel)
		} else {
			f.collect(w.ctx, s, li, &w.sel)
		}
		if err := w.deliver(); err != nil {
			return err
		}
	}
	return w.ctx.Err()
}

// Stats returns what the walk has done so far.
func (w *Walk) Stats() QueryStats { return w.stats }

// Stop stops the walk's helpers and waits for them to return.
func (w *Walk) Stop() {
	if w.h != nil {
		w.h.stop()
	}
}

// helpers are a walk's loading goroutines and the state they share with the
// caller, all under mu. Candidates are numbered within the current file:
// the caller feeds the next file only after taking every candidate of this
// one, each once its load ended, so no claim outlives its file.
type helpers struct {
	mu      sync.Mutex
	work    sync.Cond // helpers wait on it for a candidate to claim
	landed  sync.Cond // the caller waits on it for a claimed candidate's load
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	stopped bool

	f     *File
	cands []int
	pos   int // the candidate the caller is on
	// next is the lowest candidate a helper may claim. Helpers claim only
	// past pos, so the caller's candidate i was claimed iff i < next.
	next int
	ring []prefetch // candidate i's slot is ring[i%len(ring)]
}

// prefetch is one ring slot: whether a claimed load is running and, once
// it has ended, the treelet (nil if the load failed) and whether the load
// read it from storage.
type prefetch struct {
	loading bool
	t       *parsedTreelet
	loaded  bool
}

// startHelpers starts workers−1 helpers under a child of ctx.
func startHelpers(ctx context.Context, workers int) *helpers {
	h := &helpers{ring: make([]prefetch, 2*workers)}
	h.ctx, h.cancel = context.WithCancel(ctx)
	h.work.L, h.landed.L = &h.mu, &h.mu
	h.wg.Add(workers - 1)
	for range workers - 1 {
		go h.run()
	}
	return h
}

// run is one helper: it loads candidates until the walk stops.
func (h *helpers) run() {
	defer h.wg.Done()
	h.mu.Lock()
	defer h.mu.Unlock()
	for !h.stopped {
		if !h.loadNext() {
			h.work.Wait()
		}
	}
}

// loadNext claims the next candidate past the caller's, unless it is
// len(ring) or more ahead (the slot of the caller's own candidate may still
// be loading), and loads it into its slot with mu unlocked. It reports
// whether there was one to claim.
func (h *helpers) loadNext() bool {
	i := max(h.next, h.pos+1)
	if i >= len(h.cands) || i >= h.pos+len(h.ring) {
		return false
	}
	h.next = i + 1
	f, li, p := h.f, h.cands[i], &h.ring[i%len(h.ring)]
	p.loading = true
	h.mu.Unlock()
	t, loaded, err := f.loadTreelet(h.ctx, li)
	h.mu.Lock()
	if err == nil {
		p.t, p.loaded = t, loaded
	}
	p.loading = false
	h.landed.Signal()
	return true
}

// feed hands the helpers a file's candidates from candidate from on.
func (h *helpers) feed(f *File, cands []int, from int) {
	h.mu.Lock()
	h.f, h.cands, h.pos, h.next = f, cands, from-1, from
	h.mu.Unlock()
}

// take moves the caller to candidate i and, if it was claimed, returns its
// slot once the load has ended, emptying the slot; until then the caller
// loads ahead itself. cold reports that the caller's previous candidate had
// to be loaded: only then are parked helpers woken.
func (h *helpers) take(i int, cold bool) prefetch {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.pos = i
	if cold {
		h.work.Broadcast()
	}
	if i >= h.next {
		return prefetch{}
	}
	p := &h.ring[i%len(h.ring)]
	for p.loading {
		if !h.loadNext() {
			h.landed.Wait()
		}
	}
	got := *p
	*p = prefetch{}
	return got
}

// stop cancels the helpers' loads and waits for the helpers to return.
func (h *helpers) stop() {
	h.cancel()
	h.mu.Lock()
	h.stopped = true
	h.work.Broadcast()
	h.mu.Unlock()
	h.wg.Wait()
}
