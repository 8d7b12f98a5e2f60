// Query scheduling: how the candidate treelets of one query get collected
// (query.go: collect) and delivered (query.go: emitter.deliver). The clamped
// worker count is the only thing that varies. With one worker the caller's
// goroutine collects and delivers each treelet in turn — no goroutine, no
// channel. With more, workers claim treelets in deterministic list order via
// an atomic counter and collect them into selections, while the caller's
// goroutine delivers — so the visitor is never invoked concurrently, and with
// Ordered delivery the visit sequence is identical to one worker's.
//
// Memory is bounded by a pool of 2×workers selections made once per run: a
// worker takes a free selection before claiming a treelet, collect refills
// it reusing its slices as the serial path reuses its one, and the caller
// hands it back after delivering it, its treelet reference cleared. Taking
// BEFORE claiming is what makes Ordered delivery deadlock-free: every
// claimed task holds a selection, claims are issued in increasing index
// order, so the lowest undelivered index always holds one and is either
// being collected or already deliverable. It also sizes the ring Ordered
// delivery parks early completions in: every undelivered claim lies in
// [nextIdx, nextIdx+2×workers), so its slot idx mod 2×workers is its own.
//
// The query's context is the one stop signal. The workers run under a child
// of it that a failed delivery cancels: a traversal polls its Done channel
// (query.go: pollNodes), a worker waiting for a free selection leaves
// through it, and the caller stops delivering and waits for the workers. No
// worker blocks on its last send, because the results channel holds the
// whole pool.
package bat

import (
	"context"
	"sync"
	"sync/atomic"
)

// run collects the candidate treelets and hands each selection to e on the
// calling goroutine.
func (f *File) run(ctx context.Context, s *queryState, cands []int, cfg QueryConfig, e *emitter) error {
	w := min(cfg.effectiveWorkers(), len(cands))
	if w <= 1 {
		var sel selection
		for _, li := range cands {
			f.collect(ctx, s, li, &sel)
			if err := e.deliver(ctx, &sel); err != nil {
				return err
			}
		}
		return nil
	}

	// wctx, not ctx reassigned: the workers capture it, and a captured
	// variable that is reassigned moves to the heap, serial path included.
	wctx, cancel := context.WithCancel(ctx)
	defer cancel() // a panicking visitor still stops the workers
	// The pool's selections are the in-flight bound: free and results each
	// hold all of them, so neither send ever blocks.
	n := 2 * w
	pool := make([]selection, n)
	free := make(chan *selection, n)
	for i := range pool {
		free <- &pool[i]
	}
	results := make(chan *selection, n)
	var next atomic.Int64

	var wg sync.WaitGroup
	for range w {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				var sel *selection
				select {
				case sel = <-free: // acquire before claiming (see file comment)
				case <-wctx.Done():
					return
				}
				idx := int(next.Add(1)) - 1
				if idx >= len(cands) || wctx.Err() != nil {
					free <- sel
					return
				}
				sel.idx = idx
				f.collect(wctx, s, cands[idx], sel)
				results <- sel
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	deliver := func(sel *selection) error {
		err := e.deliver(wctx, sel)
		sel.t = nil // a pooled selection pins no treelet the cache evicts
		free <- sel
		return err
	}
	// Ordered delivery parks out-of-order completions in a ring of n slots
	// and delivers the run of consecutive indices starting at nextIdx as it
	// becomes available.
	var err error
	ring := make([]*selection, n)
	nextIdx := 0
	for sel := range results {
		if !cfg.Ordered {
			err = deliver(sel)
		} else {
			ring[sel.idx%n] = sel
			for err == nil && ring[nextIdx%n] != nil {
				nb := ring[nextIdx%n]
				ring[nextIdx%n] = nil
				nextIdx++
				err = deliver(nb)
			}
		}
		if err != nil {
			break
		}
	}
	cancel()
	wg.Wait()
	return err
}
