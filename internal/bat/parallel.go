// Query scheduling: how the candidate treelets of one query get collected
// (query.go: collect) and delivered (query.go: emitter.deliver). The clamped
// worker count is the only thing that varies. With one worker the caller's
// goroutine collects and delivers each treelet in turn — no goroutine, no
// channel. With more, workers claim treelets in deterministic list order via
// an atomic counter and collect them into selections, while the caller's
// goroutine delivers — so the visitor is never invoked concurrently, and with
// Ordered delivery the visit sequence is identical to one worker's.
//
// Memory is bounded by a token semaphore: a worker acquires a token before
// claiming a treelet and the caller releases it after delivering the
// selection, so at most 2×workers selections exist at once. Acquiring BEFORE
// claiming is what makes Ordered delivery deadlock-free: every token is
// held by a claimed task, claims are issued in increasing index order, so
// the lowest undelivered index always owns a token and is either being
// collected or already deliverable.
//
// The query's context is the one stop signal. The workers run under a child
// of it that a failed delivery cancels: a traversal polls its Done channel
// (query.go: pollNodes), a worker waiting for a token leaves through it,
// and the caller stops delivering and waits for the workers. No worker
// blocks on its last send, because the results channel holds as many
// selections as there are tokens.
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
	// Each in-flight selection holds one token from acquisition until it has
	// been delivered; results is sized to the token count so workers never
	// block sending.
	maxInflight := 2 * w
	tokens := make(chan struct{}, maxInflight)
	results := make(chan *selection, maxInflight)
	var next atomic.Int64

	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case tokens <- struct{}{}: // acquire before claiming (see file comment)
				case <-wctx.Done():
					return
				}
				idx := int(next.Add(1)) - 1
				if idx >= len(cands) || wctx.Err() != nil {
					<-tokens
					return
				}
				sel := &selection{idx: idx}
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
		<-tokens
		return err
	}
	// Ordered delivery stashes out-of-order completions and delivers the run
	// of consecutive indices starting at nextIdx as it becomes available.
	var err error
	pending := make(map[int]*selection, maxInflight)
	nextIdx := 0
	for sel := range results {
		if !cfg.Ordered {
			err = deliver(sel)
		} else {
			pending[sel.idx] = sel
			for err == nil {
				nb, ok := pending[nextIdx]
				if !ok {
					break
				}
				delete(pending, nextIdx)
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
