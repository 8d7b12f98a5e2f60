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
package bat

import (
	"context"
	"sync"
	"sync/atomic"
)

// cancelFlag is a shared abort signal polled by treelet traversals. A nil
// *cancelFlag reads as "never cancelled": an inline query under an
// uncancellable context passes nil.
type cancelFlag struct {
	flag atomic.Bool
}

func (c *cancelFlag) isSet() bool {
	return c != nil && c.flag.Load()
}

func (c *cancelFlag) set() {
	if c != nil {
		c.flag.Store(true)
	}
}

// run collects the candidate treelets and hands each selection to e on the
// calling goroutine. cancel is the shared abort flag, already wired to ctx
// when ctx is cancellable.
func (f *File) run(ctx context.Context, s *queryState, cands []int, cfg QueryConfig, e *emitter, cancel *cancelFlag) error {
	w := min(cfg.effectiveWorkers(), len(cands))
	if w <= 1 {
		var sel selection
		for _, li := range cands {
			f.collect(ctx, s, li, cancel, &sel)
			if err := e.deliver(ctx, &sel); err != nil {
				return err
			}
		}
		return nil
	}

	// Each in-flight selection holds one token from acquisition until it has
	// been delivered; results is sized to the token count so workers never
	// block sending.
	maxInflight := 2 * w
	tokens := make(chan struct{}, maxInflight)
	results := make(chan *selection, maxInflight)
	if cancel == nil {
		cancel = &cancelFlag{} // a visitor error still has to stop the workers
	}
	var next atomic.Int64

	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if cancel.isSet() {
					return
				}
				tokens <- struct{}{} // acquire before claiming (see file comment)
				idx := int(next.Add(1)) - 1
				if idx >= len(cands) || cancel.isSet() {
					<-tokens
					return
				}
				sel := &selection{idx: idx}
				f.collect(ctx, s, cands[idx], cancel, sel)
				results <- sel
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// After the first failure nothing more is delivered, but results is
	// still drained to release tokens and let the workers exit.
	var firstErr error
	deliver := func(sel *selection) {
		if firstErr == nil {
			if firstErr = e.deliver(ctx, sel); firstErr != nil {
				cancel.set()
			}
		}
		<-tokens
	}
	// Ordered delivery stashes out-of-order completions and delivers the run
	// of consecutive indices starting at nextIdx as it becomes available.
	pending := make(map[int]*selection, maxInflight)
	nextIdx := 0
	for sel := range results {
		if !cfg.Ordered {
			deliver(sel)
			continue
		}
		pending[sel.idx] = sel
		for {
			nb, ok := pending[nextIdx]
			if !ok {
				break
			}
			delete(pending, nextIdx)
			nextIdx++
			deliver(nb)
		}
	}
	return firstErr
}
