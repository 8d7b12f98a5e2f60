// Package par holds the two parallel loops the BAT build runs its
// data-parallel passes through: Range over static chunks of an index space
// (Morton encoding, the radix sort's count and scatter passes, the
// attribute range scans) and Each over a list of tasks claimed one at a
// time (treelet construction, payload compaction).
//
// Both return once every call of body has returned, and both run body on
// the calling goroutine when workers <= 1: a one-worker build forks nothing
// and runs the very code a many-worker build runs. Neither decides what a
// body computes, so a body that writes only its own items' outputs gives the
// same result for every worker count.
package par

import (
	"sync"
	"sync/atomic"
)

// Chunk splits [0, n) into workers near-equal chunks and returns the w-th
// one. The split depends only on n and workers, never on scheduling.
func Chunk(n, workers, w int) (lo, hi int) {
	chunk := (n + workers - 1) / workers
	lo = min(w*chunk, n)
	hi = min(lo+chunk, n)
	return lo, hi
}

// Range calls body(w, lo, hi) for every non-empty chunk w of
// Chunk(n, workers, w), each on its own goroutine. workers is capped at n;
// with at most one worker, body(0, 0, n) runs on the calling goroutine.
func Range(n, workers int, body func(w, lo, hi int)) {
	workers = min(workers, n)
	if workers <= 1 {
		body(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := Chunk(n, workers, w)
		if lo == hi {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(w, lo, hi)
		}()
	}
	wg.Wait()
}

// Each calls body(w, i) for every i in order. Up to workers goroutines claim
// the items in turn, so the items at the front of order start first; w names
// the goroutine running the call (0 <= w < workers), which lets a body keep
// per-worker scratch. With at most one worker, the calls run on the calling
// goroutine in order.
func Each(order []int, workers int, body func(w, i int)) {
	workers = min(workers, len(order))
	if workers <= 1 {
		for _, i := range order {
			body(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < len(order); k = int(next.Add(1)) - 1 {
				body(w, order[k])
			}
		}()
	}
	wg.Wait()
}
