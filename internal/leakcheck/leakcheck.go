// Package leakcheck asserts that a test leaves no goroutines behind. It is
// the shared helper for the suites that exercise cancellation and
// close-during-query paths, where the failure mode is a query worker or a
// singleflight waiter wedged forever — invisible to assertions on
// results, fatal to a long-running server.
package leakcheck

import (
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// Check snapshots the goroutine count and registers a cleanup that polls
// (for up to five seconds, outlasting normal scheduler jitter) for the
// count to return to the baseline. On failure it dumps every goroutine
// stack, so the wedged one is identified directly in the test log.
//
// Call it FIRST in the test, before any servers or files are created, so
// everything the test starts is covered by the baseline.
func Check(t testing.TB) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		var n int
		for {
			n = runtime.NumGoroutine()
			if n <= base {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond) //batlint:ignore ctxsleep poll interval in a test-only cleanup with no context to honor
		}
		var sb strings.Builder
		pprof.Lookup("goroutine").WriteTo(&sb, 1)
		t.Errorf("goroutine leak: %d goroutines at start, %d after cleanup wait; dump:\n%s",
			base, n, sb.String())
	})
}
