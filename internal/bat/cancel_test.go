package bat

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"libbat/internal/geom"
	"libbat/internal/leakcheck"
	"libbat/internal/pfs"
)

// openFaulty builds a BAT over store-backed I/O so reads can be stalled
// and delayed, returning the injector and a fresh (cold-cache) File.
func openFaulty(t *testing.T, n int, seed int64, cfg FaultyOpenConfig) (*pfs.Faulty, *File) {
	t.Helper()
	s, domain := randomSet(n, seed)
	b, err := Build(s, domain, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	mem := pfs.NewMem()
	if err := mem.WriteFile("f.bat", b.Buf); err != nil {
		t.Fatal(err)
	}
	fau := pfs.NewFaulty(mem, cfg.Fault)
	h, err := pfs.OpenContext(context.Background(), fau, "f.bat")
	if err != nil {
		t.Fatal(err)
	}
	f, err := DecodeCtx(context.Background(), h, h.Size())
	if err != nil {
		t.Fatal(err)
	}
	f.SetCloser(h)
	return fau, f
}

// FaultyOpenConfig parameterizes openFaulty.
type FaultyOpenConfig struct {
	Fault pfs.FaultConfig
}

// countCtx runs a full scan under ctx and cfg, returning the visit count.
func countCtx(ctx context.Context, f *File, cfg QueryConfig) (int64, error) {
	var n int64
	_, err := f.Query(ctx, Query{}, cfg, func(geom.Vec3, []float64) error {
		n++
		return nil
	})
	return n, err
}

// TestCancelStalledRead is the acceptance-criterion test: a query against
// a file whose leaf reads stall indefinitely must return within the
// configured deadline (bounded wall time), leak no goroutines, and leave
// the treelet cache serving subsequent queries correctly.
func TestCancelStalledRead(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  QueryConfig
	}{
		{"serial", QueryConfig{}},
		{"parallel", QueryConfig{Workers: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leakcheck.Check(t)
			fau, f := openFaulty(t, 6000, 42, FaultyOpenConfig{})
			defer f.Close()
			want, err := countCtx(context.Background(), f, QueryConfig{})
			if err != nil || want == 0 {
				t.Fatalf("baseline scan: %d, %v", want, err)
			}

			// Cold cache again for the stall: a second File over the same
			// injector (the first one's cache would satisfy every load).
			fau2, f2 := openFaulty(t, 6000, 42, FaultyOpenConfig{})
			_ = fau
			defer f2.Close()
			fau2.StallReads("f.bat")
			ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, err = countCtx(ctx, f2, tc.cfg)
			elapsed := time.Since(start)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("stalled query = %v, want DeadlineExceeded", err)
			}
			if elapsed > 5*time.Second {
				t.Fatalf("stalled query returned after %v, want bounded by the 150ms deadline", elapsed)
			}

			// Release the "mount" and re-query the same File: the cache and
			// its singleflight slots must not be wedged or poisoned.
			fau2.ReleaseStalls()
			got, err := countCtx(context.Background(), f2, tc.cfg)
			if err != nil || got != want {
				t.Fatalf("post-release scan = %d, %v; want %d, nil", got, err, want)
			}
		})
	}
}

// TestCancelMidTraversal: cancellation while workers are traversing (not
// blocked on I/O) stops the query promptly with ctx.Err() and the same
// File keeps serving. The procs1 cases run at GOMAXPROCS=1, where the
// canceller and a tight traversal loop share one P.
func TestCancelMidTraversal(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   QueryConfig
		procs int // GOMAXPROCS for the case; 0 keeps the runner's
	}{
		{"serial", QueryConfig{}, 0},
		{"serial-procs1", QueryConfig{}, 1},
		{"parallel", QueryConfig{Workers: 4}, 0},
		{"parallel-procs1", QueryConfig{Workers: 4}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			}
			leakcheck.Check(t)
			s, domain := randomSet(8000, 7)
			f, _ := buildAndOpen(t, s, domain, DefaultBuildConfig())
			defer f.Close()
			want, err := countCtx(context.Background(), f, QueryConfig{})
			if err != nil {
				t.Fatal(err)
			}

			ctx, cancel := context.WithCancel(context.Background())
			var n int64
			_, err = f.Query(ctx, Query{}, tc.cfg, func(geom.Vec3, []float64) error {
				n++
				if n == want/10 {
					cancel() // cancel from inside the visitor, mid-stream
				}
				return nil
			})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled query = %v, want context.Canceled", err)
			}
			if n >= want {
				t.Fatalf("visited all %d particles despite cancellation", n)
			}

			got, err := countCtx(context.Background(), f, tc.cfg)
			if err != nil || got != want {
				t.Fatalf("scan after cancel = %d, %v; want %d, nil", got, err, want)
			}
		})
	}
}

// TestCancelStopsTreeletWalk: a walk of a cached treelet under an ended
// context stops at its first poll, the root: the selection carries the
// context's error and no particle window, so nothing of it is delivered.
func TestCancelStopsTreeletWalk(t *testing.T) {
	s, domain := randomSet(8000, 7)
	f, _ := buildAndOpen(t, s, domain, DefaultBuildConfig())
	defer f.Close()
	if _, err := countCtx(context.Background(), f, QueryConfig{}); err != nil {
		t.Fatal(err) // loads every treelet into the cache
	}
	qs, ok := f.prepare(Query{})
	if !ok {
		t.Fatal("full query prepared as empty")
	}
	ctx, cancel := context.WithCancel(context.Background())
	var sel selection
	f.collect(ctx, qs, 0, &sel)
	if sel.err != nil || len(sel.spans) == 0 {
		t.Fatalf("live walk: err %v, %d spans; want nil and some", sel.err, len(sel.spans))
	}
	cancel()
	f.collect(ctx, qs, 0, &sel)
	if !errors.Is(sel.err, context.Canceled) || len(sel.spans) != 0 {
		t.Fatalf("walk after cancel: err %v, %d spans; want context.Canceled and none", sel.err, len(sel.spans))
	}
}

// TestCancelSingleflightDetachLoader: when the goroutine running the
// singleflight load is canceled, waiters with live contexts must not
// inherit its context error — they retry the load themselves.
func TestCancelSingleflightDetachLoader(t *testing.T) {
	leakcheck.Check(t)
	c := NewCache()
	enter := make(chan struct{})
	want := fakeTreelet(4)

	loaderCtx, cancelLoader := context.WithCancel(context.Background())
	defer cancelLoader()
	loaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.get(loaderCtx, cacheKey{0, 5}, func(ctx context.Context) (*parsedTreelet, error) {
			close(enter)
			<-ctx.Done()
			return nil, ctx.Err()
		})
		loaderErr <- err
	}()
	<-enter

	waiterDone := make(chan error, 1)
	go func() {
		tl, _, err := c.get(context.Background(), cacheKey{0, 5}, func(ctx context.Context) (*parsedTreelet, error) {
			return want, nil
		})
		if err == nil && tl != want {
			err = errors.New("waiter got a different treelet pointer")
		}
		waiterDone <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the waiter block on the entry
	cancelLoader()

	if err := <-loaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("loader = %v, want context.Canceled", err)
	}
	select {
	case err := <-waiterDone:
		if err != nil {
			t.Fatalf("live waiter after loader cancel: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter wedged after loader cancellation")
	}
}

// TestCancelSingleflightDetachWaiter: a canceled waiter detaches promptly
// while the load keeps running, and the eventual result is shared with
// the remaining (patient) callers.
func TestCancelSingleflightDetachWaiter(t *testing.T) {
	leakcheck.Check(t)
	c := NewCache()
	enter := make(chan struct{})
	release := make(chan struct{})
	want := fakeTreelet(4)

	loaderDone := make(chan error, 1)
	go func() {
		tl, _, err := c.get(context.Background(), cacheKey{0, 9}, func(ctx context.Context) (*parsedTreelet, error) {
			close(enter)
			<-release
			return want, nil
		})
		if err == nil && tl != want {
			err = errors.New("loader got a different treelet pointer")
		}
		loaderDone <- err
	}()
	<-enter

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	if _, _, err := c.get(ctx, cacheKey{0, 9}, func(ctx context.Context) (*parsedTreelet, error) {
		return nil, errors.New("detached waiter must not load")
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("impatient waiter = %v, want context.Canceled", err)
	}

	close(release)
	if err := <-loaderDone; err != nil {
		t.Fatalf("loader after waiter detach: %v", err)
	}
	// The result was cached normally despite the detached waiter.
	tl, _, err := c.get(context.Background(), cacheKey{0, 9}, func(ctx context.Context) (*parsedTreelet, error) {
		return nil, errors.New("must be served from cache")
	})
	if err != nil || tl != want {
		t.Fatalf("post-detach lookup = (%v, %v), want cached treelet", tl, err)
	}
}

// TestCancelStorm: concurrent queries with staggered short deadlines over
// latency-injected storage, followed by a clean full scan. Asserts the
// engine survives a burst of cancellations with no leaks and no wedged
// cache slots. This is the unit-level half of the batserve chaos harness.
func TestCancelStorm(t *testing.T) {
	leakcheck.Check(t)
	fau, f := openFaulty(t, 10000, 3, FaultyOpenConfig{
		Fault: pfs.FaultConfig{
			Seed:           11,
			ReadFailProb:   0.02,
			ReadDelayProb:  0.3,
			ReadDelay:      2 * time.Millisecond,
			MaxConsecutive: 1,
		},
	})
	defer f.Close()

	cfgs := []QueryConfig{
		{},
		{Workers: 4},
		{Workers: 2},
	}
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Deadlines from 1ms to 24ms: some queries die instantly, some
			// mid-flight, a few may complete.
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i+1)*time.Millisecond)
			defer cancel()
			box := geom.NewBox(geom.V3(0, 0, 0), geom.V3(1, 1, float64(i+1)/24))
			_, err := f.Query(ctx, Query{Bounds: &box}, cfgs[i%len(cfgs)],
				func(geom.Vec3, []float64) error { return nil })
			if err != nil && !pfs.IsContextErr(err) && !errors.Is(err, pfs.ErrInjected) {
				t.Errorf("storm query %d: unexpected error %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	// After the storm: a clean, uncanceled scan over the same File must
	// see every particle (MaxConsecutive=1 guarantees no persistent error
	// path; transient read failures surface at most once per treelet and
	// the next lookup retries).
	var got int64
	for attempt := 0; ; attempt++ {
		var err error
		got, err = countCtx(context.Background(), f, QueryConfig{Workers: 4})
		if err == nil {
			break
		}
		if !errors.Is(err, pfs.ErrInjected) || attempt > 8 {
			t.Fatalf("post-storm scan: %v (attempt %d)", err, attempt)
		}
	}
	if got != 10000 {
		t.Fatalf("post-storm scan visited %d, want 10000", got)
	}
	if fau.Delays() == 0 {
		t.Fatal("latency injection never fired during the storm")
	}
}

// countingReaderAt counts ReadAt calls, and separately the ones still
// running or begun after the test marks the query as returned. Reads at or
// past slowFrom take a few milliseconds, so a read the query issued for a
// treelet it never waits on would still be in flight when it returns.
type countingReaderAt struct {
	src      io.ReaderAt
	slowFrom int64 // set before the query starts
	returned atomic.Bool
	reads    atomic.Int64
	late     atomic.Int64
}

func (r *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	r.reads.Add(1)
	if r.slowFrom > 0 && off >= r.slowFrom {
		time.Sleep(2 * time.Millisecond)
	}
	n, err := r.src.ReadAt(p, off)
	if r.returned.Load() {
		r.late.Add(1)
	}
	return n, err
}

// TestQueryReadsBeforeReturn: every storage read a query causes has
// finished before Query returns — on success, on a visitor error and on a
// ctx cancelled mid-scan, at every worker count. The ordered=true cases
// also require the visits to be the serial scan's sequence, or a prefix of
// it for a query that stops. Each case opens a cold File over a counting
// source whose reads past the first treelet are slow; leakcheck's cleanup
// (registered after the late-read check, so it runs first) waits out any
// goroutine the query left behind before the late reads are counted.
func TestQueryReadsBeforeReturn(t *testing.T) {
	s, domain := randomSet(20000, 61)
	cfg := DefaultBuildConfig()
	cfg.MaxLeafSize = 16 // smaller leaves, more treelets
	b, err := Build(s, domain, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := FromBuffer(b.Buf)
	if err != nil {
		t.Fatal(err)
	}
	var serial []geom.Vec3
	if _, err := ref.Query(context.Background(), Query{}, QueryConfig{}, func(p geom.Vec3, _ []float64) error {
		serial = append(serial, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	errBail := errors.New("bail")
	for _, w := range []int{1, 2, 4} {
		for _, ordered := range []bool{false, true} {
			for _, mode := range []string{"complete", "visitor-error", "cancel"} {
				cfg := QueryConfig{Workers: w}
				t.Run(fmt.Sprintf("w%d-ordered=%v-%s", w, ordered, mode), func(t *testing.T) {
					src := &countingReaderAt{src: bytes.NewReader(b.Buf)}
					t.Cleanup(func() {
						if n := src.late.Load(); n != 0 {
							t.Errorf("%d ReadAt calls after Query returned", n)
						}
					})
					leakcheck.Check(t)
					f, err := DecodeCtx(context.Background(), src, int64(len(b.Buf)))
					if err != nil {
						t.Fatal(err)
					}
					if f.NumTreelets() < 8 {
						t.Fatalf("only %d treelets; the scan must span several", f.NumTreelets())
					}
					first := f.leaves[0]
					src.slowFrom = int64(first.offset) + int64(first.byteLen)
					opened := src.reads.Load()
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					var n int64
					var seq []geom.Vec3
					_, err = f.Query(ctx, Query{}, cfg, func(p geom.Vec3, _ []float64) error {
						n++
						if ordered {
							seq = append(seq, p)
						}
						switch {
						case mode == "visitor-error":
							return errBail
						case mode == "cancel" && n == 100:
							cancel()
						}
						return nil
					})
					src.returned.Store(true)
					switch mode {
					case "complete":
						if err != nil || n != int64(s.Len()) {
							t.Fatalf("got %d points, err %v; want %d, nil", n, err, s.Len())
						}
					case "visitor-error":
						if !errors.Is(err, errBail) {
							t.Fatalf("err = %v, want the visitor's", err)
						}
					case "cancel":
						if !errors.Is(err, context.Canceled) {
							t.Fatalf("err = %v, want context.Canceled", err)
						}
					}
					if src.reads.Load() == opened {
						t.Fatal("the query read nothing; the check would be vacuous")
					}
					if ordered && !reflect.DeepEqual(seq, serial[:len(seq)]) {
						t.Fatalf("%d visits, not in the serial scan's sequence", len(seq))
					}
				})
			}
		}
	}
}
