package core

import (
	"context"
	"errors"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"libbat/internal/bat"
	"libbat/internal/geom"
	"libbat/internal/leakcheck"
	"libbat/internal/pfs"
	"libbat/internal/workloads"
)

// trackedStore counts, on top of a fault injector, the opens that reach
// storage, the handles they returned, and the closes of those handles.
type trackedStore struct {
	*pfs.Faulty
	opens, handles, closes atomic.Int64
}

func (s *trackedStore) Open(name string) (pfs.File, error) {
	return s.OpenCtx(context.Background(), name)
}

func (s *trackedStore) OpenCtx(ctx context.Context, name string) (pfs.File, error) {
	s.opens.Add(1)
	f, err := s.Faulty.OpenCtx(ctx, name)
	if err != nil {
		return nil, err
	}
	s.handles.Add(1)
	return &trackedFile{File: f, s: s}, nil
}

type trackedFile struct {
	pfs.File
	s *trackedStore
}

func (f *trackedFile) Close() error {
	f.s.closes.Add(1)
	return f.File.Close()
}

// waitingCtx closes waiting the first time Done is called. Leaf calls Done
// only to wait on another caller's open, so the signal means "this caller
// holds the slot and is about to block on it".
type waitingCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func newWaitingCtx(parent context.Context) *waitingCtx {
	return &waitingCtx{Context: parent, waiting: make(chan struct{})}
}

func (c *waitingCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

func waitStalled(t *testing.T, fau *pfs.Faulty, n int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); fau.Stalled() < n; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d opens reached the stall", fau.Stalled(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

type leafResult struct {
	f   *bat.File
	err error
}

// leafAsync calls ds.Leaf(ctx, 0) on its own goroutine.
func leafAsync(ctx context.Context, ds *Dataset) <-chan leafResult {
	ch := make(chan leafResult, 1)
	go func() {
		f, err := ds.Leaf(ctx, 0)
		ch <- leafResult{f, err}
	}()
	return ch
}

// TestDatasetLeafSingleflight pins the one leaf singleflight every read
// route shares: libbat.Dataset and the collective read's serves both
// open leaves through Dataset.Leaf.
func TestDatasetLeafSingleflight(t *testing.T) {
	w, err := workloads.NewUniform(4, 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	mem := pfs.NewMem()
	runWrite(t, w, 0, mem, "sf", DefaultWriteConfig(16*1024))
	leaf0 := LeafFileName("sf", 0)
	bg := context.Background()

	for _, tc := range []struct {
		name string
		run  func(t *testing.T, ds *Dataset, st *trackedStore)
		// wantOpens is how many opens of leaf 0 must have reached storage.
		wantOpens int64
	}{
		{"concurrent callers share one open", func(t *testing.T, ds *Dataset, st *trackedStore) {
			st.StallOpens(leaf0)
			opener := leafAsync(bg, ds)
			waitStalled(t, st.Faulty, 1)
			var waiters []<-chan leafResult
			for i := 0; i < 7; i++ {
				ctx := newWaitingCtx(bg)
				waiters = append(waiters, leafAsync(ctx, ds))
				<-ctx.waiting
			}
			st.ReleaseStalls()
			first := <-opener
			if first.err != nil {
				t.Fatal(first.err)
			}
			for i, ch := range waiters {
				if r := <-ch; r.err != nil || r.f != first.f {
					t.Errorf("waiter %d got (%p, %v), want the opener's file %p", i, r.f, r.err, first.f)
				}
			}
		}, 1},

		{"canceled waiter detaches", func(t *testing.T, ds *Dataset, st *trackedStore) {
			st.StallOpens(leaf0)
			opener := leafAsync(bg, ds)
			waitStalled(t, st.Faulty, 1)
			parent, cancel := context.WithCancel(bg)
			ctx := newWaitingCtx(parent)
			waiter := leafAsync(ctx, ds)
			<-ctx.waiting
			cancel()
			if r := <-waiter; !errors.Is(r.err, context.Canceled) {
				t.Fatalf("canceled waiter = %v, want its own context.Canceled", r.err)
			}
			st.ReleaseStalls()
			first := <-opener
			if first.err != nil {
				t.Fatalf("the open did not complete for the opener: %v", first.err)
			}
			if f, err := ds.Leaf(bg, 0); err != nil || f != first.f {
				t.Fatalf("later caller got (%p, %v), want the cached file %p", f, err, first.f)
			}
		}, 1},

		{"live waiter retries after a canceled opener", func(t *testing.T, ds *Dataset, st *trackedStore) {
			st.StallOpens(leaf0)
			octx, cancel := context.WithCancel(bg)
			opener := leafAsync(octx, ds)
			waitStalled(t, st.Faulty, 1)
			ctx := newWaitingCtx(bg)
			waiter := leafAsync(ctx, ds)
			<-ctx.waiting
			cancel()
			if r := <-opener; !errors.Is(r.err, context.Canceled) {
				t.Fatalf("canceled opener = %v, want context.Canceled", r.err)
			}
			// The waiter must now be the opener, stalled in its own open.
			waitStalled(t, st.Faulty, 2)
			st.ReleaseStalls()
			if r := <-waiter; r.err != nil {
				t.Fatalf("live waiter inherited the opener's fate: %v", r.err)
			}
		}, 2},

		{"open error is not cached", func(t *testing.T, ds *Dataset, st *trackedStore) {
			st.FailNextOpens(leaf0, 1)
			if _, err := ds.Leaf(bg, 0); !errors.Is(err, pfs.ErrInjected) {
				t.Fatalf("first open = %v, want the injected fault", err)
			}
			if n := ds.NumOpen(); n != 0 {
				t.Fatalf("failed open left %d slots behind", n)
			}
			if _, err := ds.Leaf(bg, 0); err != nil {
				t.Fatalf("retry after a failed open: %v", err)
			}
		}, 2},

		{"Close waits out a stalled open", func(t *testing.T, ds *Dataset, st *trackedStore) {
			st.StallOpens(leaf0)
			opener := leafAsync(bg, ds)
			waitStalled(t, st.Faulty, 1)
			closed := make(chan error, 1)
			go func() { closed <- ds.Close() }()
			select {
			case err := <-closed:
				t.Fatalf("Close returned (%v) while the open was still stalled", err)
			case <-time.After(20 * time.Millisecond):
			}
			st.ReleaseStalls()
			if r := <-opener; r.err != nil {
				t.Fatal(r.err)
			}
			if err := <-closed; err != nil {
				t.Fatal(err)
			}
			// Close owned the mid-open file: its handle is already released.
			if h, c := st.handles.Load(), st.closes.Load(); h != 1 || c != 1 {
				t.Fatalf("Close returned with %d handles open and %d closed, want 1 and 1", h, c)
			}
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leakcheck.Check(t)
			st := &trackedStore{Faulty: pfs.NewFaulty(mem, pfs.FaultConfig{})}
			ds, err := OpenDataset(bg, st, "sf")
			if err != nil {
				t.Fatal(err)
			}
			st.opens.Store(0)
			st.handles.Store(0)
			st.closes.Store(0)
			tc.run(t, ds, st)
			if err := ds.Close(); err != nil {
				t.Fatal(err)
			}
			if got := st.opens.Load(); got != tc.wantOpens {
				t.Errorf("%d opens reached storage, want %d", got, tc.wantOpens)
			}
			if h, c := st.handles.Load(), st.closes.Load(); h != c {
				t.Errorf("storage returned %d handles, %d were closed", h, c)
			}
		})
	}
}

// shortMeta serves the metadata file one byte short, the way a truncated
// object or a flaky mount would.
type shortMeta struct{ pfs.Storage }

func (s shortMeta) Open(name string) (pfs.File, error) {
	f, err := s.Storage.Open(name)
	if err != nil {
		return nil, err
	}
	return shortFile{f}, nil
}

type shortFile struct{ pfs.File }

func (f shortFile) ReadAt(p []byte, off int64) (int, error) {
	n, _ := f.File.ReadAt(p[:len(p)-1], off)
	return n, io.EOF
}

// TestOpenDatasetShortRead: a metadata read that comes back shorter than
// the file's size is reported as such on every route, not decoded from a
// zero-padded buffer.
func TestOpenDatasetShortRead(t *testing.T) {
	w, err := workloads.NewUniform(2, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	mem := pfs.NewMem()
	runWrite(t, w, 0, mem, "short", DefaultWriteConfig(64*1024))
	_, err = OpenDataset(context.Background(), shortMeta{mem}, "short")
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("OpenDataset over a short read = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestDatasetLeafOutOfRange: a leaf index outside the leaf table, such as
// one a peer's query carries, is an error from Dataset.Query, not a panic
// in the rank serving it.
func TestDatasetLeafOutOfRange(t *testing.T) {
	w, err := workloads.NewUniform(4, 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	mem := pfs.NewMem()
	runWrite(t, w, 0, mem, "range", DefaultWriteConfig(16*1024))
	ds, err := OpenDataset(context.Background(), mem, "range")
	if err != nil {
		t.Fatal(err)
	}
	n := len(ds.Meta().Leaves)
	for _, li := range []int{-1, n} {
		_, err := ds.Query(context.Background(), []int{li}, bat.Query{},
			func(geom.Vec3, []float64) error { return nil })
		if err == nil || !strings.Contains(err.Error(), "outside the dataset's") {
			t.Errorf("Query of leaf %d of %d = %v, want an out-of-range error", li, n, err)
		}
	}
}
