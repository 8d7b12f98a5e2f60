package libbat

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"libbat/internal/core"
	"libbat/internal/leakcheck"
	"libbat/internal/pfs"
)

// TestDatasetQueryCtxStalledLeaf: a Dataset over storage whose leaf reads
// stall indefinitely must return from QueryCtx within the caller's
// deadline, leak nothing, and serve complete results once the stall
// clears — the Dataset-level half of the acceptance criterion.
func TestDatasetQueryCtxStalledLeaf(t *testing.T) {
	leakcheck.Check(t)
	store, total := writeTestDataset(t, "stall", 20*1024)
	fau := pfs.NewFaulty(store, pfs.FaultConfig{})
	ds, err := OpenDataset(fau, "stall")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	ds.SetQueryConfig(QueryConfig{Workers: 2})

	fau.StallReads(core.LeafFileName("stall", 0))
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = ds.QueryCtx(ctx, Query{}, func(Vec3, []float64) error { return nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled QueryCtx = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stalled QueryCtx returned after %v, want bounded by the 200ms deadline", elapsed)
	}

	// Release the stall: the leaf slot must not be wedged or poisoned by
	// the canceled open.
	fau.ReleaseStalls()
	var n int64
	if err := ds.Query(Query{}, func(Vec3, []float64) error {
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != int64(total) {
		t.Fatalf("post-release scan visited %d, want %d", n, total)
	}
}

// TestDatasetQueryCtxDetach: while one query is blocked opening a stalled
// leaf, a second query with a live context for the same leaf must share
// the singleflight slot, detach when its own deadline fires, and — after
// the stall clears — a third query must load the leaf fresh.
func TestDatasetQueryCtxDetach(t *testing.T) {
	leakcheck.Check(t)
	store, total := writeTestDataset(t, "detach", 20*1024)
	fau := pfs.NewFaulty(store, pfs.FaultConfig{})
	ds, err := OpenDataset(fau, "detach")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	fau.StallReads(core.LeafFileName("detach", 0))
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(),
				time.Duration(50+i*25)*time.Millisecond)
			defer cancel()
			err := ds.QueryCtx(ctx, Query{}, func(Vec3, []float64) error { return nil })
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("waiter %d = %v, want DeadlineExceeded", i, err)
			}
		}(i)
	}
	wg.Wait()

	fau.ReleaseStalls()
	n, err := ds.Count(Query{})
	if err != nil || n != int64(total) {
		t.Fatalf("post-detach count = %d, %v; want %d, nil", n, err, total)
	}
}

// TestDatasetHelpersHonorCtx: the whole-dataset helpers run under the
// caller's context, so an ended one stops them with its error.
func TestDatasetHelpersHonorCtx(t *testing.T) {
	store, _ := writeTestDataset(t, "helpers", 20*1024)
	ds, err := OpenDataset(store, "helpers")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ds.ReadAll(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("ReadAll under a cancelled context: error %v; want context.Canceled", err)
	}
	if _, _, err := ds.RadialProfile(ctx, ds.Bounds().Center(), 1, 4, -1, Query{}); !errors.Is(err, context.Canceled) {
		t.Errorf("RadialProfile under a cancelled context: error %v; want context.Canceled", err)
	}
}
