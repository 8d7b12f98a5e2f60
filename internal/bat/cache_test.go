package bat

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"libbat/internal/geom"
)

// fakeTreelet builds a parsedTreelet whose memBytes is exactly 4*n.
func fakeTreelet(n int) *parsedTreelet {
	return &parsedTreelet{x: make([]float32, n)}
}

// loaderOf returns a loader of a fresh 4*n-byte treelet.
func loaderOf(n int) func(context.Context) (*parsedTreelet, error) {
	return func(context.Context) (*parsedTreelet, error) { return fakeTreelet(n), nil }
}

// mustGet looks key up with load and reports whether load ran (a miss),
// requiring get's own report to agree with the miss counter.
func mustGet(t *testing.T, c *Cache, key cacheKey, load func(context.Context) (*parsedTreelet, error)) bool {
	t.Helper()
	before := c.Stats().Misses
	_, loaded, err := c.get(context.Background(), key, load)
	if err != nil {
		t.Fatal(err)
	}
	if missed := c.Stats().Misses > before; loaded != missed {
		t.Fatalf("get reported loaded=%v, but the miss counter moved: %v", loaded, missed)
	}
	return loaded
}

// TestCacheSingleflight: many goroutines racing for the same cold treelet
// must run the loader exactly once and all observe the same pointer.
func TestCacheSingleflight(t *testing.T) {
	c := NewCache()
	var loads, loaders atomic.Int64
	gate := make(chan struct{})
	want := fakeTreelet(8)

	const workers = 16
	var wg sync.WaitGroup
	got := make([]*parsedTreelet, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tl, loaded, err := c.get(context.Background(), cacheKey{0, 42}, func(context.Context) (*parsedTreelet, error) {
				loads.Add(1)
				<-gate // hold every racer in the waiting path
				return want, nil
			})
			if err != nil {
				t.Error(err)
			}
			if loaded {
				loaders.Add(1)
			}
			got[i] = tl
		}(i)
	}
	close(gate)
	wg.Wait()
	if n := loads.Load(); n != 1 {
		t.Fatalf("loader ran %d times, want 1", n)
	}
	if n := loaders.Load(); n != 1 {
		t.Fatalf("%d callers reported running the load, want 1", n)
	}
	for i, tl := range got {
		if tl != want {
			t.Fatalf("goroutine %d got a different treelet pointer", i)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != workers-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d hits", st, workers-1)
	}
}

// TestCacheErrorNotCached: a failed load is reported to every waiter but
// retried on the next lookup instead of poisoning the slot.
func TestCacheErrorNotCached(t *testing.T) {
	c := NewCache()
	key := cacheKey{0, 7}
	boom := errors.New("disk on fire")
	if _, _, err := c.get(context.Background(), key, func(context.Context) (*parsedTreelet, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("failed load left residue: %+v", st)
	}
	want := fakeTreelet(4)
	tl, _, err := c.get(context.Background(), key, func(context.Context) (*parsedTreelet, error) { return want, nil })
	if err != nil || tl != want {
		t.Fatalf("retry after error: got (%v, %v), want (%v, nil)", tl, err, want)
	}
	st := c.Stats()
	if st.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (error loads count as misses)", st.Misses)
	}
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
}

// TestCacheEviction: one byte budget covers every leaf's treelets. Inserts
// past it evict least-recently-used treelets — whichever leaf they belong
// to — the resident bytes never exceed the budget when every treelet fits
// it, and evicted treelets reload transparently.
func TestCacheEviction(t *testing.T) {
	c := NewCache()
	c.SetLimit(800) // two 400-byte treelets
	keys := []cacheKey{{0, 0}, {1, 0}, {2, 5}, {0, 1}, {1, 1}, {2, 6}}
	for i, k := range keys {
		if !mustGet(t, c, k, loaderOf(100)) {
			t.Fatalf("first lookup of %v was a hit", k)
		}
		want := CacheStats{Misses: int64(i + 1), Evictions: int64(max(0, i-1)), Entries: int64(min(i+1, 2))}
		want.Bytes = 400 * want.Entries
		if st := c.Stats(); st != want {
			t.Fatalf("after %d inserts: stats %+v, want %+v", i+1, st, want)
		}
	}
	// Only the two newest survive, in every leaf's key space.
	for _, k := range keys[:4] {
		if _, resident := c.entries[k]; resident {
			t.Fatalf("%v still resident past the budget", k)
		}
	}
	if !mustGet(t, c, keys[0], loaderOf(100)) {
		t.Fatal("evicted treelet was served from cache")
	}

	// Lowering the limit evicts down to it at once; 0 lifts it.
	c.SetLimit(400)
	if st := c.Stats(); st.Entries != 1 || st.Bytes != 400 {
		t.Fatalf("after SetLimit(400): %+v", st)
	}
	c.SetLimit(0)
	for _, k := range keys {
		mustGet(t, c, k, loaderOf(100))
	}
	if st := c.Stats(); st.Entries != int64(len(keys)) {
		t.Fatalf("unbounded cache holds %d of %d treelets", st.Entries, len(keys))
	}
	c.Purge()
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 || len(c.entries) != 0 {
		t.Fatalf("after Purge: %+v, %d map entries", st, len(c.entries))
	}
}

// TestCacheLRUOrder: the victim is exactly the least recently used
// treelet, where a hit counts as a use.
func TestCacheLRUOrder(t *testing.T) {
	c := NewCache()
	c.SetLimit(1200) // three 400-byte treelets
	a, b, d, e := cacheKey{0, 0}, cacheKey{1, 0}, cacheKey{0, 1}, cacheKey{3, 9}
	for _, k := range []cacheKey{a, b, d} {
		mustGet(t, c, k, loaderOf(100))
	}
	if mustGet(t, c, a, loaderOf(100)) { // refresh a: LRU order is now b, d, a
		t.Fatal("resident treelet missed")
	}
	mustGet(t, c, e, loaderOf(100)) // evicts b
	for _, k := range []cacheKey{d, a, e} {
		if mustGet(t, c, k, loaderOf(100)) {
			t.Fatalf("%v was evicted, want victim %v", k, b)
		}
	}
	// Order is now b-less: d, a, e. Reloading b evicts d, the oldest use.
	if !mustGet(t, c, b, loaderOf(100)) {
		t.Fatalf("LRU victim %v still resident", b)
	}
	if _, resident := c.entries[d]; resident {
		t.Fatalf("%v survived; eviction did not take the least recently used", d)
	}
	if st := c.Stats(); st.Evictions != 2 || st.Entries != 3 {
		t.Fatalf("stats %+v, want 2 evictions and 3 entries", st)
	}
}

// TestCacheKeepsReturnedEntry: a treelet larger than the whole budget is
// still returned and stays resident until the next insert — evicting what
// a query is about to traverse would only force an immediate reload.
func TestCacheKeepsReturnedEntry(t *testing.T) {
	c := NewCache()
	c.SetLimit(100)
	big, small := cacheKey{0, 0}, cacheKey{0, 1}
	mustGet(t, c, big, loaderOf(1000))
	if st := c.Stats(); st.Entries != 1 || st.Bytes != 4000 || st.Evictions != 0 {
		t.Fatalf("oversized treelet not kept: %+v", st)
	}
	if mustGet(t, c, big, loaderOf(1000)) {
		t.Fatal("oversized treelet was not served from cache")
	}
	mustGet(t, c, small, loaderOf(10))
	if st := c.Stats(); st.Entries != 1 || st.Bytes != 40 || st.Evictions != 1 {
		t.Fatalf("next insert did not displace the oversized treelet: %+v", st)
	}
}

// TestFileCacheEndToEnd: a limit on a real file's cache keeps queries
// correct while evicting, and the stats reflect warm rescans.
func TestFileCacheEndToEnd(t *testing.T) {
	s, domain := randomSet(8000, 77)
	f, _ := buildAndOpen(t, s, domain, DefaultBuildConfig())
	defer f.Close()

	count := func() int64 {
		var n int64
		if _, err := f.QueryWithConfig(Query{}, QueryConfig{}, func(geom.Vec3, []float64) error {
			n++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return n
	}
	cold := count()
	st := f.cache.Stats()
	if st.Misses == 0 || st.Hits != 0 {
		t.Fatalf("after cold scan: %+v", st)
	}
	if warm := count(); warm != cold {
		t.Fatalf("warm scan visited %d, cold %d", warm, cold)
	}
	st = f.cache.Stats()
	if st.Hits == 0 {
		t.Fatalf("warm scan hit nothing: %+v", st)
	}
	if hr := st.HitRate(); hr <= 0 || hr >= 1 {
		t.Fatalf("hit rate %v out of (0,1)", hr)
	}

	// Squeeze the budget to nothing: only the treelet being returned stays
	// resident, and a rescan reloads every treelet with correct results.
	if f.NumTreelets() < 2 {
		t.Fatalf("need at least 2 treelets, have %d", f.NumTreelets())
	}
	f.cache.SetLimit(1)
	if st = f.cache.Stats(); st.Entries != 0 {
		t.Fatalf("1-byte budget keeps %d treelets with no lookup in progress", st.Entries)
	}
	if n := count(); n != cold {
		t.Fatalf("budget-constrained scan visited %d, want %d", n, cold)
	}
	if after := f.cache.Stats(); after.Entries != 1 || after.Evictions < st.Evictions+int64(f.NumTreelets())-1 {
		t.Fatalf("rescan under a 1-byte budget: %+v (before %+v, %d treelets)", after, st, f.NumTreelets())
	}
}

// TestCacheBytesPinned pins what a full scan of a fixed build charges its
// cache: memBytes of every treelet, which sizes the cache of any workload
// that bounds it by a share of the decoded data (the benchmark's
// cosmo64-cachebound), so how a load lays out its columns must not move it.
func TestCacheBytesPinned(t *testing.T) {
	s, domain := randomSet(20000, 3)
	cfg := DefaultBuildConfig()
	cfg.MaxLeafSize = 16
	f, _ := buildAndOpen(t, s, domain, cfg)
	if _, err := f.Query(context.Background(), Query{}, QueryConfig{Workers: 1}, nil); err != nil {
		t.Fatal(err)
	}
	if st := f.cache.Stats(); st.Entries != 32 || st.Bytes != 624512 {
		t.Fatalf("a full scan left %d treelets of %d bytes in the cache, want 32 of 624512", st.Entries, st.Bytes)
	}
}
