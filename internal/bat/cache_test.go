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

// TestCacheSingleflight: many goroutines racing for the same cold treelet
// must run the loader exactly once and all observe the same pointer.
func TestCacheSingleflight(t *testing.T) {
	c := newTreeletCache()
	var loads atomic.Int64
	gate := make(chan struct{})
	want := fakeTreelet(8)

	const workers = 16
	var wg sync.WaitGroup
	got := make([]*parsedTreelet, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tl, err := c.get(context.Background(), 42, func(context.Context) (*parsedTreelet, error) {
				loads.Add(1)
				<-gate // hold every racer in the waiting path
				return want, nil
			})
			if err != nil {
				t.Error(err)
			}
			got[i] = tl
		}(i)
	}
	close(gate)
	wg.Wait()
	if n := loads.Load(); n != 1 {
		t.Fatalf("loader ran %d times, want 1", n)
	}
	for i, tl := range got {
		if tl != want {
			t.Fatalf("goroutine %d got a different treelet pointer", i)
		}
	}
	st := c.stats()
	if st.Misses != 1 || st.Hits != workers-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d hits", st, workers-1)
	}
}

// TestCacheErrorNotCached: a failed load is reported to every waiter but
// retried on the next lookup instead of poisoning the slot.
func TestCacheErrorNotCached(t *testing.T) {
	c := newTreeletCache()
	boom := errors.New("disk on fire")
	if _, err := c.get(context.Background(), 7, func(context.Context) (*parsedTreelet, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
	want := fakeTreelet(4)
	tl, err := c.get(context.Background(), 7, func(context.Context) (*parsedTreelet, error) { return want, nil })
	if err != nil || tl != want {
		t.Fatalf("retry after error: got (%v, %v), want (%v, nil)", tl, err, want)
	}
	st := c.stats()
	if st.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (error loads count as misses)", st.Misses)
	}
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
}

// TestCacheEviction: with a byte budget set, the cache evicts
// least-recently-used treelets, stays within bounds, and reloads evicted
// treelets transparently.
func TestCacheEviction(t *testing.T) {
	c := newTreeletCache()
	// One shard holds all multiples of cacheShards... instead pick treelet
	// indices that land in one shard so the per-shard budget is exercised
	// deterministically.
	shard := c.shardOf(0)
	var sameShard []int
	for ti := 0; len(sameShard) < 6; ti++ {
		if c.shardOf(ti) == shard {
			sameShard = append(sameShard, ti)
		}
	}
	// Each fake treelet is 400 bytes; budget two per shard.
	c.limit.Store(800 * cacheShards)
	for _, ti := range sameShard {
		if _, err := c.get(context.Background(), ti, func(context.Context) (*parsedTreelet, error) { return fakeTreelet(100), nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := c.stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions with %d same-shard inserts over a 2-treelet budget; stats %+v", len(sameShard), st)
	}
	if st.Bytes > 800 {
		t.Fatalf("resident bytes %d exceed the 800-byte shard budget", st.Bytes)
	}
	// The oldest same-shard treelet must have been evicted; re-getting it
	// is a miss that reloads.
	misses := st.Misses
	var reloaded atomic.Bool
	if _, err := c.get(context.Background(), sameShard[0], func(context.Context) (*parsedTreelet, error) {
		reloaded.Store(true)
		return fakeTreelet(100), nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reloaded.Load() {
		t.Fatal("evicted treelet was served from cache")
	}
	if got := c.stats().Misses; got != misses+1 {
		t.Fatalf("misses = %d, want %d", got, misses+1)
	}
}

// TestCacheLRUOrder: touching a resident treelet protects it from the next
// eviction round.
func TestCacheLRUOrder(t *testing.T) {
	c := newTreeletCache()
	shard := c.shardOf(0)
	var tis []int
	for ti := 0; len(tis) < 3; ti++ {
		if c.shardOf(ti) == shard {
			tis = append(tis, ti)
		}
	}
	c.limit.Store(800 * cacheShards) // two 400-byte treelets per shard
	load := func(context.Context) (*parsedTreelet, error) { return fakeTreelet(100), nil }
	mustGet := func(ti int) {
		t.Helper()
		if _, err := c.get(context.Background(), ti, load); err != nil {
			t.Fatal(err)
		}
	}
	mustGet(tis[0])
	mustGet(tis[1])
	mustGet(tis[0]) // refresh 0: now 1 is least recently used
	mustGet(tis[2]) // evicts 1
	misses := c.stats().Misses
	mustGet(tis[0]) // still resident: no new miss
	if got := c.stats().Misses; got != misses {
		t.Fatalf("recently-used treelet was evicted (misses %d -> %d)", misses, got)
	}
	mustGet(tis[1]) // evicted: one new miss
	if got := c.stats().Misses; got != misses+1 {
		t.Fatalf("LRU victim not evicted (misses %d -> %d)", misses, got)
	}
}

// TestFileCacheEndToEnd: SetCacheLimit on a real file keeps queries
// correct while evicting, and CacheStats reflects warm rescans.
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
	st := f.CacheStats()
	if st.Misses == 0 || st.Hits != 0 {
		t.Fatalf("after cold scan: %+v", st)
	}
	if warm := count(); warm != cold {
		t.Fatalf("warm scan visited %d, cold %d", warm, cold)
	}
	st = f.CacheStats()
	if st.Hits == 0 {
		t.Fatalf("warm scan hit nothing: %+v", st)
	}
	if hr := st.HitRate(); hr <= 0 || hr >= 1 {
		t.Fatalf("hit rate %v out of (0,1)", hr)
	}

	// Now squeeze the budget to nothing and rescan: evictions must occur
	// (pigeonhole: more treelets than shards, so some shard holds two) and
	// results must stay correct.
	if len(f.leaves) <= cacheShards {
		t.Skipf("only %d treelets; need > %d to force same-shard eviction", len(f.leaves), cacheShards)
	}
	f.SetCacheLimit(1)
	if n := count(); n != cold {
		t.Fatalf("budget-constrained scan visited %d, want %d", n, cold)
	}
	st = f.CacheStats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a 1-byte budget: %+v", st)
	}
}
