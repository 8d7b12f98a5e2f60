// The treelet cache: the concurrency core of the read path. Parsed treelets
// are immutable once loaded, so any number of query goroutines may share
// them; the cache's job is to hand out those shared pointers under
// concurrent access, parse each cold treelet exactly once no matter how
// many goroutines ask for it (singleflight), and keep the bytes held in
// memory within one budget by LRU eviction.
//
// A dataset has one Cache for all of its leaf files — the paper reads a
// dataset "as if it were one file" (§III-D), and a budget only holds if it
// is enforced in one place. One mutex guards the map, the LRU list, the
// byte count and the counters: a lookup happens once per candidate treelet
// of a query, orders of magnitude below what one lock serves, and loads
// (storage read, CRC, decode, parse) run outside it.
package bat

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"

	"libbat/internal/obs"
	"libbat/internal/obs/access"
	"libbat/internal/pfs"
)

// CacheStats is a snapshot of a treelet cache's counters.
type CacheStats struct {
	Hits      int64 // lookups served from a resident treelet
	Misses    int64 // lookups that had to parse (singleflight-deduplicated)
	Evictions int64 // treelets dropped to respect the byte budget
	Entries   int64 // treelets currently resident
	Bytes     int64 // in-memory bytes of resident treelets
}

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// cacheKey names one treelet of one leaf file of the dataset.
type cacheKey struct{ leaf, treelet int }

// cacheEntry is one treelet's slot. ready is closed once t/err are set;
// goroutines that lose the singleflight race wait on it instead of parsing.
type cacheEntry struct {
	key   cacheKey
	ready chan struct{}
	t     *parsedTreelet
	err   error
	bytes int64
	elem  *list.Element // position in the LRU list; nil while loading
}

// Cache is the size-bounded, singleflight treelet cache shared by the leaf
// files of one dataset (DecodeLeaf attaches a File to it). It also carries
// what the files of a dataset share on the read path: the obs counters and
// the access recorder. Safe for concurrent use.
type Cache struct {
	// access is the optional access-telemetry recorder (nil = disabled:
	// every call on it no-ops). Queries record on it each treelet they
	// touch and whether they loaded it.
	access atomic.Pointer[access.Recorder]

	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
	lru     list.List // front = most recently used; values are *cacheEntry
	limit   int64     // byte budget; 0 = unbounded
	bytes   int64

	hits, misses, evictions int64
	// Optional obs mirrors of the counters above; nil-safe no-ops when
	// telemetry is off.
	obsHits, obsMisses, obsEvictions *obs.Counter
}

// NewCache returns an empty, unbounded cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[cacheKey]*cacheEntry)}
}

// SetLimit bounds the cache to limit bytes of parsed treelets (0, the
// default, is unbounded), evicting least-recently-used treelets down to
// it. The treelet a lookup is about to return is never evicted, so the
// resident bytes can exceed the limit by at most one treelet.
func (c *Cache) SetLimit(limit int64) {
	c.mu.Lock()
	c.limit = limit
	c.evictLocked(nil)
	c.mu.Unlock()
}

// SetObserver mirrors the hit/miss/eviction counters into col as
// bat_treelet_cache_{hits,misses,evictions}_total, tagged with the given
// labels; nil col detaches.
func (c *Cache) SetObserver(col *obs.Collector, labels ...obs.Label) {
	hits := col.Counter("bat_treelet_cache_hits_total", labels...)
	misses := col.Counter("bat_treelet_cache_misses_total", labels...)
	evictions := col.Counter("bat_treelet_cache_evictions_total", labels...)
	c.mu.Lock()
	c.obsHits, c.obsMisses, c.obsEvictions = hits, misses, evictions
	c.mu.Unlock()
}

// SetAccessRecorder attaches an access-telemetry recorder; nil detaches.
func (c *Cache) SetAccessRecorder(rec *access.Recorder) { c.access.Store(rec) }

// AccessRecorder returns the attached recorder (nil when telemetry is off).
func (c *Cache) AccessRecorder() *access.Recorder { return c.access.Load() }

// Stats snapshots the counters and residency.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   int64(c.lru.Len()),
		Bytes:     c.bytes,
	}
}

// Purge drops every resident treelet (the counters keep counting). A load
// still in flight lands in the cache when it completes.
func (c *Cache) Purge() {
	c.mu.Lock()
	for el := c.lru.Front(); el != nil; el = el.Next() {
		delete(c.entries, el.Value.(*cacheEntry).key)
	}
	c.lru.Init()
	c.bytes = 0
	c.mu.Unlock()
}

// get returns the treelet under key, loading it via load on a miss, and
// whether this call ran the load. Concurrent calls for the same cold
// treelet run load exactly once; the others block until it completes and
// share the result, which counts as a hit for them. Load errors are
// returned to every waiter but not cached, so a transient I/O failure is
// retried on the next lookup.
//
// Cancellation semantics: a waiter whose ctx ends detaches — it returns
// ctx.Err() immediately while the in-flight load keeps running for the
// remaining waiters, so one impatient query never poisons the shared
// result. Conversely, when the LOADER dies of its own caller's
// cancellation, waiters whose contexts are still live must not inherit
// that error: the failed entry was already dropped (errors are never
// cached), so they loop and load afresh under their own context.
func (c *Cache) get(ctx context.Context, key cacheKey, load func(context.Context) (*parsedTreelet, error)) (*parsedTreelet, bool, error) {
	c.mu.Lock()
	for {
		e, ok := c.entries[key]
		if !ok {
			break
		}
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		} else {
			c.mu.Unlock()
			select {
			case <-e.ready:
			case <-ctx.Done():
				return nil, false, ctx.Err() // detach; the load continues without us
			}
			c.mu.Lock()
		}
		if e.err == nil {
			c.hits++
			c.obsHits.Inc()
			c.mu.Unlock()
			return e.t, false, nil
		}
		if pfs.IsContextErr(e.err) && ctx.Err() == nil {
			continue // the loader was canceled, we were not: retry
		}
		c.mu.Unlock()
		return nil, false, e.err
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	c.entries[key] = e
	c.misses++
	c.obsMisses.Inc()
	c.mu.Unlock()

	t, err := load(ctx)

	c.mu.Lock()
	e.t, e.err = t, err
	if err != nil {
		delete(c.entries, key)
	} else {
		e.bytes = t.memBytes()
		e.elem = c.lru.PushFront(e)
		c.bytes += e.bytes
		c.evictLocked(e)
	}
	c.mu.Unlock()
	close(e.ready)
	return t, true, err
}

// evictLocked drops least-recently-used treelets until the cache fits its
// byte budget. The just-inserted treelet (keep) survives even if it alone
// exceeds the budget — evicting the treelet a query is about to traverse
// would only force an immediate reload.
func (c *Cache) evictLocked(keep *cacheEntry) {
	if c.limit <= 0 {
		return
	}
	for c.bytes > c.limit {
		back := c.lru.Back()
		if back == nil || back.Value == keep {
			return
		}
		victim := c.lru.Remove(back).(*cacheEntry)
		delete(c.entries, victim.key)
		c.bytes -= victim.bytes
		c.evictions++
		c.obsEvictions.Inc()
	}
}

// memBytes estimates the in-memory footprint of a parsed treelet: its nodes
// and their bitmap column, the three position arrays, and the attribute
// columns. Used for the cache byte budget.
func (t *parsedTreelet) memBytes() int64 {
	const nodeBytes, bitmapBytes = 24, 4 // a node, a bitmap.Bitmap
	b := int64(len(t.nodes))*nodeBytes + int64(len(t.bitmaps))*bitmapBytes
	b += int64(len(t.x)+len(t.y)+len(t.z)) * 4
	for _, a := range t.attrs {
		b += int64(len(a)) * 8
	}
	return b
}
