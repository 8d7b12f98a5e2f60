package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"libbat/internal/bat"
	"libbat/internal/meta"
	"libbat/internal/obs"
	"libbat/internal/obs/access"
	"libbat/internal/pfs"
)

// Dataset is a written dataset as every read route sees it: the decoded
// metadata (the leaf table) plus the leaf BAT files, opened lazily and at
// most once each. libbat.Dataset, the collective ReadQueryCtx, the Table
// I/II and Fig 13 readers and batinspect all read through it, so a leaf
// open, a leaf selection and a query record are each made by one function.
//
// A Dataset is safe for concurrent use. Its zero configuration — no cache
// limit, no collector, no recorder, zero QueryConfig — is what the
// collective route runs with.
type Dataset struct {
	store pfs.Storage
	meta  *meta.Meta
	// cache is the one treelet cache every leaf file parses into; the
	// byte budget, the obs counters and the access recorder live on it.
	cache *bat.Cache

	mu    sync.Mutex // guards files and qcfg
	files map[int]*leafSlot
	qcfg  bat.QueryConfig
}

// leafSlot is one leaf file's singleflight slot: ready is closed once f/err
// are set, so concurrent callers needing the same unopened leaf open it
// exactly once and share the handle.
type leafSlot struct {
	ready chan struct{}
	f     *bat.File
	err   error
}

// OpenDataset reads and decodes the metadata file written under base. A
// read that returns fewer bytes than the file's size is an error: decoding
// a zero-padded buffer would blame the checksum for a storage fault.
func OpenDataset(ctx context.Context, store pfs.Storage, base string) (d *Dataset, err error) {
	name := MetaFileName(base)
	f, err := pfs.OpenContext(ctx, store, name)
	if err != nil {
		return nil, err
	}
	// The handle is read-only, but a failing Close can still be the first
	// sign of a flaky mount: surface it instead of dropping it.
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			d, err = nil, fmt.Errorf("core: closing %s: %w", name, cerr)
		}
	}()
	buf := make([]byte, f.Size())
	if n, rerr := pfs.ReadAtContext(ctx, f, buf, 0); n < len(buf) {
		if rerr == nil || rerr == io.EOF {
			rerr = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("core: reading %s: got %d of %d bytes: %w", name, n, len(buf), rerr)
	}
	m, err := meta.Decode(buf)
	if err != nil {
		return nil, err
	}
	return &Dataset{store: store, meta: m, cache: bat.NewCache(), files: make(map[int]*leafSlot)}, nil
}

// Meta returns the dataset's decoded top-level metadata.
func (d *Dataset) Meta() *meta.Meta { return d.meta }

// Select returns the indices of the leaf files q can touch: the
// Aggregation Tree prunes spatially and by the global attribute bitmaps
// before any file is contacted.
func (d *Dataset) Select(q bat.Query) []int {
	return d.meta.SelectLeaves(q.Bounds, q.Filters)
}

// Leaf opens (and caches) leaf file li. Concurrent callers for the same
// unopened leaf block on one open; open errors are not cached, so the next
// caller retries. The singleflight carries the same detach semantics as
// the treelet cache: a canceled waiter returns ctx.Err() without touching
// the shared slot, and a waiter whose own ctx is live retries after the
// opening goroutine died of its caller's cancellation. An index outside
// the leaf table, as a peer's query may carry, is an error.
func (d *Dataset) Leaf(ctx context.Context, li int) (*bat.File, error) {
	if li < 0 || li >= len(d.meta.Leaves) {
		return nil, fmt.Errorf("core: leaf %d outside the dataset's %d leaves", li, len(d.meta.Leaves))
	}
	var s *leafSlot
	for {
		d.mu.Lock()
		var ok bool
		if s, ok = d.files[li]; !ok {
			break
		}
		d.mu.Unlock()
		select {
		case <-s.ready:
		case <-ctx.Done():
			return nil, ctx.Err() // detach; the open continues without us
		}
		if s.err == nil {
			return s.f, nil
		}
		if pfs.IsContextErr(s.err) && ctx.Err() == nil {
			continue // the opener was canceled, we were not: retry
		}
		return nil, s.err
	}
	s = &leafSlot{ready: make(chan struct{})}
	d.files[li] = s
	d.mu.Unlock()

	s.f, s.err = d.openLeaf(ctx, li)
	if s.err != nil {
		d.mu.Lock()
		if d.files[li] == s {
			delete(d.files, li)
		}
		d.mu.Unlock()
	}
	close(s.ready)
	return s.f, s.err
}

// openLeaf is the one place a leaf file handle becomes a bat.File, attached
// to the dataset's cache under its leaf index. The metadata's particle count
// for the leaf is trusted only once the file agrees with it: the file's own
// count is bounded by its size.
func (d *Dataset) openLeaf(ctx context.Context, li int) (*bat.File, error) {
	lm := d.meta.Leaves[li]
	h, err := pfs.OpenContext(ctx, d.store, lm.FileName)
	if err != nil {
		return nil, fmt.Errorf("core: opening leaf %d: %w", li, err)
	}
	f, err := bat.DecodeLeaf(ctx, h, h.Size(), d.cache, li)
	if err == nil && int64(f.NumParticles) != lm.Count {
		err = fmt.Errorf("file holds %d particles, metadata says %d", f.NumParticles, lm.Count)
	}
	if err != nil {
		if cerr := h.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return nil, fmt.Errorf("core: parsing leaf %d: %w", li, err)
	}
	f.SetCloser(h)
	return f, nil
}

// Query traverses the given leaves in order under the dataset's
// QueryConfig, invoking visit for every particle matching q, stops at the
// first leaf that fails, and returns the leaves' QueryStats summed.
// Progressive quality windows apply per leaf. With a recorder attached,
// the call is logged as one record under the source tag ctx carries
// (access.WithSource), "dataset" if none, and touches each filter's
// attribute once.
func (d *Dataset) Query(ctx context.Context, leaves []int, q bat.Query, visit bat.Visitor) (bat.QueryStats, error) {
	d.mu.Lock()
	cfg := d.qcfg
	d.mu.Unlock()

	rec := d.cache.AccessRecorder()
	var start time.Time
	if rec != nil {
		start = time.Now()
	}
	var total bat.QueryStats
	var qerr error
	for _, li := range leaves {
		f, err := d.Leaf(ctx, li)
		if err == nil {
			var st bat.QueryStats
			st, err = f.Query(ctx, q, cfg, visit)
			total.Add(st)
		}
		if err != nil {
			qerr = err
			break
		}
	}
	if rec == nil {
		return total, qerr
	}
	var ratio float64
	if total.Treelets > 0 {
		ratio = float64(total.Treelets-total.Loads) / float64(total.Treelets)
	}
	filters := access.FilterRanges(d.meta.Schema, q.Filters)
	for _, f := range filters {
		rec.TouchAttr(f.Attr, 1)
	}
	rec.Record(access.QueryRecord{
		Source:         access.SourceOf(ctx, "dataset"),
		Box:            access.BoxRecord(q.Bounds),
		Filters:        filters,
		PrevQuality:    q.PrevQuality,
		Quality:        q.Quality,
		Workers:        cfg.Workers,
		Treelets:       total.Treelets,
		Particles:      total.Visited,
		Pruned:         total.PrunedSubtrees,
		FalsePositives: total.FalsePositives,
		Seconds:        time.Since(start).Seconds(),
		CacheHitRatio:  ratio,
	})
	return total, qerr
}

// Close releases all opened leaf files, waiting for any still mid-open, and
// empties the treelet cache. The Dataset stays usable: leaves reopen on
// demand.
func (d *Dataset) Close() error {
	d.mu.Lock()
	files := d.files
	d.files = make(map[int]*leafSlot)
	d.mu.Unlock()
	var errs []error
	for _, s := range files {
		<-s.ready
		if s.err == nil {
			errs = append(errs, s.f.Close())
		}
	}
	d.cache.Purge()
	return errors.Join(errs...)
}

// NumOpen returns how many leaf files are open (or mid-open) right now.
func (d *Dataset) NumOpen() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.files)
}

// SetQueryConfig sets the traversal configuration passed to every leaf
// query. In-flight queries keep the configuration they started with.
func (d *Dataset) SetQueryConfig(cfg bat.QueryConfig) {
	d.mu.Lock()
	d.qcfg = cfg
	d.mu.Unlock()
}

// SetCacheLimit bounds the treelet-cache memory of the whole dataset, all
// leaf files together, to bytes (0 = unbounded); see bat.Cache.SetLimit.
func (d *Dataset) SetCacheLimit(bytes int64) { d.cache.SetLimit(bytes) }

// SetObserver mirrors the treelet cache counters into col.
func (d *Dataset) SetObserver(col *obs.Collector, labels ...obs.Label) {
	d.cache.SetObserver(col, labels...)
}

// SetAccessRecorder attaches an access-telemetry recorder to the leaf
// files' queries and loads and to the query log; nil detaches.
func (d *Dataset) SetAccessRecorder(rec *access.Recorder) { d.cache.SetAccessRecorder(rec) }

// AccessRecorder returns the attached recorder (nil when telemetry is off).
func (d *Dataset) AccessRecorder() *access.Recorder { return d.cache.AccessRecorder() }

// CacheStats snapshots the dataset's treelet cache counters.
func (d *Dataset) CacheStats() bat.CacheStats { return d.cache.Stats() }
