// Package access is the read-path access-telemetry layer: it observes
// *which* data queries touch, not just how long they take. A per-dataset
// Recorder captures per-treelet hit/byte/load counts, a coarse spatial
// heatmap binned on a fixed-depth Morton grid of the dataset bounds,
// per-attribute touch counts, and a bounded ring of recent structured query
// records. The telemetry lives in memory only: snapshots are exported live
// as JSON or Prometheus series (batserve's /debug/access and
// /debug/queries) and are gone when the process exits.
//
// Like internal/obs, the package is nil-safe when disabled: every method on
// a nil *Recorder (or nil *Registry) is a no-op, so instrumented hot paths
// pay only a nil check. All methods are safe for concurrent use.
package access

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"libbat/internal/geom"
	"libbat/internal/morton"
	"libbat/internal/particles"
)

// Telemetry shape. DefGridBits is the heatmap depth in bits per axis: a
// 16x16x16 grid (4096 cells, 32 KiB of counters), coarse enough to be cheap
// and fine enough to localize a hot region. DefRingSize is the length of
// the recent-query ring.
const (
	DefGridBits = 4
	DefRingSize = 256
)

// FilterRange is one attribute filter of a recorded query, by attribute
// name so records stay meaningful across schema reorderings.
type FilterRange struct {
	Attr string  `json:"attr"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// FilterRanges names a query's attribute filters for the query log; an
// index outside the schema is logged as "attr<i>". F is the query layer's
// filter type, which this package cannot import.
func FilterRanges[F ~struct {
	Attr     int
	Min, Max float64
}](schema particles.Schema, filters []F) []FilterRange {
	if len(filters) == 0 {
		return nil
	}
	out := make([]FilterRange, len(filters))
	for i, flt := range filters {
		f := struct {
			Attr     int
			Min, Max float64
		}(flt)
		name := fmt.Sprintf("attr%d", f.Attr)
		if f.Attr >= 0 && f.Attr < schema.NumAttrs() {
			name = schema.Attrs[f.Attr].Name
		}
		out[i] = FilterRange{Attr: name, Min: f.Min, Max: f.Max}
	}
	return out
}

type sourceKey struct{}

// WithSource tags every query issued under the returned context with the
// caller that originated it (e.g. "batserve:/points"), for the Source field
// of its query-log record.
func WithSource(ctx context.Context, source string) context.Context {
	return context.WithValue(ctx, sourceKey{}, source)
}

// SourceOf returns the tag WithSource attached to ctx, or def when none.
func SourceOf(ctx context.Context, def string) string {
	if s, ok := ctx.Value(sourceKey{}).(string); ok {
		return s
	}
	return def
}

// QueryRecord is one structured entry of the recent-query ring: what the
// query asked for and what answering it cost.
type QueryRecord struct {
	UnixNano int64  `json:"unix_nano"`
	Source   string `json:"source,omitempty"` // e.g. "dataset", "batserve:/points"

	// Box is the query bounds as [x0,y0,z0,x1,y1,z1]; nil for full-domain.
	Box         *[6]float64   `json:"box,omitempty"`
	Filters     []FilterRange `json:"filters,omitempty"`
	PrevQuality float64       `json:"prev_quality,omitempty"`
	Quality     float64       `json:"quality,omitempty"`
	Workers     int           `json:"workers,omitempty"`

	Treelets       int64   `json:"treelets"`
	Particles      int64   `json:"particles"`
	Pruned         int64   `json:"pruned,omitempty"`
	FalsePositives int64   `json:"false_positives,omitempty"`
	Seconds        float64 `json:"seconds"`
	CacheHitRatio  float64 `json:"cache_hit_ratio"`
}

// BoxRecord flattens a geom.Box into the QueryRecord wire form.
func BoxRecord(b *geom.Box) *[6]float64 {
	if b == nil {
		return nil
	}
	return &[6]float64{b.Lower.X, b.Lower.Y, b.Lower.Z, b.Upper.X, b.Upper.Y, b.Upper.Z}
}

// treeletCounts accumulates one treelet's access counters.
type treeletCounts struct {
	hits  int64 // query traversals that touched the treelet
	bytes int64 // on-disk bytes those traversals covered
	loads int64 // traversals that parsed the treelet from storage
}

// Recorder captures the observed access pattern of one dataset. Create
// with New; a nil *Recorder is the disabled state and every method no-ops.
//
// One mutex guards all of it, as one guards bat.Cache: a query calls the
// recorder once per treelet it walks and once when it ends, far below what
// one lock serves, and Snapshot copies a consistent state under it.
type Recorder struct {
	name   string
	bounds geom.Box

	mu       sync.Mutex
	treelets map[uint64]*treeletCounts
	cells    [1 << (3 * DefGridBits)]int64 // heatmap, Morton-ordered cells
	attrs    map[string]int64
	queries  int64                    // records ever appended
	ring     [DefRingSize]QueryRecord // record i sits at i % DefRingSize
}

// New creates an enabled Recorder for the named dataset. bounds is the
// dataset's spatial domain — the reference frame of the heatmap grid.
func New(name string, bounds geom.Box) *Recorder {
	// A degenerate domain (zero extent on an axis) would make Morton
	// quantization divide by zero; inflate such axes so every point lands
	// in cell 0 along them instead.
	sz := bounds.Size()
	if sz.X <= 0 {
		bounds.Upper.X = bounds.Lower.X + 1
	}
	if sz.Y <= 0 {
		bounds.Upper.Y = bounds.Lower.Y + 1
	}
	if sz.Z <= 0 {
		bounds.Upper.Z = bounds.Lower.Z + 1
	}
	return &Recorder{
		name:     name,
		bounds:   bounds,
		treelets: map[uint64]*treeletCounts{},
		attrs:    map[string]int64{},
	}
}

// Name returns the dataset name the recorder observes ("" on nil).
func (r *Recorder) Name() string {
	if r == nil {
		return ""
	}
	return r.name
}

// treeletKey packs a (leaf file, treelet) pair into one map key.
func treeletKey(leaf, treelet int) uint64 {
	return uint64(uint32(leaf))<<32 | uint64(uint32(treelet))
}

// cellOf maps a point to its heatmap cell: the top 3*DefGridBits bits of
// the point's Morton code relative to the dataset bounds, so cell indices
// are Morton prefixes and morton.CellBounds recovers each cell's box.
func (r *Recorder) cellOf(p geom.Vec3) uint32 {
	return uint32(morton.FromPoint(p, r.bounds).Subprefix(3 * DefGridBits))
}

// Treelet records one query traversal touching a treelet: hit and byte
// counts for the (leaf, treelet) pair, a load when the traversal parsed it
// from storage rather than finding it cached (so hits/loads per treelet is
// the cache-thrash signal), and a heatmap increment at center (the
// treelet's spatial bounds center).
func (r *Recorder) Treelet(leaf, treelet int, bytes int64, loaded bool, center geom.Vec3) {
	if r == nil {
		return
	}
	cell := r.cellOf(center)
	key := treeletKey(leaf, treelet)
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.treelets[key]
	if c == nil {
		c = &treeletCounts{}
		r.treelets[key] = c
	}
	c.hits++
	c.bytes += bytes
	if loaded {
		c.loads++
	}
	r.cells[cell]++
}

// TouchAttr records n accesses of the named attribute by a query's filters.
func (r *Recorder) TouchAttr(name string, n int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.attrs[name] += n
	r.mu.Unlock()
}

// Record appends one query record to the ring (overwriting the oldest when
// full) and counts it. A zero UnixNano is stamped with the current time.
func (r *Recorder) Record(q QueryRecord) {
	if r == nil {
		return
	}
	if q.UnixNano == 0 {
		q.UnixNano = time.Now().UnixNano()
	}
	r.mu.Lock()
	r.ring[r.queries%DefRingSize] = q
	r.queries++
	r.mu.Unlock()
}

// RecentQueries returns the ring's records, oldest first.
func (r *Recorder) RecentQueries() []QueryRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recentLocked()
}

// recentLocked returns the ring's records, oldest first; r.mu is held.
func (r *Recorder) recentLocked() []QueryRecord {
	first := max(r.queries-DefRingSize, 0)
	out := make([]QueryRecord, 0, r.queries-first)
	for i := first; i < r.queries; i++ {
		out = append(out, r.ring[i%DefRingSize])
	}
	return out
}

// Registry holds one Recorder per dataset, for a process (batserve) that
// serves many datasets. Nil-safe: a nil *Registry returns nil Recorders,
// keeping telemetry fully disabled.
type Registry struct {
	mu sync.Mutex
	m  map[string]*Recorder
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: map[string]*Recorder{}}
}

// Get returns the recorder for the named dataset, creating it (with the
// given domain bounds) on first use. Returns nil on a nil registry.
func (g *Registry) Get(name string, bounds geom.Box) *Recorder {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if r, ok := g.m[name]; ok {
		return r
	}
	r := New(name, bounds)
	g.m[name] = r
	return r
}

// Recorders returns every recorder, sorted by dataset name.
func (g *Registry) Recorders() []*Recorder {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	out := make([]*Recorder, 0, len(g.m))
	for _, r := range g.m {
		out = append(out, r)
	}
	g.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Snapshots captures every recorder's state, sorted by dataset name.
func (g *Registry) Snapshots() []Snapshot {
	if g == nil {
		return nil
	}
	recs := g.Recorders()
	out := make([]Snapshot, len(recs))
	for i, r := range recs {
		out[i] = r.Snapshot()
	}
	return out
}
