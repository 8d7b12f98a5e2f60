// Package libbat is a Go reproduction of "Adaptive Spatially Aware I/O for
// Multiresolution Particle Data Layouts" (Usher et al., IPDPS 2021): a
// parallel I/O library for particle data that aggregates ranks through an
// adaptive k-d tree over their spatial bounds and writes each aggregation
// group as a Binned Attribute Tree (BAT) — a multiresolution, bitmap-
// indexed layout directly usable for visualization and analysis.
//
// The library has three layers:
//
//   - Collective I/O: Write and ReadQueryCtx are called by every rank of a Fabric
//     (a simulated MPI world; ranks are goroutines) and implement the
//     paper's two-phase pipelines.
//   - Datasets: OpenDataset gives single-process access to a written
//     dataset as if it were one file, with spatial and attribute filtered
//     progressive multiresolution queries.
//   - Building blocks: the aggregation tree, the AUG baseline, the BAT
//     layout, the IOR-style baselines and the Stampede2/Summit cost models
//     live in internal packages and power the benchmark harness
//     (cmd/batbench) that regenerates the paper's tables and figures.
package libbat

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"libbat/internal/bat"
	"libbat/internal/core"
	"libbat/internal/fabric"
	"libbat/internal/geom"
	"libbat/internal/meta"
	"libbat/internal/obs"
	"libbat/internal/obs/access"
	"libbat/internal/particles"
	"libbat/internal/pfs"
)

// Re-exported core types. These aliases are the public names of the
// library's data model; the internal packages are implementation detail.
type (
	// Vec3 is a 3D point.
	Vec3 = geom.Vec3
	// Box is an axis-aligned bounding box.
	Box = geom.Box
	// Schema describes a particle's attributes.
	Schema = particles.Schema
	// AttrDesc names one attribute.
	AttrDesc = particles.AttrDesc
	// ParticleSet is the structure-of-arrays particle container.
	ParticleSet = particles.Set
	// Comm is one rank's communicator handle.
	Comm = fabric.Comm
	// Fabric connects the ranks of a collective run.
	Fabric = fabric.Fabric
	// Storage is the output namespace (directory or memory).
	Storage = pfs.Storage
	// WriteConfig configures collective writes.
	WriteConfig = core.WriteConfig
	// WriteStats reports per-phase write timings.
	WriteStats = core.WriteStats
	// ReadStats reports per-phase read timings.
	ReadStats = core.ReadStats
	// Strategy selects adaptive or AUG aggregation.
	Strategy = core.Strategy
	// Query describes a visualization read.
	Query = bat.Query
	// AttrFilter restricts a query to an attribute interval.
	AttrFilter = bat.AttrFilter
	// Visitor receives query results. Its attrs slice is reused for the
	// next particle: valid only until the visitor returns.
	Visitor = bat.Visitor
	// QueryConfig tunes query execution: how many goroutines a query runs
	// on. It changes neither the answer nor its order.
	QueryConfig = bat.QueryConfig
	// QueryStats reports what a traversal visited, rejected, pruned,
	// traversed and parsed from storage: the one record of a query's reads.
	QueryStats = bat.QueryStats
	// CacheStats snapshots treelet cache hit/miss/eviction counters.
	CacheStats = bat.CacheStats
	// CompressionInfo describes a BAT leaf file's codec configuration
	// (per-attribute error bounds, LOD error scale, payload ratio).
	CompressionInfo = bat.CompressionInfo
	// AccessRecorder captures which treelets, spatial regions, and
	// attributes queries touch, and a record of each query (nil =
	// telemetry disabled). One mutex guards it.
	AccessRecorder = access.Recorder
	// AccessRegistry holds one AccessRecorder per dataset.
	AccessRegistry = access.Registry
	// AccessSnapshot is a point-in-time export of an AccessRecorder,
	// exported live as JSON or Prometheus series; it is never persisted.
	AccessSnapshot = access.Snapshot
	// AccessQueryRecord is one entry of the recent-query ring, made from
	// the query's summed QueryStats.
	AccessQueryRecord = access.QueryRecord
)

// NewAccessRecorder creates an enabled access-telemetry recorder for a
// dataset with the given spatial domain. Its query ring keeps the newest
// access.DefRingSize (256) records.
func NewAccessRecorder(name string, bounds Box) *AccessRecorder {
	return access.New(name, bounds)
}

// NewAccessRegistry creates a registry of per-dataset access recorders.
func NewAccessRegistry() *AccessRegistry {
	return access.NewRegistry()
}

// Aggregation strategies.
const (
	Adaptive = core.Adaptive
	AUG      = core.AUG
)

// Receive wildcards for Comm.Recv/RecvCtx.
const (
	AnySource = fabric.AnySource
	AnyTag    = fabric.AnyTag
)

// V3 constructs a Vec3.
func V3(x, y, z float64) Vec3 { return geom.V3(x, y, z) }

// Exchange performs an all-to-all particle migration: outgoing[r] is sent
// to rank r, and the result is everything addressed to this rank. Use it
// to rebalance particles onto their owning ranks before a collective
// Write.
func Exchange(c *Comm, schema Schema, outgoing []*ParticleSet) (*ParticleSet, error) {
	return core.Exchange(c, schema, outgoing)
}

// NewBox constructs a Box.
func NewBox(lower, upper Vec3) Box { return geom.NewBox(lower, upper) }

// NewSchema builds a schema of float64 attributes.
func NewSchema(names ...string) Schema { return particles.NewSchema(names...) }

// NewParticleSet returns an empty particle set with capacity for n.
func NewParticleSet(schema Schema, n int) *ParticleSet { return particles.NewSet(schema, n) }

// NewFabric connects size ranks.
func NewFabric(size int) *Fabric { return fabric.New(size) }

// Run spawns size ranks running body and waits for all of them.
func Run(size int, body func(c *Comm) error) error { return fabric.Run(size, body) }

// DirStorage opens (creating if needed) a directory as dataset storage.
func DirStorage(dir string) (Storage, error) { return pfs.NewOS(dir) }

// MemStorage returns an in-memory store (tests, in-transit pipelines).
func MemStorage() Storage { return pfs.NewMem() }

// DefaultWriteConfig returns the paper's evaluation configuration for a
// target file size (adaptive aggregation, overfull leaves up to 1.5x at
// balance ratio 4, 12-bit subprefix BATs with 8 LOD particles per node).
func DefaultWriteConfig(targetFileSize int64) WriteConfig {
	return core.DefaultWriteConfig(targetFileSize)
}

// Write performs the collective spatially aware adaptive two-phase write
// (paper §III). Every rank calls it with its local particles and bounds;
// leaf BAT files and a top-level metadata file are written under base.
func Write(c *Comm, store Storage, base string, local *ParticleSet, bounds Box, cfg WriteConfig) (*WriteStats, error) {
	return core.Write(c, store, base, local, bounds, cfg)
}

// ReadQueryCtx is the collective read with a full query per rank — spatial
// bounds, attribute filters, and a progressive quality window — the
// distributed in situ analytics path of paper §IV-B. Cancellation never
// abandons the collective protocol (the other ranks would hang); instead
// this rank's leaf serves fail fast with the context's error and the call
// returns ErrPartial with per-leaf errors once the collective completes.
func ReadQueryCtx(ctx context.Context, c *Comm, store Storage, base string, q Query) (*ParticleSet, *ReadStats, error) {
	return core.ReadQueryCtx(ctx, c, store, base, q)
}

// ErrPartial marks a collective read that completed the protocol but could
// not serve every requested leaf (fault or cancellation); the returned set
// holds the particles that were served.
var ErrPartial = core.ErrPartial

// RecommendTargetSize implements the paper's tuning guidance (§VI-A.2) as
// an automatic policy, a future-work item of §VII-A: small aggregation
// factors (1:1 to 4:1) at low rank or particle counts, growing to 16:1 and
// beyond at scale so the file count stays bounded.
func RecommendTargetSize(ranks int, bytesPerRank int64) int64 {
	factor := int64(1)
	switch {
	case ranks >= 16384:
		factor = 32
	case ranks >= 4096:
		factor = 16
	case ranks >= 1024:
		factor = 8
	case ranks >= 256:
		factor = 4
	case ranks >= 64:
		factor = 2
	}
	target := factor * bytesPerRank
	const minTarget = 1 << 20
	if target < minTarget {
		return minTarget
	}
	return target
}

// ListDatasets returns the base names of all datasets in store with the
// given prefix ("" for all), sorted — a simulation's time series.
func ListDatasets(store Storage, prefix string) ([]string, error) {
	all, err := store.List()
	if err != nil {
		return nil, err
	}
	var names []string
	for _, n := range all {
		if strings.HasSuffix(n, metaSuffix) && strings.HasPrefix(n, prefix) {
			names = append(names, strings.TrimSuffix(n, metaSuffix))
		}
	}
	sort.Strings(names)
	return names, nil
}

const metaSuffix = ".batm"

// Dataset is single-process read access to a written dataset, treating the
// whole collection of leaf files as one queryable store (paper §III-D, §V).
//
// A Dataset is safe for concurrent use: any number of goroutines may run
// Query/Count/ReadAll/Histogram at the same time. Leaf files are opened
// lazily with singleflight deduplication, and each leaf's treelet cache is
// itself concurrent. Close must not be called while queries are in flight
// (servers should fence it with their own lock, as cmd/batserve does).
//
// It is a facade over core.Dataset, the reader every read route shares.
type Dataset struct {
	r    *core.Dataset
	meta *meta.Meta
}

// OpenDataset opens the dataset written under base in store.
func OpenDataset(store Storage, base string) (*Dataset, error) {
	r, err := core.OpenDataset(context.Background(), store, base)
	if err != nil {
		return nil, err
	}
	return &Dataset{r: r, meta: r.Meta()}, nil
}

// Close releases all opened leaf files, waiting for any still mid-open, and
// empties the treelet cache. The Dataset stays usable: leaves reopen on
// demand.
func (d *Dataset) Close() error { return d.r.Close() }

// SetQueryConfig sets the traversal configuration of every query. Safe to
// call concurrently with queries; in-flight queries keep the configuration
// they started with.
func (d *Dataset) SetQueryConfig(cfg QueryConfig) { d.r.SetQueryConfig(cfg) }

// SetCacheLimit bounds the treelet-cache memory of the whole dataset to
// bytes (0 = unbounded): one budget and one LRU order over the parsed
// treelets of all leaf files. The treelet a query is about to traverse is
// never evicted, so CacheStats().Bytes stays within bytes plus one treelet.
// Safe to call concurrently with queries; lowering it evicts at once.
func (d *Dataset) SetCacheLimit(bytes int64) { d.r.SetCacheLimit(bytes) }

// SetObserver mirrors the dataset's treelet cache counters into col as
// bat_treelet_cache_{hits,misses,evictions}_total under the given labels;
// nil detaches.
func (d *Dataset) SetObserver(col *obs.Collector, labels ...obs.Label) {
	d.r.SetObserver(col, labels...)
}

// SetAccessRecorder attaches an access-telemetry recorder to the dataset:
// every query then records each treelet it touched (and whether it parsed
// it from storage) with its heatmap cell, one touch per filter attribute,
// and a structured record of itself in the recorder's recent-query ring,
// whose cache hit ratio is that query's own. nil detaches (queries then
// pay only nil checks).
func (d *Dataset) SetAccessRecorder(rec *AccessRecorder) { d.r.SetAccessRecorder(rec) }

// AccessRecorder returns the attached recorder (nil when telemetry is off).
func (d *Dataset) AccessRecorder() *AccessRecorder { return d.r.AccessRecorder() }

// CacheStats snapshots the dataset's treelet cache: lookups since it was
// opened, and the treelets resident now.
func (d *Dataset) CacheStats() CacheStats { return d.r.CacheStats() }

// Schema returns the dataset's attribute schema.
func (d *Dataset) Schema() Schema { return d.meta.Schema }

// Bounds returns the dataset's spatial domain, the union of its leaf files'
// bounds.
func (d *Dataset) Bounds() Box { return d.meta.Domain }

// NumParticles returns the dataset's total particle count.
func (d *Dataset) NumParticles() int64 { return d.meta.TotalCount() }

// NumFiles returns the number of leaf files.
func (d *Dataset) NumFiles() int { return len(d.meta.Leaves) }

// AttrRange returns the global value range of an attribute.
func (d *Dataset) AttrRange(attr int) (min, max float64, err error) {
	if attr < 0 || attr >= d.meta.Schema.NumAttrs() {
		return 0, 0, fmt.Errorf("libbat: attribute %d out of range", attr)
	}
	r := d.meta.GlobalRanges[attr]
	return r.Min, r.Max, nil
}

// Query is QueryCtx without a context. benchmark/ calls it (and Count) by
// this name and may not change.
func (d *Dataset) Query(q Query, visit Visitor) error {
	return d.QueryCtx(context.Background(), q, visit)
}

// QueryCtx runs a visualization read over the whole dataset (paper §V): the
// Aggregation Tree prunes leaf files spatially and by attribute bitmap,
// then one walk under the dataset's QueryConfig traverses the surviving
// files' BATs in leaf order. Progressive quality windows apply per leaf
// file.
//
// When ctx ends, leaf opens and treelet traversals abort promptly and
// ctx.Err() is returned; leaf files and treelets already cached stay valid
// for later queries. With an access recorder attached the query is logged
// under the source tag ctx carries (access.WithSource), "dataset" if none.
func (d *Dataset) QueryCtx(ctx context.Context, q Query, visit Visitor) error {
	_, err := d.r.Query(ctx, d.r.Select(q), q, visit)
	return err
}

// Count returns the number of particles a query would visit.
func (d *Dataset) Count(q Query) (int64, error) {
	return d.CountCtx(context.Background(), q)
}

// CountCtx is Count honoring ctx.
func (d *Dataset) CountCtx(ctx context.Context, q Query) (int64, error) {
	st, err := d.r.Query(ctx, d.r.Select(q), q, nil)
	return st.Visited, err
}

// ReadAll collects every particle into one set. The set is sized from the
// leaf files' own particle counts, each bounded by its file's size and
// checked against the metadata's when the leaf opens, never from the
// metadata's counts alone.
func (d *Dataset) ReadAll() (*ParticleSet, error) {
	n := 0
	for li := range d.meta.Leaves {
		f, err := d.r.Leaf(context.Background(), li)
		if err != nil {
			return nil, err
		}
		n += int(f.NumParticles)
	}
	out := particles.NewSet(d.meta.Schema, n)
	err := d.Query(Query{}, func(p Vec3, attrs []float64) error {
		out.Append(p, attrs)
		return nil
	})
	return out, err
}

// LeafInfo describes one leaf file of a dataset.
type LeafInfo struct {
	FileName string
	Bounds   Box
	Count    int64
}

// Leaves returns the dataset's leaf files in aggregation order.
func (d *Dataset) Leaves() []LeafInfo {
	out := make([]LeafInfo, len(d.meta.Leaves))
	for i, l := range d.meta.Leaves {
		out[i] = LeafInfo{FileName: l.FileName, Bounds: l.Bounds, Count: l.Count}
	}
	return out
}

// Histogram bins the values of one attribute matched by a query into
// `bins` equal-width buckets over the attribute's global range — a typical
// analysis pass over the layout. Quality below 1 computes the histogram
// from the LOD subset only, trading exactness for latency (§V-B).
func (d *Dataset) Histogram(attr, bins int, q Query) ([]int64, error) {
	if attr < 0 || attr >= d.meta.Schema.NumAttrs() {
		return nil, fmt.Errorf("libbat: attribute %d out of range", attr)
	}
	if bins < 1 {
		return nil, fmt.Errorf("libbat: need at least 1 bin")
	}
	r := d.meta.GlobalRanges[attr]
	width := r.Max - r.Min
	out := make([]int64, bins)
	err := d.Query(q, func(_ Vec3, attrs []float64) error {
		b := 0
		if width > 0 {
			b = int((attrs[attr] - r.Min) / width * float64(bins))
			if b < 0 {
				b = 0
			}
			if b >= bins {
				b = bins - 1
			}
		}
		out[b]++
		return nil
	})
	return out, err
}
