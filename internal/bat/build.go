// Package bat implements the Binned Attribute Tree (BAT), the paper's
// multiresolution particle data layout (§III-C). A BAT is built by each
// aggregator over the particles it receives and supports:
//
//   - progressive multiresolution reads: treelet inner nodes hold a fixed
//     number of stratified-sampled LOD particles, taken from (not
//     duplicating) the input;
//   - spatial queries through its k-d structure: a shallow tree, the binary
//     radix tree over the treelets' merged Morton subprefixes, which the
//     reader derives at open (deriveShallow), with a median-split k-d
//     treelet per shallow leaf;
//   - attribute-filtered queries via fixed 32-bit binned bitmap indices at
//     every node, deduplicated through a 16-bit-ID dictionary.
//
// The compacted byte-buffer form (see format.go) is what aggregators write
// to disk. Its treelets are decoded, never mapped, so they lie back to back
// with no page alignment.
//
// The build runs as a parallel pipeline (chunked Morton encoding, a stable
// parallel radix sort, fused treelet+bitmap workers over per-worker scratch
// arenas, and a parallel payload compaction), every stage through one of
// internal/par's two loops; every stage is deterministic, so the output
// bytes are identical for any worker count, including the fully serial
// build of BuildConfig.Workers=1.
package bat

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"

	"libbat/internal/binfmt"
	"libbat/internal/bitmap"
	"libbat/internal/geom"
	"libbat/internal/morton"
	"libbat/internal/obs"
	"libbat/internal/par"
	"libbat/internal/particles"
)

// BuildConfig controls BAT construction. The zero value is not valid; use
// DefaultBuildConfig.
type BuildConfig struct {
	// SubprefixBits is the Morton subprefix width merged to form the
	// shallow tree's leaves (paper: 12 bits). The width is reduced
	// automatically for small particle counts so each treelet holds enough
	// particles to form an LOD hierarchy; at the paper's scales (millions
	// of particles per aggregator) the full width is used.
	SubprefixBits int
	// LODPerNode is the number of LOD particles set aside at each treelet
	// inner node (paper evaluation: 8).
	LODPerNode int
	// MaxLeafSize is the maximum number of particles in a treelet leaf
	// (paper evaluation: 128).
	MaxLeafSize int
	// Workers caps the build's worker pool (attribute ranges, Morton
	// encoding, the radix sort, treelet construction, payload compaction).
	// 0 means runtime.GOMAXPROCS(0); values below 0 are rejected. With 1
	// the whole build runs serially on the calling goroutine (the
	// in-transit friendly mode); the output bytes are identical for every
	// count.
	Workers int
	// Compress applies AttrErrorBounds and LODErrorScale: without it every
	// attribute is stored lossless whatever the bounds say, and the
	// dataset's metadata declares no codec configuration. The file layout is
	// the same either way: every build packs positions, node tables and
	// attributes (codec.go).
	Compress bool
	// AttrErrorBounds are the absolute error bounds applied per attribute
	// (indexed like the schema) when Compress is set; when set, its length
	// must equal the schema's attribute count. Nil, like a bound of 0,
	// means lossless: a column is stored as the smallest of int-for
	// (integral values only, at grid step 1), key-for (the values'
	// order-preserving keys under per-treelet or per-node frames),
	// sign-key-for (the same over keys that hold the sign in their lowest
	// bit) and raw. A bound is
	// measured against the value the attribute's schema type stores
	// (Float32 attributes round through float32 either way).
	AttrErrorBounds []float64
	// LODErrorScale loosens the bound for values inside inner-node LOD
	// sample ranges: those values may err up to bound × LODErrorScale,
	// exploiting the multiresolution layout (progressive previews
	// tolerate coarser data than leaf-level reads). 0 or 1 keeps one
	// bound everywhere; values in (0, 1) are rejected.
	LODErrorScale float64
	// Obs, when set, receives build telemetry (treelet counts, dictionary
	// size, bitmap dedup hits, and the bat_build_* phase spans). Nil
	// disables it.
	Obs *obs.Collector
	// ObsRank labels the build's telemetry on multi-rank timelines (an
	// aggregator passes its rank); purely observational.
	ObsRank int
}

// DefaultBuildConfig returns the configuration used in the paper's
// evaluation: 12-bit subprefixes, 8 LOD particles per inner node, up to 128
// particles per leaf, built in parallel across all CPUs.
func DefaultBuildConfig() BuildConfig {
	return BuildConfig{
		SubprefixBits: 12,
		LODPerNode:    8,
		MaxLeafSize:   128,
		Workers:       runtime.GOMAXPROCS(0),
	}
}

func (c BuildConfig) validate() error {
	if c.SubprefixBits < 1 || c.SubprefixBits > morton.TotalBits {
		return fmt.Errorf("bat: subprefix bits %d out of range [1,%d]", c.SubprefixBits, morton.TotalBits)
	}
	if c.LODPerNode < 1 {
		return fmt.Errorf("bat: LOD per node must be >= 1, got %d", c.LODPerNode)
	}
	if c.MaxLeafSize < 1 {
		return fmt.Errorf("bat: max leaf size must be >= 1, got %d", c.MaxLeafSize)
	}
	if c.Workers < 0 {
		return fmt.Errorf("bat: workers must be >= 0 (0 = GOMAXPROCS), got %d", c.Workers)
	}
	for a, b := range c.AttrErrorBounds {
		if b < 0 || math.IsNaN(b) || math.IsInf(b, 0) {
			return fmt.Errorf("bat: attribute %d error bound must be finite and >= 0, got %g", a, b)
		}
	}
	if s := c.LODErrorScale; s != 0 && (s < 1 || math.IsNaN(s) || math.IsInf(s, 0)) {
		return fmt.Errorf("bat: LOD error scale must be 0 or >= 1, got %g", s)
	}
	return nil
}

// AttrBounds resolves the per-attribute error bounds for a schema of nA
// attributes: a copy of AttrErrorBounds when Compress is set, all zeros
// (lossless) otherwise.
func (c BuildConfig) AttrBounds(nA int) []float64 {
	out := make([]float64, nA)
	if c.Compress {
		copy(out, c.AttrErrorBounds)
	}
	return out
}

// EffectiveLODScale resolves the LOD error scale a build applies and
// declares: LODErrorScale with its 0-means-1 default when Compress is set,
// 1 otherwise.
func (c BuildConfig) EffectiveLODScale() float64 {
	if !c.Compress || c.LODErrorScale <= 0 {
		return 1
	}
	return c.LODErrorScale
}

// effectiveWorkers resolves the worker-pool size: the configured cap,
// defaulting to GOMAXPROCS.
func (c BuildConfig) effectiveWorkers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// treelet is one built treelet: nodes in BFS order (root at 0) with
// particle ranges laid out in the same order, and their bitmaps, nA per node
// (computeTreeletBitmaps).
type treelet struct {
	nodes   []node
	bitmaps []bitmap.Bitmap
	order   []int // particle indices (into the set) in file layout order
	depth   int   // max node depth, root = 0
	prefix  morton.Code
	// attrEnc holds the encoded attribute sections (one per attribute),
	// filled by the same fused worker that built the treelet, so encoding
	// overlaps across treelets exactly like node construction does. posEnc
	// holds the X, Y, Z sections the same way, and cells the extremes of the
	// keys they were packed from: the root cell of the position frames,
	// which compact stores as the treelet bounds.
	attrEnc []encodedAttr
	posEnc  [3]encodedAttr
	cells   [3]keyCell
}

// Built is the in-memory result of a BAT build: the compacted file image
// plus build statistics. The buffer is directly writable to disk and
// directly queryable (see Reader), enabling the paper's in-transit use.
type Built struct {
	Buf   []byte
	Stats BuildStats
	// Ranges and RootBitmaps are what File.Ranges and File.RootBitmaps
	// read back from Buf: each attribute's local value range and its
	// whole-file bitmap in that range. An aggregator reports them to rank 0
	// for the top-level metadata (§III-D) without decoding its own image.
	Ranges      []bitmap.Range
	RootBitmaps []bitmap.Bitmap
}

// BuildStats reports layout statistics.
type BuildStats struct {
	NumParticles    int
	NumTreelets     int
	NumTreeletNodes int
	MaxTreeletDepth int
	DictEntries     int
	// BitmapsInterned counts every per-node per-attribute bitmap handed to
	// the dictionary; BitmapsInterned - DictEntries is the number of
	// deduplication hits (§III-C2's 16-bit-ID dictionary).
	BitmapsInterned int
	FileBytes       int64
	RawDataBytes    int64
	// AttrPayloadRawBytes / AttrPayloadEncBytes are the attribute payload
	// sizes before and after the codec layer (codec.go), excluding the
	// 5-byte per-section codec framing. The ratio raw/enc is the attribute
	// compression ratio.
	AttrPayloadRawBytes int64
	AttrPayloadEncBytes int64
	// PosPayloadEncBytes is what the position sections hold, framing
	// excluded; raw they take 12 bytes per particle.
	PosPayloadEncBytes int64
}

// OverheadFraction returns the layout's storage overhead relative to the
// raw particle payload (paper §VI-B: ~0.9%).
func (s BuildStats) OverheadFraction() float64 {
	if s.RawDataBytes == 0 {
		return 0
	}
	return float64(s.FileBytes-s.RawDataBytes) / float64(s.RawDataBytes)
}

// group is one shallow-tree leaf: the particles sharing a Morton subprefix,
// as a contiguous range of the sorted order.
type group struct {
	code     morton.Code
	from, to int // range in the sorted order
}

// Build constructs the compacted BAT over the particle set. domain is the
// spatial region the Morton quantization is computed against (the
// aggregation-tree leaf bounds); it must contain all particles.
//
// The build is deterministic: for a given set, domain, and layout options
// the returned bytes are identical for every Workers value.
func Build(set *particles.Set, domain geom.Box, cfg BuildConfig) (*Built, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.AttrErrorBounds != nil && len(cfg.AttrErrorBounds) != set.Schema.NumAttrs() {
		return nil, fmt.Errorf("bat: %d per-attribute error bounds for %d attributes",
			len(cfg.AttrErrorBounds), set.Schema.NumAttrs())
	}
	for _, a := range set.Schema.Attrs {
		if len(a.Name) > binfmt.MaxStrLen {
			return nil, fmt.Errorf("bat: attribute name of %d bytes exceeds the format's %d", len(a.Name), binfmt.MaxStrLen)
		}
	}
	n := set.Len()
	workers := cfg.effectiveWorkers()
	// Shrink the subprefix until the average treelet holds a few dozen
	// leaves' worth of particles: deep enough for useful LOD levels, and few
	// enough treelets that their leaf records and section frames stay
	// a small share of the data (§VI-B's memory overhead).
	for cfg.SubprefixBits > 0 && n>>uint(cfg.SubprefixBits) < 32*cfg.MaxLeafSize {
		cfg.SubprefixBits--
	}
	if cfg.SubprefixBits == 0 {
		cfg.SubprefixBits = 1
	}
	col := cfg.Obs

	// Attribute local value ranges (the bitmap reference ranges), one
	// independent scan per attribute.
	ranges := attrRanges(set, workers)

	// Step 1: Morton codes and the sorted particle order (stable, so the
	// order is worker-count independent).
	spSort := col.Start(cfg.ObsRank, "bat_build_sort")
	sortedCodes, order := sortByMorton(set, domain, workers)

	// Step 2: merge shared subprefixes into the shallow tree's leaf codes
	// and record each group's contiguous range in the sorted order.
	var groups []group
	for i := 0; i < n; {
		sp := sortedCodes[i].Subprefix(cfg.SubprefixBits)
		j := i + 1
		for j < n && sortedCodes[j].Subprefix(cfg.SubprefixBits) == sp {
			j++
		}
		groups = append(groups, group{code: sp, from: i, to: j})
		i = j
	}
	spSort.End()

	// Step 3: each worker builds a treelet and computes its bottom-up
	// bitmaps in the same task, reusing its own scratch arena.
	spTreelets := col.Start(cfg.ObsRank, "bat_build_treelets")
	treelets, err := buildTreelets(set, order, groups, cfg, ranges, workers)
	spTreelets.End()
	if err != nil {
		return nil, err
	}

	// Step 4: compact everything into the file image, copying treelet
	// payloads in parallel.
	spCompact := col.Start(cfg.ObsRank, "bat_build_compact")
	built, err := compact(set, domain, cfg, ranges, treelets, workers)
	spCompact.End()
	if err != nil {
		return nil, err
	}
	nA := set.Schema.NumAttrs()
	roots := make([][]bitmap.Bitmap, len(treelets))
	for i, t := range treelets {
		roots[i] = t.bitmaps[:nA] // a group is never empty
	}
	built.Ranges = ranges
	built.RootBitmaps = mergeRoots(roots, nA)
	if col != nil {
		st := built.Stats
		col.Add("bat_builds_total", 1)
		col.Add("bat_particles_total", int64(st.NumParticles))
		col.Add("bat_treelets_built_total", int64(st.NumTreelets))
		col.Add("bat_treelet_nodes_total", int64(st.NumTreeletNodes))
		col.Add("bat_dict_entries_total", int64(st.DictEntries))
		col.Add("bat_bitmaps_interned_total", int64(st.BitmapsInterned))
		col.Add("bat_bitmap_dedup_hits_total", int64(st.BitmapsInterned-st.DictEntries))
		col.Add("bat_file_bytes_total", st.FileBytes)
	}
	return built, nil
}

// attrRanges scans each attribute's value range, the attributes split
// across the workers.
func attrRanges(set *particles.Set, workers int) []bitmap.Range {
	ranges := make([]bitmap.Range, set.Schema.NumAttrs())
	par.Range(len(ranges), workers, func(_, lo, hi int) {
		for a := lo; a < hi; a++ {
			ranges[a] = set.AttrRange(a)
		}
	})
	return ranges
}

// buildTreelets runs the fused treelet+bitmap stage: one task per shallow
// leaf, scheduled largest-group-first across the worker pool so a huge
// treelet picked up last cannot become a straggler tail. Each worker reuses
// one scratch arena. Results land in input order, so the scheduling order
// never reaches the output.
func buildTreelets(set *particles.Set, order []int, groups []group,
	cfg BuildConfig, ranges []bitmap.Range, workers int) ([]*treelet, error) {

	treelets := make([]*treelet, len(groups))
	errs := make([]error, len(groups))
	bounds := cfg.AttrBounds(set.Schema.NumAttrs())
	lodScale := cfg.EffectiveLODScale()
	arenas := make([]buildArena, min(workers, len(groups)))
	sched := largestFirst(len(groups), func(gi int) int { return groups[gi].to - groups[gi].from })
	par.Each(sched, workers, func(w, gi int) {
		a := &arenas[w]
		g := groups[gi]
		t := buildTreelet(set, order[g.from:g.to], cfg, a)
		t.prefix = g.code
		sortNodes(set, t, a)
		computeTreeletBitmaps(set, t, ranges)
		encodeTreeletAttrs(set, t, bounds, lodScale, a)
		errs[gi] = encodeTreeletPositions(t, a)
		// The reader bounds a treelet's point count by its byte length, the
		// one bound on its column allocations: a treelet that would pack
		// tighter (coincident particles under constant attributes) stores
		// its positions raw, 12 bytes a particle.
		if t.sectionsLen(set.Schema) < len(t.order) {
			t.posEnc = [3]encodedAttr{{codec: codecRaw}, {codec: codecRaw}, {codec: codecRaw}}
		}
		treelets[gi] = t
	})
	return treelets, errors.Join(errs...)
}

// sectionsLen is the bytes of t's position and attribute sections, their
// framing included: the treelet's length but for its node table.
func (t *treelet) sectionsLen(schema particles.Schema) int {
	n := 0
	for _, pe := range t.posEnc {
		n += sectionFrameLen + pe.encodedLen(len(t.order), particles.Float32)
	}
	for a, desc := range schema.Attrs {
		n += sectionFrameLen + t.attrEnc[a].encodedLen(len(t.order), desc.Type)
	}
	return n
}

// largestFirst returns the indices 0..n-1 by descending size, ties by
// index: the schedule of a stage whose tasks vary widely in cost, so the
// biggest one cannot start last and stretch the stage.
func largestFirst(n int, size func(i int) int) []int {
	sched := make([]int, n)
	for i := range sched {
		sched[i] = i
	}
	sort.Slice(sched, func(a, b int) bool {
		if sa, sb := size(sched[a]), size(sched[b]); sa != sb {
			return sa > sb
		}
		return sched[a] < sched[b]
	})
	return sched
}

// buildTreelet constructs a median-split k-d treelet over the particles in
// idx (already sorted by Morton code, which stratified LOD sampling relies
// on). It makes the nodes breadth-first, the order the file stores them in:
// node i takes its range of idx and its depth from the arena's pending list,
// appends its particles to t.order as it is made (an inner node's LOD
// samples, all of a leaf's particles), and a split node gives its children
// the next two pending slots, so the k-th inner node's children are nodes
// 2k+1 and 2k+2. A depth-limited progressive read thus touches a prefix of
// the treelet's particle data. The nodes are made in the arena and copied
// out once, at their final count. idx is consumed: the build partitions it in
// place.
func buildTreelet(set *particles.Set, idx []int, cfg BuildConfig, a *buildArena) *treelet {
	t := &treelet{}
	if len(idx) == 0 {
		return t
	}
	a.ensure(len(idx), cfg.LODPerNode)
	t.order = make([]int, 0, len(idx))
	a.nodes = a.nodes[:0]
	a.pending = append(a.pending[:0], pendingNode{lo: 0, hi: len(idx)})
	for i := 0; i < len(a.pending); i++ {
		pn := a.pending[i]
		t.depth = max(t.depth, pn.depth)
		pts := idx[pn.lo:pn.hi]
		nd := node{axis: leafAxis, start: uint32(len(t.order))}
		// A node the LOD sample would take whole (LODPerNode above
		// MaxLeafSize) leaves nothing to split: it is a leaf too.
		if len(pts) > cfg.MaxLeafSize && len(pts) > cfg.LODPerNode {
			// Stratified LOD sampling over the Morton-sorted points: one
			// sample per stride keeps the subset spatially representative.
			// Then a median split along the longest axis of the
			// remainder's bounds; a full sort is unnecessary — quickselect
			// the median coordinate and three-way partition around it
			// (O(n) per level).
			lod, rest, bounds := stratifiedSampleInPlace(set, pts, cfg.LODPerNode, a)
			axis := bounds.LongestAxis()
			// A degenerate distribution (all points coincident on the
			// axis) has no split: the node stays a leaf holding everything.
			if mid, split, ok := medianPartition(set, rest, axis, a); ok {
				nd.axis, nd.split = uint8(axis), split
				nd.left, nd.right = int32(len(a.pending)), int32(len(a.pending)+1)
				a.pending = append(a.pending,
					pendingNode{lo: pn.lo, hi: pn.lo + mid, depth: pn.depth + 1},
					pendingNode{lo: pn.lo + mid, hi: pn.lo + len(rest), depth: pn.depth + 1})
				pts = lod
			}
		}
		nd.count = uint32(len(pts))
		t.order = append(t.order, pts...)
		a.nodes = append(a.nodes, nd)
	}
	t.nodes = append(make([]node, 0, len(a.nodes)), a.nodes...)
	return t
}

// sortNodes puts every node's particle range of t.order in key order along
// the node's sort axis (kdCells), ties in the order the build left them: a
// node's particles are a set, and sorted they let a sorted-cell-for section
// store that axis as Elias–Fano offsets. On the way it takes the keys of the
// three position columns, once, and the treelet's cells from them — the
// extremes of the keys that are numbers, which compact stores as the treelet
// bounds —, and it leaves the keys in a, in the sorted layout order, and the
// k-d cells it derived from them for encodeTreeletPositions. The sort is
// over key<<32 | slot words, slot the particle's place in its node range
// before the sort, so it is a pure function of the treelet and builds stay
// byte-identical for any worker count.
func sortNodes(set *particles.Set, t *treelet, a *buildArena) {
	n := len(t.order)
	for ax, col := range [3][]float32{set.X, set.Y, set.Z} {
		if cap(a.keys[ax]) < n {
			a.keys[ax] = make([]uint64, 0, n)
		}
		keys := a.keys[ax][:0]
		cell := keyCell{lo: math.MaxUint32, hi: 0}
		for _, p := range t.order {
			k := keyOf(col[p])
			keys = append(keys, uint64(k))
			if k >= keyNegInf && k <= keyPosInf {
				cell.lo, cell.hi = min(cell.lo, k), max(cell.hi, k)
			}
		}
		a.keys[ax] = keys
		t.cells[ax] = cell
	}
	a.kd.derive(t.nodes, t.cells)
	if cap(a.parts) < n {
		a.parts = make([]int, n)
	}
	for i := range t.nodes {
		nd := &t.nodes[i]
		lo, hi := int(nd.start), int(nd.start+nd.count)
		if hi-lo < 2 {
			continue
		}
		sa := int(a.kd.axes[i])
		words := a.sortWords[:0]
		for slot, k := range a.keys[sa][lo:hi] {
			words = append(words, k<<32|uint64(slot))
		}
		a.sortWords = words
		slices.Sort(words)
		// Permute the range of the layout order and of the other two key
		// columns through the sorted slots, each via a copy of the range;
		// the sort axis's keys are the words' high halves.
		order := a.parts[:hi-lo]
		copy(order, t.order[lo:hi])
		for j, w := range words {
			t.order[lo+j] = order[w&math.MaxUint32]
			a.keys[sa][lo+j] = w >> 32
		}
		for ax := range a.keys {
			if ax == sa {
				continue
			}
			keys := append(a.qbuf[:0], a.keys[ax][lo:hi]...)
			a.qbuf = keys
			for j, w := range words {
				a.keys[ax][lo+j] = keys[w&math.MaxUint32]
			}
		}
	}
}

// quickselect returns the k-th smallest element of a (0-based), mutating a.
// The median-of-three pivot keeps it deterministic and fast on the sorted
// and constant runs common in particle coordinates.
func quickselect(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		// Median-of-three pivot.
		m := (lo + hi) / 2
		if a[m] < a[lo] {
			a[m], a[lo] = a[lo], a[m]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[m] {
			a[hi], a[m] = a[m], a[hi]
		}
		pivot := a[m]
		// Three-way partition (Dutch national flag) handles duplicate-
		// heavy inputs without quadratic blowup.
		i, j, p := lo, lo, hi
		for j <= p {
			switch {
			case a[j] < pivot:
				a[i], a[j] = a[j], a[i]
				i++
				j++
			case a[j] > pivot:
				a[j], a[p] = a[p], a[j]
				p--
			default:
				j++
			}
		}
		switch {
		case k < i:
			hi = i - 1
		case k > p:
			lo = p + 1
		default:
			return pivot
		}
	}
	return a[lo]
}

// computeTreeletBitmaps fills t's bitmap column, per node per attribute,
// bottom-up: leaves index their particles; inner nodes merge their children's
// bitmaps with those of their own LOD particles (§III-C2). The column is a
// single allocation per treelet.
func computeTreeletBitmaps(set *particles.Set, t *treelet, ranges []bitmap.Range) {
	nA := set.Schema.NumAttrs()
	t.bitmaps = make([]bitmap.Bitmap, len(t.nodes)*nA)
	// BFS order guarantees children follow parents; iterate in reverse.
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := &t.nodes[i]
		for a := 0; a < nA; a++ {
			var b bitmap.Bitmap
			vals := set.Attrs[a]
			for _, p := range t.order[n.start : n.start+n.count] {
				b |= bitmap.OfValue(vals[p], ranges[a])
			}
			if n.axis != leafAxis {
				b |= t.bitmaps[int(n.left)*nA+a] | t.bitmaps[int(n.right)*nA+a]
			}
			t.bitmaps[i*nA+a] = b
		}
	}
}

// mergeRoots is a file's whole-dataset bitmap per attribute, the merge of
// its treelets' root bitmaps: what the top-level metadata records for the
// leaf (§III-D).
func mergeRoots(roots [][]bitmap.Bitmap, nA int) []bitmap.Bitmap {
	out := make([]bitmap.Bitmap, nA)
	for _, r := range roots {
		for a, b := range r {
			out[a] |= b
		}
	}
	return out
}
