package bat

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"libbat/internal/bitmap"
	"libbat/internal/geom"
	"libbat/internal/morton"
	"libbat/internal/particles"
)

// randomSet builds a particle set with two attributes: "mass" correlated
// with x (spatially coherent, as the bitmaps assume) and "id" increasing.
func randomSet(n int, seed int64) (*particles.Set, geom.Box) {
	r := rand.New(rand.NewSource(seed))
	s := particles.NewSet(particles.NewSchema("mass", "id"), n)
	for i := 0; i < n; i++ {
		p := geom.V3(r.Float64(), r.Float64(), r.Float64())
		s.Append(p, []float64{p.X*100 + r.Float64(), float64(i)})
	}
	return s, geom.NewBox(geom.V3(0, 0, 0), geom.V3(1, 1, 1))
}

// clusteredSet builds a strongly nonuniform set: 80% of particles in a
// small corner cluster.
func clusteredSet(n int, seed int64) (*particles.Set, geom.Box) {
	r := rand.New(rand.NewSource(seed))
	s := particles.NewSet(particles.NewSchema("temp"), n)
	for i := 0; i < n; i++ {
		var p geom.Vec3
		if i%5 != 0 {
			p = geom.V3(r.Float64()*0.1, r.Float64()*0.1, r.Float64()*0.1)
		} else {
			p = geom.V3(r.Float64(), r.Float64(), r.Float64())
		}
		s.Append(p, []float64{p.Length() * 10})
	}
	return s, geom.NewBox(geom.V3(0, 0, 0), geom.V3(1, 1, 1))
}

// checkShallowTree opens the image buf and holds the shallow tree the reader
// derives from its leaf records to the binary radix tree over the treelets'
// codes: n−1 inner nodes over n treelets, no deeper than SubprefixBits, that
// reach the treelets once each in order; every inner node splits its codes at
// the highest bit on which they differ, zeros left and ones right, at the
// midplane of the Morton cell they share on that bit's axis, with the merge of
// its children's bitmaps. It returns the inner-node count.
func checkShallowTree(buf []byte) (int, error) {
	f, err := FromBuffer(buf)
	if err != nil {
		return 0, err
	}
	codes := make([]morton.Code, len(f.leaves))
	for ti := range codes {
		codes[ti] = morton.Code(binary.LittleEndian.Uint64(buf[leafRecordOffset(f, ti)+4+4+4:]))
	}
	return len(f.shallow), shallowTreeProblem(f.shallow, codes, f.roots, f.Domain, f.SubprefixBits)
}

// shallowTreeProblem is checkShallowTree's check of nodes, the tree derived
// over codes and roots.
func shallowTreeProblem(nodes []shallowNode, codes []morton.Code, roots [][]bitmap.Bitmap, domain geom.Box, subprefixBits int) error {
	if want := max(len(codes)-1, 0); len(nodes) != want {
		return fmt.Errorf("%d inner nodes over %d treelets, want %d", len(nodes), len(codes), want)
	}
	if len(nodes) == 0 {
		return nil
	}
	next := 0 // the treelet the in-order walk must reach next
	seen := make([]bool, len(nodes))
	var walk func(ref int32, depth int) (lo, hi int, bms []bitmap.Bitmap, err error)
	walk = func(ref int32, depth int) (int, int, []bitmap.Bitmap, error) {
		if ref < 0 {
			if ti := int(^ref); ti != next {
				return 0, 0, nil, fmt.Errorf("the walk reaches treelet %d where treelet %d comes next", ti, next)
			}
			next++
			return next - 1, next, roots[next-1], nil
		}
		if int(ref) >= len(nodes) || seen[ref] {
			return 0, 0, nil, fmt.Errorf("node %d is out of range or reached twice", ref)
		}
		seen[ref] = true
		if depth >= subprefixBits {
			return 0, 0, nil, fmt.Errorf("node %d sits at depth %d of a %d-bit tree", ref, depth, subprefixBits)
		}
		n := nodes[ref]
		lo, mid, lb, err := walk(n.left, depth+1)
		if err != nil {
			return 0, 0, nil, err
		}
		_, hi, rb, err := walk(n.right, depth+1)
		if err != nil {
			return 0, 0, nil, err
		}
		and, or := ^morton.Code(0), morton.Code(0)
		for _, c := range codes[lo:hi] {
			and, or = and&c, or|c
		}
		bit := bits.Len64(uint64(and^or)) - 1 // the highest bit the codes differ in
		for i, c := range codes[lo:hi] {
			if c>>bit&1 == 1 != (lo+i >= mid) {
				return 0, 0, nil, fmt.Errorf("node %d: treelet %d's code %#x is on the wrong side of bit %d", ref, lo+i, c, bit)
			}
		}
		plen := subprefixBits - 1 - bit
		axis := axisOfPrefixBit(plen)
		if pos := morton.CellBounds(codes[lo]>>(bit+1), plen, domain).Center().Component(axis); n.axis != axis || n.pos != pos {
			return 0, 0, nil, fmt.Errorf("node %d splits axis %d at %v, want axis %d at %v", ref, n.axis, n.pos, axis, pos)
		}
		if len(n.bitmaps) != len(lb) {
			return 0, 0, nil, fmt.Errorf("node %d holds %d bitmaps, want %d", ref, len(n.bitmaps), len(lb))
		}
		for a := range n.bitmaps {
			if n.bitmaps[a] != lb[a]|rb[a] {
				return 0, 0, nil, fmt.Errorf("node %d attribute %d: bitmap %#x, its children's merge %#x", ref, a, n.bitmaps[a], lb[a]|rb[a])
			}
		}
		return lo, hi, n.bitmaps, nil
	}
	if _, _, _, err := walk(0, 0); err != nil {
		return err
	}
	if next != len(codes) {
		return fmt.Errorf("the walk reaches %d of %d treelets", next, len(codes))
	}
	return nil
}

// TestDeriveShallowKnown derives the tree over eight 5-bit codes, the top
// bits z, y, x, z, y of a unit domain's Morton codes, and holds it to the
// tree worked out by hand, node for node in preorder.
func TestDeriveShallowKnown(t *testing.T) {
	codes := []morton.Code{0b00001, 0b00010, 0b00100, 0b00101, 0b10011, 0b11000, 0b11001, 0b11110}
	roots := make([][]bitmap.Bitmap, len(codes))
	for i := range roots {
		roots[i] = []bitmap.Bitmap{1 << i}
	}
	domain := geom.NewBox(geom.V3(0, 0, 0), geom.V3(1, 1, 1))
	got := deriveShallow(codes, roots, domain, 5)
	leaf := func(i int) int32 { return int32(^i) }
	want := []shallowNode{
		{geom.Z, 0.5, 1, 4, []bitmap.Bitmap{0xff}},              // codes 0–7 differ at bit 4: the whole domain
		{geom.X, 0.5, 2, 3, []bitmap.Bitmap{0x0f}},              // 0–3 share 00
		{geom.Z, 0.25, leaf(0), leaf(1), []bitmap.Bitmap{0x03}}, // 0–1 share 000
		{geom.Y, 0.25, leaf(2), leaf(3), []bitmap.Bitmap{0x0c}}, // 2–3 share 0010
		{geom.Y, 0.5, leaf(4), 5, []bitmap.Bitmap{0xf0}},        // 4–7 share 1
		{geom.X, 0.5, 6, leaf(7), []bitmap.Bitmap{0xe0}},        // 5–7 share 11
		{geom.Y, 0.75, leaf(5), leaf(6), []bitmap.Bitmap{0x60}}, // 5–6 share 1100
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("derived\n%+v\nwant\n%+v", got, want)
	}
	if err := shallowTreeProblem(got, codes, roots, domain, 5); err != nil {
		t.Fatal(err)
	}
	if got := deriveShallow(codes[:1], roots[:1], domain, 5); got != nil {
		t.Fatalf("one treelet derives %d inner nodes", len(got))
	}
}

// TestDeriveShallowRandom holds the tree derived over random code sets, 1 to
// 20 bits wide and up to 2 000 codes, to shallowTreeProblem's definition.
func TestDeriveShallowRandom(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	domain := geom.NewBox(geom.V3(-1, 0, 2), geom.V3(3, 0.5, 2.25))
	for trial := 0; trial < 300; trial++ {
		width := 1 + r.Intn(20)
		pick := map[morton.Code]bool{}
		for n := 1 + r.Intn(min(2000, 1<<width)); len(pick) < n; {
			pick[morton.Code(r.Int63n(1<<width))] = true
		}
		codes := make([]morton.Code, 0, len(pick))
		for c := range pick {
			codes = append(codes, c)
		}
		slices.Sort(codes)
		roots := make([][]bitmap.Bitmap, len(codes))
		for i := range roots {
			roots[i] = []bitmap.Bitmap{bitmap.Bitmap(r.Uint32()), bitmap.Bitmap(r.Uint32())}
		}
		if err := shallowTreeProblem(deriveShallow(codes, roots, domain, width), codes, roots, domain, width); err != nil {
			t.Fatalf("trial %d, %d codes of %d bits: %v", trial, len(codes), width, err)
		}
	}
}

func buildAndOpen(t *testing.T, s *particles.Set, domain geom.Box, cfg BuildConfig) (*File, *Built) {
	t.Helper()
	b, err := Build(s, domain, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := FromBuffer(b.Buf)
	if err != nil {
		t.Fatal(err)
	}
	return f, b
}

func TestBuildValidatesConfig(t *testing.T) {
	s, domain := randomSet(10, 1)
	for _, cfg := range []BuildConfig{
		{SubprefixBits: 0, LODPerNode: 8, MaxLeafSize: 128},
		{SubprefixBits: 999, LODPerNode: 8, MaxLeafSize: 128},
		{SubprefixBits: 12, LODPerNode: 0, MaxLeafSize: 128},
		{SubprefixBits: 12, LODPerNode: 8, MaxLeafSize: 0},
	} {
		if _, err := Build(s, domain, cfg); err == nil {
			t.Errorf("config %+v should be rejected", cfg)
		}
	}
}

// TestBuildLODAboveLeafSize: with LODPerNode above MaxLeafSize, a node
// holding between the two counts is one the LOD sample would take whole. It
// must become a leaf, serially and on the worker pool, with the same bytes
// either way and every particle stored once.
func TestBuildLODAboveLeafSize(t *testing.T) {
	s, domain := randomSet(4000, 2)
	for _, compress := range []bool{false, true} {
		var first []byte
		for _, workers := range []int{1, 4} {
			cfg := DefaultBuildConfig()
			cfg.LODPerNode, cfg.MaxLeafSize, cfg.Workers, cfg.Compress = 64, 8, workers, compress
			f, b := buildAndOpen(t, s, domain, cfg)
			if first == nil {
				first = b.Buf
			} else if !reflect.DeepEqual(b.Buf, first) {
				t.Fatalf("compress=%v: Workers %d bytes differ from Workers 1", compress, workers)
			}
			got, err := f.ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			seen := make(map[float64]bool, got.Len())
			for i := 0; i < got.Len(); i++ {
				seen[got.Attrs[1][i]] = true
			}
			if got.Len() != s.Len() || len(seen) != s.Len() {
				t.Fatalf("compress=%v workers=%d: read %d particles, %d distinct, want %d",
					compress, workers, got.Len(), len(seen), s.Len())
			}
		}
	}
}

func TestSchemaAndRangesRoundTrip(t *testing.T) {
	s, domain := randomSet(500, 3)
	f, _ := buildAndOpen(t, s, domain, DefaultBuildConfig())
	if !f.Schema.Equal(s.Schema) {
		t.Errorf("schema mismatch: %+v", f.Schema)
	}
	for a := 0; a < s.Schema.NumAttrs(); a++ {
		want := s.AttrRange(a)
		if f.Ranges[a] != want {
			t.Errorf("attr %d range %+v != %+v", a, f.Ranges[a], want)
		}
	}
	// Subprefix auto-reduces for small sets; the rest round-trips exactly.
	if f.SubprefixBits < 1 || f.SubprefixBits > 12 || f.LODPerNode != 8 || f.MaxLeafSize != 128 {
		t.Errorf("config fields wrong: subprefix=%d lod=%d leaf=%d",
			f.SubprefixBits, f.LODPerNode, f.MaxLeafSize)
	}
}

func TestEmptyBuild(t *testing.T) {
	s := particles.NewSet(particles.NewSchema("a"), 0)
	domain := geom.NewBox(geom.V3(0, 0, 0), geom.V3(1, 1, 1))
	f, _ := buildAndOpen(t, s, domain, DefaultBuildConfig())
	got, err := f.ReadAll()
	if err != nil || got.Len() != 0 {
		t.Errorf("empty file read: %v, %d particles", err, got.Len())
	}
}

// TestBuiltSummaryMatchesFile: the value ranges and root bitmaps Build
// hands the write path (core reports them to rank 0 for the .batm) are
// exactly what a reader decodes from the image, and the shallow tree the
// reader derives is the radix tree over the treelets' codes — none for a file
// of one treelet.
func TestBuiltSummaryMatchesFile(t *testing.T) {
	v3 := DefaultBuildConfig()
	v3.Compress = true
	v3.AttrErrorBounds = []float64{1e-3, 1e-3}
	big, domain := randomSet(20000, 5)
	// Every point in one subprefix cell: a single treelet, no shallow node.
	one := particles.NewSet(particles.NewSchema("mass", "id"), 40)
	for i := 0; i < 40; i++ {
		v := 0.01 * float64(i)
		one.Append(geom.V3(v, v, v), []float64{v, float64(i)})
	}
	empty := particles.NewSet(particles.NewSchema("a", "b"), 0)
	for _, tc := range []struct {
		name string
		set  *particles.Set
		cfg  BuildConfig
	}{
		{"lossless", big, DefaultBuildConfig()},
		{"lossy", big, v3},
		{"one-treelet", one, DefaultBuildConfig()},
		{"empty", empty, DefaultBuildConfig()},
	} {
		f, b := buildAndOpen(t, tc.set, domain, tc.cfg)
		nodes, err := checkShallowTree(b.Buf)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.name == "one-treelet" && (f.NumTreelets() != 1 || nodes != 0) {
			t.Fatalf("%s: %d treelets, %d shallow nodes", tc.name, f.NumTreelets(), nodes)
		}
		if !reflect.DeepEqual(b.Ranges, f.Ranges) {
			t.Errorf("%s: Built.Ranges %v, file %v", tc.name, b.Ranges, f.Ranges)
		}
		if !reflect.DeepEqual(b.RootBitmaps, f.RootBitmaps()) {
			t.Errorf("%s: Built.RootBitmaps %v, file %v", tc.name, b.RootBitmaps, f.RootBitmaps())
		}
	}
}

func TestSingleParticle(t *testing.T) {
	s := particles.NewSet(particles.NewSchema("a"), 1)
	s.Append(geom.V3(0.5, 0.5, 0.5), []float64{42})
	domain := geom.NewBox(geom.V3(0, 0, 0), geom.V3(1, 1, 1))
	f, _ := buildAndOpen(t, s, domain, DefaultBuildConfig())
	got, err := f.ReadAll()
	if err != nil || got.Len() != 1 || got.Attrs[0][0] != 42 {
		t.Errorf("single particle read failed: %v %d", err, got.Len())
	}
}

func TestFilterOutsideLocalRange(t *testing.T) {
	s, domain := randomSet(1000, 8)
	f, _ := buildAndOpen(t, s, domain, DefaultBuildConfig())
	got, err := f.CountMatching(Query{Filters: []AttrFilter{{Attr: 0, Min: 1e9, Max: 2e9}}})
	if err != nil || got != 0 {
		t.Errorf("out-of-range filter returned %d, err %v", got, err)
	}
	// Invalid attribute index matches nothing rather than panicking.
	got, err = f.CountMatching(Query{Filters: []AttrFilter{{Attr: 99, Min: 0, Max: 1}}})
	if err != nil || got != 0 {
		t.Errorf("bad attr filter returned %d, err %v", got, err)
	}
}

// TestScanAllocsPerTreelet pins the engine's allocation shape: a warm full
// scan at Workers 1 reads the treelets' columns through one scratch slice,
// so what it allocates scales with the treelets, never with the particles.
func TestScanAllocsPerTreelet(t *testing.T) {
	s, domain := clusteredSet(20000, 15)
	f, _ := buildAndOpen(t, s, domain, DefaultBuildConfig())
	scan := func() {
		st, err := f.QueryWithConfig(Query{}, QueryConfig{Workers: 1}, func(geom.Vec3, []float64) error { return nil })
		if err != nil || st.Visited != int64(s.Len()) {
			t.Fatalf("scan: %d visited, err %v", st.Visited, err)
		}
	}
	scan() // load every treelet into the cache
	allocs := testing.AllocsPerRun(5, scan)
	if limit := float64(8 * (f.NumTreelets() + 1)); allocs > limit {
		t.Fatalf("warm scan of %d particles in %d treelets allocated %.0f times, want at most %.0f",
			s.Len(), f.NumTreelets(), allocs, limit)
	}

	// With several workers the walk is still the serial one, plus helpers
	// started once and a ring of slots made once, so a warm scan allocates
	// at most the serial count plus a constant per worker, whatever the
	// number of treelets.
	s, domain = randomSet(200000, 28)
	f, _ = buildAndOpen(t, s, domain, DefaultBuildConfig())
	warmAllocs := func(cfg QueryConfig) float64 {
		scan := func() {
			st, err := f.QueryWithConfig(Query{}, cfg, func(geom.Vec3, []float64) error { return nil })
			if err != nil || st.Visited != int64(s.Len()) {
				t.Fatalf("scan %+v: %d visited, err %v", cfg, st.Visited, err)
			}
		}
		scan()
		return testing.AllocsPerRun(5, scan)
	}
	serial := warmAllocs(QueryConfig{Workers: 1})
	for _, w := range []int{2, 4} {
		cfg := QueryConfig{Workers: w}
		if allocs, limit := warmAllocs(cfg), serial+float64(32*w); allocs > limit {
			t.Errorf("warm scan of %d treelets at %+v allocated %.0f times, want at most %.0f (serial %.0f)",
				f.NumTreelets(), cfg, allocs, limit, serial)
		}
	}
}

// TestBuildAllocsPerTreelet holds a serial build's allocations to a constant
// (the sort, the arena's growth, the compaction) plus a few per treelet: its
// record, node slice, layout order and bitmap column, and its encoded
// sections. Nothing is allocated per node. Small leaves and uniform
// positions make one treelet per Morton subprefix, so the per-treelet term
// dominates. The build allocates 541 times over 32 treelets and 1 755 over
// 128 (546 and 1 759 under the race detector).
func TestBuildAllocsPerTreelet(t *testing.T) {
	for _, n := range []int{20000, 100000} {
		s, domain := randomSet(n, 3)
		cfg := DefaultBuildConfig()
		cfg.Workers = 1
		cfg.MaxLeafSize = 16
		var built *Built
		allocs := testing.AllocsPerRun(3, func() {
			b, err := Build(s, domain, cfg)
			if err != nil {
				t.Fatal(err)
			}
			built = b
		})
		treelets := built.Stats.NumTreelets
		if limit := float64(140 + 13*treelets); allocs > limit {
			t.Errorf("serial build of %d particles in %d treelets allocated %.0f times, want at most %.0f",
				n, treelets, allocs, limit)
		}
	}
}

// attrSet is randomSet with nA attributes: smooth float columns at even
// indices, integral ones at odd indices, so a treelet holds key-for and
// int-for sections.
func attrSet(n, nA int, seed int64) (*particles.Set, geom.Box) {
	r := rand.New(rand.NewSource(seed))
	names := make([]string, nA)
	for a := range names {
		names[a] = fmt.Sprintf("a%d", a)
	}
	s := particles.NewSet(particles.NewSchema(names...), n)
	attrs := make([]float64, nA)
	for i := 0; i < n; i++ {
		p := geom.V3(r.Float64(), r.Float64(), r.Float64())
		for a := range attrs {
			attrs[a] = float64(i % 97)
			if a%2 == 0 {
				attrs[a] = p.X*100*float64(a+1) + r.Float64()
			}
		}
		s.Append(p, attrs)
	}
	return s, geom.NewBox(geom.V3(0, 0, 0), geom.V3(1, 1, 1))
}

// TestColdScanAllocsPerTreelet holds a cold single-worker scan's
// allocations to a constant plus a few per treelet load, the same few at one
// attribute and at seven, lossless, lossy and over zero-crossing values: a
// load reads the treelet's bytes, unpacks its node table into nodes, a
// bitmap column and the column scratch it reads them through, makes its node
// blocks and their one frame slab (the k-d cells and the attribute frames),
// and decodes every section into one float32 slab for x, y and z and one
// float64 slab for the attributes, so no allocation is made per section. A
// per-node-cols section reads its frame columns through the node table's
// column scratch. The scan allocates 432 times over 32 treelets and 1 683
// over 128 in every build.
func TestColdScanAllocsPerTreelet(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations swamp the bound")
	}
	builds := []struct {
		name   string
		nA     int
		lossy  bool // quant-for attributes under per-node-cols frames
		signed bool // float attributes centred on zero: sign-key-for
		want   string
	}{
		{"lossless", 1, false, false, "key-for"},
		{"lossless", 7, false, false, "key-for"},
		{"lossy", 7, true, false, "quant-for per-node-cols"},
		{"zero-crossing", 7, false, true, "sign-key-for"},
	}
	for _, n := range []int{20000, 100000} {
		for _, bc := range builds {
			s, domain := attrSet(n, bc.nA, 5)
			cfg := DefaultBuildConfig()
			cfg.MaxLeafSize = 16
			if bc.lossy {
				cfg.Compress, cfg.AttrErrorBounds = true, make([]float64, bc.nA)
				for a := range cfg.AttrErrorBounds {
					cfg.AttrErrorBounds[a] = 1e-2
				}
			}
			if bc.signed {
				for a := 0; a < bc.nA; a += 2 {
					for i, v := range s.Attrs[a] {
						s.Attrs[a][i] = v - math.Floor(v) - 0.5
					}
				}
			}
			f, _ := buildAndOpen(t, s, domain, cfg)
			for ti := range f.NumTreelets() {
				lay, err := f.TreeletLayout(context.Background(), ti)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.ContainsFunc(lay.Sections, func(sec SectionInfo) bool {
					return CodecName(sec.Codec) == bc.want || CodecName(sec.Codec)+" "+sec.Mode == bc.want
				}) {
					t.Fatalf("%s build of %d particles: treelet %d holds no %s section", bc.name, n, ti, bc.want)
				}
			}
			allocs := testing.AllocsPerRun(3, func() {
				f.cache.Purge()
				if _, err := f.Query(context.Background(), Query{}, QueryConfig{Workers: 1}, nil); err != nil {
					t.Fatal(err)
				}
			})
			treelets := f.NumTreelets()
			t.Logf("%s build of %d particles, %d attributes: %.0f allocations over %d treelets", bc.name, n, bc.nA, allocs, treelets)
			if limit := float64(20 + 14*treelets); allocs > limit {
				t.Errorf("cold scan of the %s build of %d particles, %d attributes, in %d treelets allocated %.0f times, want at most %.0f",
					bc.name, n, bc.nA, treelets, allocs, limit)
			}
		}
	}
}

// TestTreeletNodesExact: a serial build makes a treelet's nodes in its
// arena and copies them out once, so every treelet's node slice is exactly
// as long as its capacity, at small and large leaves, over treelets that
// grow and shrink from one to the next.
func TestTreeletNodesExact(t *testing.T) {
	s, domain := randomSet(100000, 3)
	_, sorted := sortByMorton(s, domain, 1)
	var groups []group
	for from, size := 0, 700; from < s.Len(); from, size = from+size, size*7%9001+1 {
		groups = append(groups, group{code: morton.Code(len(groups)), from: from, to: min(from+size, s.Len())})
	}
	for _, leaf := range []int{16, 128} {
		cfg := DefaultBuildConfig()
		cfg.MaxLeafSize = leaf
		treelets, err := buildTreelets(s, slices.Clone(sorted), groups, cfg, attrRanges(s, 1), 1)
		if err != nil {
			t.Fatal(err)
		}
		for ti, tr := range treelets {
			if cap(tr.nodes) != len(tr.nodes) {
				t.Fatalf("max leaf size %d, treelet %d of %d particles: %d nodes in a slice of capacity %d",
					leaf, ti, len(tr.order), len(tr.nodes), cap(tr.nodes))
			}
		}
	}
}

func TestProgressiveMonotonicCounts(t *testing.T) {
	s, domain := randomSet(4000, 10)
	f, _ := buildAndOpen(t, s, domain, DefaultBuildConfig())
	prevCount := int64(0)
	for step := 1; step <= 10; step++ {
		qual := float64(step) / 10
		got, err := f.CountMatching(Query{Quality: qual})
		if err != nil {
			t.Fatal(err)
		}
		if got < prevCount {
			t.Fatalf("quality %.1f returned %d < previous %d", qual, got, prevCount)
		}
		prevCount = got
	}
	if prevCount != int64(s.Len()) {
		t.Fatalf("quality 1.0 returned %d, want %d", prevCount, s.Len())
	}
	// Coarse read returns a strict subset.
	coarse, err := f.CountMatching(Query{Quality: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if coarse == 0 || coarse >= int64(s.Len()) {
		t.Errorf("quality 0.1 returned %d of %d", coarse, s.Len())
	}
}

func TestQualityToDepth(t *testing.T) {
	d, frac := qualityToDepth(0, 10)
	if d != 0 || frac != 0 {
		t.Errorf("q=0 -> %d %g", d, frac)
	}
	d, frac = qualityToDepth(1, 10)
	if d != 10 || frac != 1 {
		t.Errorf("q=1 -> %d %g", d, frac)
	}
	// Monotone in q.
	lastD, lastF := 0, 0.0
	for q := 0.05; q <= 1.0; q += 0.05 {
		d, frac = qualityToDepth(q, 10)
		if d < lastD || (d == lastD && frac < lastF) {
			t.Fatalf("qualityToDepth not monotone at %g", q)
		}
		lastD, lastF = d, frac
	}
}

func TestVisitorErrorAborts(t *testing.T) {
	s, domain := randomSet(1000, 11)
	f, _ := buildAndOpen(t, s, domain, DefaultBuildConfig())
	sentinel := os.ErrClosed
	n := 0
	_, err := f.QueryWithConfig(Query{}, QueryConfig{}, func(geom.Vec3, []float64) error {
		n++
		if n == 10 {
			return sentinel
		}
		return nil
	})
	if err != sentinel {
		t.Fatalf("err = %v", err)
	}
	if n != 10 {
		t.Fatalf("visited %d after abort", n)
	}
}

// decodeFile opens path for pread access: DecodeCtx over an *os.File.
func decodeFile(t *testing.T, path string) *File {
	t.Helper()
	fh, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := fh.Stat()
	if err != nil {
		t.Fatal(err)
	}
	f, err := DecodeCtx(context.Background(), fh, st.Size())
	if err != nil {
		fh.Close()
		t.Fatal(err)
	}
	f.SetCloser(fh)
	return f
}

func TestFileOnDisk(t *testing.T) {
	s, domain := randomSet(3000, 12)
	b, err := Build(s, domain, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "test.bat")
	if err := os.WriteFile(path, b.Buf, 0o644); err != nil {
		t.Fatal(err)
	}
	f := decodeFile(t, path)
	defer f.Close()
	got, err := f.ReadAll()
	if err != nil || got.Len() != 3000 {
		t.Fatalf("disk read: %v, %d particles", err, got.Len())
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := FromBuffer([]byte("not a bat file at all")); err == nil {
		t.Error("garbage image should error")
	}
	// Truncated valid image.
	s, domain := randomSet(1000, 13)
	b, _ := Build(s, domain, DefaultBuildConfig())
	f, err := FromBuffer(b.Buf[:len(b.Buf)/2])
	if err == nil {
		// Header may parse; the treelet read must fail.
		_, err = f.ReadAll()
	}
	if err == nil {
		t.Error("truncated image should error somewhere")
	}
}

func TestStorageOverheadSmall(t *testing.T) {
	// Paper §VI-B: ~0.9% overhead. With a realistic schema (7 doubles) ours
	// is below that: the packed positions and node tables take fewer bytes
	// than the raw payload they replace, so the file is smaller than raw.
	r := rand.New(rand.NewSource(15))
	s := particles.NewSet(particles.UniformSchema(7), 200000)
	for i := 0; i < 200000; i++ {
		p := geom.V3(r.Float64(), r.Float64(), r.Float64())
		s.Append(p, []float64{p.X, p.Y, p.Z, p.X * p.Y, r.Float64(), r.NormFloat64(), float64(i)})
	}
	domain := geom.NewBox(geom.V3(0, 0, 0), geom.V3(1, 1, 1))
	b, err := Build(s, domain, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	if over := b.Stats.OverheadFraction(); over > 0.009 {
		t.Errorf("overhead = %.2f%%, want at most the paper's 0.9%% (stats %+v)", over*100, b.Stats)
	}
}

func TestLODSpatialCoverage(t *testing.T) {
	// Stratified sampling: a coarse read of a uniform distribution should
	// cover all octants of the domain.
	s, domain := randomSet(8000, 17)
	f, _ := buildAndOpen(t, s, domain, DefaultBuildConfig())
	var octants [8]int
	_, err := f.QueryWithConfig(Query{Quality: 0.05}, QueryConfig{}, func(p geom.Vec3, _ []float64) error {
		oct := 0
		if p.X > 0.5 {
			oct |= 1
		}
		if p.Y > 0.5 {
			oct |= 2
		}
		if p.Z > 0.5 {
			oct |= 4
		}
		octants[oct]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range octants {
		if c == 0 {
			t.Errorf("octant %d empty in coarse read: %v", i, octants)
		}
	}
}

func TestStratifiedSample(t *testing.T) {
	// Particle 0 lies outside every other particle's box, so bounds that
	// counted a pick would show it.
	set := particles.NewSet(particles.NewSchema(), 100)
	set.Append(geom.V3(-100, 100, -100), nil)
	for i := 1; i < 100; i++ {
		set.Append(geom.V3(float64(i%13), -float64(i), float64(i%7)/8), nil)
	}
	var a buildArena
	a.ensure(100, 8)
	pts := make([]int, 100)
	for i := range pts {
		pts[i] = i
	}
	lod, rest, bounds := stratifiedSampleInPlace(set, pts, 8, &a)
	if len(lod) != 8 || len(rest) != 92 {
		t.Fatalf("sample sizes %d/%d", len(lod), len(rest))
	}
	if want := boxOf(set, rest); bounds != want {
		t.Errorf("bounds %v, the remainder's box %v", bounds, want)
	}
	// Samples spread across strata.
	for i := 1; i < len(lod); i++ {
		if lod[i]-lod[i-1] < 6 {
			t.Errorf("samples bunched: %v", lod)
		}
	}
	// Union is the input.
	seen := map[int]bool{}
	for _, p := range append(append([]int{}, lod...), rest...) {
		if seen[p] {
			t.Fatalf("duplicated %d", p)
		}
		seen[p] = true
	}
	if len(seen) != 100 {
		t.Fatalf("lost points: %d", len(seen))
	}
	// A stride below 2 picks element 0 and 1 (of 0, 1, 3, …): rest starts
	// at element 2 and the bounds with it.
	for i := range pts {
		pts[i] = i
	}
	lod, rest, bounds = stratifiedSampleInPlace(set, pts[:10], 8, &a)
	if len(lod) != 8 || len(rest) != 2 || lod[0] != 0 || lod[1] != 1 || rest[0] != 2 {
		t.Fatalf("stride 1.25: lod %v rest %v", lod, rest)
	}
	if want := boxOf(set, rest); bounds != want {
		t.Errorf("stride 1.25: bounds %v, the remainder's box %v", bounds, want)
	}
	// k >= n returns everything as LOD.
	lod, rest, bounds = stratifiedSampleInPlace(set, pts[:5], 8, &a)
	if len(lod) != 5 || len(rest) != 0 || bounds != geom.EmptyBox() {
		t.Errorf("small input sample %d/%d, bounds %v", len(lod), len(rest), bounds)
	}
}

// boxOf folds geom.Box.Extend over the positions of pts.
func boxOf(set *particles.Set, pts []int) geom.Box {
	b := geom.EmptyBox()
	for _, p := range pts {
		b = b.Extend(set.Position(p))
	}
	return b
}

func TestCoincidentParticles(t *testing.T) {
	// All particles at the same position: degenerate splits must not
	// recurse forever.
	s := particles.NewSet(particles.NewSchema("a"), 500)
	for i := 0; i < 500; i++ {
		s.Append(geom.V3(0.5, 0.5, 0.5), []float64{float64(i)})
	}
	domain := geom.NewBox(geom.V3(0, 0, 0), geom.V3(1, 1, 1))
	cfg := DefaultBuildConfig()
	cfg.MaxLeafSize = 16
	f, _ := buildAndOpen(t, s, domain, cfg)
	got, err := f.ReadAll()
	if err != nil || got.Len() != 500 {
		t.Fatalf("coincident read: %v, %d", err, got.Len())
	}
}

// TestCoincidentConstantSetsOpen: coincident particles under one constant
// attribute pack their sections into a few bytes, fewer than the treelet has
// particles; the writer stores their positions raw instead, so the file opens
// under the reader's points-per-byte bound and reads back every row.
func TestCoincidentConstantSetsOpen(t *testing.T) {
	for _, n := range []int{1000, 100000} {
		s := particles.NewSet(particles.NewSchema("a"), n)
		for i := 0; i < n; i++ {
			s.Append(geom.V3(0.25, 0.5, 0.75), []float64{3})
		}
		f, b := buildAndOpen(t, s, geom.NewBox(geom.V3(0, 0, 0), geom.V3(1, 1, 1)), DefaultBuildConfig())
		if b.Stats.PosPayloadEncBytes != int64(12*n) {
			t.Errorf("%d particles: %d position bytes, want them raw, %d", n, b.Stats.PosPayloadEncBytes, 12*n)
		}
		got, err := f.ReadAll()
		if err != nil || got.Len() != n {
			t.Fatalf("%d particles: ReadAll returned %d rows, error %v", n, got.Len(), err)
		}
		for i := 0; i < n; i++ {
			if p, a := got.Position(i), got.Attrs[0][i]; p != geom.V3(0.25, 0.5, 0.75) || a != 3 {
				t.Fatalf("%d particles: row %d is %v, %v", n, i, p, a)
			}
		}
	}
}

func TestParallelMatchesSerialBuild(t *testing.T) {
	s, domain := clusteredSet(10000, 18)
	cfgP := DefaultBuildConfig()
	cfgS := cfgP
	cfgS.Workers = 1
	bp, err := Build(s, domain, cfgP)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := Build(s, domain, cfgS)
	if err != nil {
		t.Fatal(err)
	}
	if len(bp.Buf) != len(bs.Buf) {
		t.Fatalf("parallel build %d bytes != serial %d", len(bp.Buf), len(bs.Buf))
	}
	for i := range bp.Buf {
		if bp.Buf[i] != bs.Buf[i] {
			t.Fatalf("builds differ at byte %d", i)
		}
	}
}

func TestDictionaryDeduplicates(t *testing.T) {
	s, domain := randomSet(50000, 19)
	_, b := buildAndOpen(t, s, domain, DefaultBuildConfig())
	// Many nodes share bitmaps; the dictionary must be far smaller than
	// the node count.
	if b.Stats.DictEntries >= b.Stats.NumTreeletNodes {
		t.Errorf("dictionary (%d) not smaller than node count (%d)",
			b.Stats.DictEntries, b.Stats.NumTreeletNodes)
	}
	if b.Stats.DictEntries > math.MaxUint16 {
		t.Errorf("dictionary exceeds 16-bit IDs: %d", b.Stats.DictEntries)
	}
}

func BenchmarkBuild100k(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	s := particles.NewSet(particles.UniformSchema(7), 100000)
	for i := 0; i < 100000; i++ {
		s.Append(geom.V3(r.Float64(), r.Float64(), r.Float64()),
			[]float64{1, 2, 3, 4, 5, 6, 7})
	}
	domain := geom.NewBox(geom.V3(0, 0, 0), geom.V3(1, 1, 1))
	b.SetBytes(s.Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(s, domain, DefaultBuildConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProgressiveRead(b *testing.B) {
	s, domain := clusteredSet(100000, 2)
	built, err := Build(s, domain, DefaultBuildConfig())
	if err != nil {
		b.Fatal(err)
	}
	f, err := FromBuffer(built.Buf)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prev := 0.0
		for step := 1; step <= 10; step++ {
			q := float64(step) / 10
			if _, err := f.CountMatching(Query{PrevQuality: prev, Quality: q}); err != nil {
				b.Fatal(err)
			}
			prev = q
		}
	}
}

func TestFloat32AttributesRoundTrip(t *testing.T) {
	// Mixed-precision schema: the second attribute is stored as float32
	// on disk, so values round-trip through float32 precision.
	r := rand.New(rand.NewSource(26))
	schema := particles.Schema{Attrs: []particles.AttrDesc{
		{Name: "exact", Type: particles.Float64},
		{Name: "single", Type: particles.Float32},
	}}
	s := particles.NewSet(schema, 2000)
	for i := 0; i < 2000; i++ {
		s.Append(geom.V3(r.Float64(), r.Float64(), r.Float64()),
			[]float64{r.NormFloat64() * 1e6, r.NormFloat64() * 1e6})
	}
	domain := geom.NewBox(geom.V3(0, 0, 0), geom.V3(1, 1, 1))
	b, err := Build(s, domain, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	// File is smaller than the all-f64 equivalent.
	s64 := particles.NewSet(particles.NewSchema("exact", "single"), 2000)
	s64.X, s64.Y, s64.Z = s.X, s.Y, s.Z
	s64.Attrs = s.Attrs
	b64, err := Build(s64, domain, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Buf) >= len(b64.Buf) {
		t.Errorf("f32-attr file %d B >= f64 file %d B", len(b.Buf), len(b64.Buf))
	}
	f, err := FromBuffer(b.Buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Schema.Attrs[1].Type != particles.Float32 {
		t.Fatal("schema type lost")
	}
	got, err := f.ReadAll()
	if err != nil || got.Len() != 2000 {
		t.Fatalf("read: %v %d", err, got.Len())
	}
	// Match on the exact attribute; the single one is f32-rounded.
	byExact := map[float64]float64{}
	for i := 0; i < s.Len(); i++ {
		byExact[s.Attrs[0][i]] = s.Attrs[1][i]
	}
	for i := 0; i < got.Len(); i++ {
		orig, ok := byExact[got.Attrs[0][i]]
		if !ok {
			t.Fatal("f64 attribute not exact")
		}
		if got.Attrs[1][i] != float64(float32(orig)) {
			t.Fatalf("f32 attribute rounding wrong: %v vs %v", got.Attrs[1][i], orig)
		}
	}
}

func TestBitmapPruningEffective(t *testing.T) {
	// The paper's §V-A claim: attribute bitmaps prune subtrees before
	// their particles are touched. mass correlates with x, so a narrow
	// mass filter must prune spatially distant subtrees.
	s, domain := randomSet(20000, 27)
	cfg := DefaultBuildConfig()
	cfg.MaxLeafSize = 32
	f, _ := buildAndOpen(t, s, domain, cfg)
	st, err := f.QueryWithConfig(
		Query{Filters: []AttrFilter{{Attr: 0, Min: 10, Max: 15}}}, QueryConfig{},
		func(geom.Vec3, []float64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.PrunedSubtrees == 0 {
		t.Error("selective filter pruned nothing")
	}
	if st.Visited == 0 {
		t.Error("selective filter matched nothing")
	}
	// The work actually done (visited + rejected) must be far below a
	// full scan.
	touched := st.Visited + st.FalsePositives
	if touched*2 > int64(s.Len()) {
		t.Errorf("filter touched %d of %d particles; bitmaps not pruning", touched, s.Len())
	}
	// An unfiltered query touches everything and prunes nothing by
	// attribute.
	full, err := f.QueryWithConfig(Query{}, QueryConfig{}, func(geom.Vec3, []float64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if full.Visited != int64(s.Len()) || full.FalsePositives != 0 {
		t.Errorf("full scan stats %+v", full)
	}
}

func BenchmarkAttributeFilteredQuery(b *testing.B) {
	s, domain := randomSet(200000, 28)
	built, err := Build(s, domain, DefaultBuildConfig())
	if err != nil {
		b.Fatal(err)
	}
	f, err := FromBuffer(built.Buf)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("full-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := f.CountMatching(Query{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("narrow-filter", func(b *testing.B) {
		q := Query{Filters: []AttrFilter{{Attr: 0, Min: 40, Max: 45}}}
		for i := 0; i < b.N; i++ {
			if _, err := f.CountMatching(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	// batserve's case: the request's context can end, so every treelet walk
	// polls it; serially and as batserve's benchmark flags run it, on two
	// workers.
	for _, cfg := range []QueryConfig{{}, {Workers: 2}} {
		b.Run(fmt.Sprintf("full-scan-cancellable-w%d", cfg.effectiveWorkers()), func(b *testing.B) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			for i := 0; i < b.N; i++ {
				if _, err := f.Query(ctx, Query{}, cfg, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestCorruptionRobustness(t *testing.T) {
	// Random single-byte mutations of a valid file must never panic:
	// either the file still parses (the flipped byte was payload) or a
	// clean error surfaces.
	s, domain := clusteredSet(4000, 29)
	b, err := Build(s, domain, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(123))
	run := func(buf []byte) {
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("panic on corrupted input: %v", p)
			}
		}()
		f, err := FromBuffer(buf)
		if err != nil {
			return
		}
		// Traversals must also be panic-free.
		f.CountMatching(Query{})
		box := geom.NewBox(geom.V3(0, 0, 0), geom.V3(0.5, 0.5, 0.5))
		f.CountMatching(Query{Bounds: &box, Filters: []AttrFilter{{Attr: 0, Min: 0, Max: 1}}})
	}
	for trial := 0; trial < 300; trial++ {
		buf := append([]byte(nil), b.Buf...)
		// Flip 1-4 random bytes.
		for k := 0; k <= r.Intn(4); k++ {
			buf[r.Intn(len(buf))] ^= byte(1 + r.Intn(255))
		}
		run(buf)
	}
	// Pure garbage of various sizes.
	for trial := 0; trial < 100; trial++ {
		buf := make([]byte, r.Intn(8192))
		r.Read(buf)
		run(buf)
	}
	// Truncations at every granularity.
	for cut := len(b.Buf); cut >= 0; cut -= 97 {
		run(b.Buf[:cut])
	}
}
