package meta

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"libbat/internal/aggtree"
	"libbat/internal/bitmap"
	"libbat/internal/geom"
	"libbat/internal/particles"
)

// buildFixture is fixture without the testing.T, usable from fuzz seeds.
func buildFixture() (*aggtree.Tree, particles.Schema, []LeafReport, error) {
	var ranks []aggtree.RankInfo
	for i := 0; i < 4; i++ {
		lo := geom.V3(float64(i), 0, 0)
		ranks = append(ranks, aggtree.RankInfo{
			Rank:   i,
			Bounds: geom.NewBox(lo, lo.Add(geom.V3(1, 1, 1))),
			Count:  100,
		})
	}
	schema := particles.NewSchema("temp", "mass")
	tr, err := aggtree.Build(ranks, aggtree.DefaultConfig(100*int64(schema.BytesPerParticle()), schema.BytesPerParticle()))
	if err != nil {
		return nil, schema, nil, err
	}
	if tr.NumLeaves() != 4 {
		return nil, schema, nil, fmt.Errorf("fixture wants 4 leaves, got %d", tr.NumLeaves())
	}
	var reports []LeafReport
	for i, l := range tr.Leaves {
		reports = append(reports, LeafReport{
			Leaf:     i,
			FileName: fmt.Sprintf("leaf%04d.bat", i),
			Count:    l.Count,
			Bounds:   l.Bounds,
			LocalRanges: []bitmap.Range{
				{Min: float64(i * 10), Max: float64(i*10 + 10)}, // temp: disjoint per leaf
				{Min: 0, Max: 1}, // mass: shared
			},
			RootBitmaps: []bitmap.Bitmap{0xFFFFFFFF, 0xFFFFFFFF},
		})
	}
	return tr, schema, reports, nil
}

// fixture builds a 4-leaf adaptive tree with reports.
func fixture(t *testing.T) (*aggtree.Tree, particles.Schema, []LeafReport) {
	t.Helper()
	tr, schema, reports, err := buildFixture()
	if err != nil {
		t.Fatal(err)
	}
	return tr, schema, reports
}

func TestBuildGlobalRanges(t *testing.T) {
	tr, schema, reports := fixture(t)
	m, err := Build(tr, tr.Leaves, schema, reports)
	if err != nil {
		t.Fatal(err)
	}
	if m.GlobalRanges[0].Min != 0 || m.GlobalRanges[0].Max != 40 {
		t.Errorf("temp global range = %+v", m.GlobalRanges[0])
	}
	if m.GlobalRanges[1].Min != 0 || m.GlobalRanges[1].Max != 1 {
		t.Errorf("mass global range = %+v", m.GlobalRanges[1])
	}
	if m.TotalCount() != 400 {
		t.Errorf("TotalCount = %d", m.TotalCount())
	}
	if len(m.Nodes) != len(tr.Nodes) {
		t.Errorf("nodes = %d, want %d", len(m.Nodes), len(tr.Nodes))
	}
}

func TestBuildValidatesReports(t *testing.T) {
	tr, schema, reports := fixture(t)
	if _, err := Build(tr, tr.Leaves, schema, reports[:3]); err == nil {
		t.Error("missing report should error")
	}
	dup := append(append([]LeafReport{}, reports...), reports[0])
	if _, err := Build(tr, tr.Leaves, schema, dup); err == nil {
		t.Error("duplicate report should error")
	}
	bad := append([]LeafReport{}, reports...)
	bad[0].Leaf = 99
	if _, err := Build(tr, tr.Leaves, schema, bad); err == nil {
		t.Error("unknown leaf should error")
	}
	short := append([]LeafReport{}, reports...)
	short[0].RootBitmaps = short[0].RootBitmaps[:1]
	if _, err := Build(tr, tr.Leaves, schema, short); err == nil {
		t.Error("wrong attr count should error")
	}
	// Names are stored behind a u16 length.
	long := strings.Repeat("n", 1<<16)
	longName := append([]LeafReport{}, reports...)
	longName[0].FileName = long
	if _, err := Build(tr, tr.Leaves, schema, longName); err == nil {
		t.Error("a 65536-byte leaf file name should error")
	}
	longAttr := particles.Schema{Attrs: append([]particles.AttrDesc{}, schema.Attrs...)}
	longAttr.Attrs[0].Name = long
	if _, err := Build(tr, tr.Leaves, longAttr, reports); err == nil {
		t.Error("a 65536-byte attribute name should error")
	}
}

func TestLeafBitmapRemap(t *testing.T) {
	tr, schema, reports := fixture(t)
	// Leaf 0's temp covers [0,10] locally; set only the first local bin.
	reports[0].RootBitmaps[0] = 1
	m, err := Build(tr, tr.Leaves, schema, reports)
	if err != nil {
		t.Fatal(err)
	}
	// Global temp range is [0,40]; local bin 0 covers [0, 10/32], which
	// must map into low global bins only.
	bm := m.Leaves[0].Bitmaps[0]
	if bm == 0 {
		t.Fatal("remapped bitmap empty")
	}
	q := bitmap.OfQuery(0, 0.4, m.GlobalRanges[0])
	if !bm.Overlaps(q) {
		t.Error("remapped bitmap lost low values")
	}
	qHigh := bitmap.OfQuery(30, 40, m.GlobalRanges[0])
	if bm.Overlaps(qHigh) {
		t.Error("remapped bitmap gained high values")
	}
}

func TestInnerNodesMergeChildren(t *testing.T) {
	tr, schema, reports := fixture(t)
	// Give each leaf a distinct single-bin bitmap on mass.
	for i := range reports {
		reports[i].RootBitmaps[1] = 1 << uint(i)
	}
	m, err := Build(tr, tr.Leaves, schema, reports)
	if err != nil {
		t.Fatal(err)
	}
	// Root must contain the union of every leaf's mass bitmap (the local
	// and global mass ranges are identical so remap is identity).
	root := m.Nodes[0].Bitmaps[1]
	if root != 0b1111 {
		t.Errorf("root mass bitmap = %b", root)
	}
}

func TestSelectLeavesSpatial(t *testing.T) {
	tr, schema, reports := fixture(t)
	m, err := Build(tr, tr.Leaves, schema, reports)
	if err != nil {
		t.Fatal(err)
	}
	all := m.SelectLeaves(nil, nil)
	if len(all) != 4 {
		t.Fatalf("all leaves = %v", all)
	}
	box := geom.NewBox(geom.V3(0, 0, 0), geom.V3(1.5, 1, 1))
	got := m.SelectLeaves(&box, nil)
	if len(got) != 2 {
		t.Errorf("spatial select = %v", got)
	}
	far := geom.NewBox(geom.V3(100, 100, 100), geom.V3(101, 101, 101))
	if got := m.SelectLeaves(&far, nil); len(got) != 0 {
		t.Errorf("disjoint select = %v", got)
	}
}

func TestSelectLeavesByAttribute(t *testing.T) {
	tr, schema, reports := fixture(t)
	m, err := Build(tr, tr.Leaves, schema, reports)
	if err != nil {
		t.Fatal(err)
	}
	// temp ranges are disjoint per leaf ([0,10], [10,20], ...): a filter
	// on [32,38] should prune to (about) one leaf.
	got := m.SelectLeaves(nil, []AttrFilter{{Attr: 0, Min: 32, Max: 38}})
	if len(got) == 0 || len(got) > 2 {
		t.Errorf("attr select = %v", got)
	}
	for _, li := range got {
		if li == 0 || li == 1 {
			t.Errorf("leaf %d (temp <= 20) should be pruned for [32,38]", li)
		}
	}
	// A filter outside the global range selects nothing.
	if got := m.SelectLeaves(nil, []AttrFilter{{Attr: 0, Min: 100, Max: 200}}); len(got) != 0 {
		t.Errorf("out-of-range select = %v", got)
	}
	// Invalid attribute selects nothing.
	if got := m.SelectLeaves(nil, []AttrFilter{{Attr: 9, Min: 0, Max: 1}}); len(got) != 0 {
		t.Errorf("bad attr select = %v", got)
	}
}

func TestFlatGrouping(t *testing.T) {
	// AUG-style: no tree, linear leaf scan.
	_, schema, reports := fixture(t)
	leaves := make([]aggtree.Leaf, 4)
	for i := range leaves {
		lo := geom.V3(float64(i), 0, 0)
		leaves[i] = aggtree.Leaf{Bounds: geom.NewBox(lo, lo.Add(geom.V3(1, 1, 1))), Count: 100}
	}
	m, err := Build(nil, leaves, schema, reports)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Nodes) != 0 {
		t.Errorf("flat grouping has %d nodes", len(m.Nodes))
	}
	box := geom.NewBox(geom.V3(2.5, 0, 0), geom.V3(3.5, 1, 1))
	got := m.SelectLeaves(&box, nil)
	if len(got) != 2 {
		t.Errorf("flat spatial select = %v", got)
	}
	// Domain is the union of leaf bounds.
	if m.Domain != geom.NewBox(geom.V3(0, 0, 0), geom.V3(4, 1, 1)) {
		t.Errorf("flat domain = %v", m.Domain)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr, schema, reports := fixture(t)
	m, err := Build(tr, tr.Leaves, schema, reports)
	if err != nil {
		t.Fatal(err)
	}
	buf := m.Encode()
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Schema.Equal(m.Schema) {
		t.Error("schema mismatch")
	}
	if got.Domain != m.Domain {
		t.Error("domain mismatch")
	}
	if len(got.Nodes) != len(m.Nodes) || len(got.Leaves) != len(m.Leaves) {
		t.Fatal("structure mismatch")
	}
	for i := range m.Nodes {
		a, b := m.Nodes[i], got.Nodes[i]
		if a.Axis != b.Axis || a.Pos != b.Pos || a.Left != b.Left || a.Right != b.Right || a.Bounds != b.Bounds {
			t.Fatalf("node %d mismatch", i)
		}
		for j := range a.Bitmaps {
			if a.Bitmaps[j] != b.Bitmaps[j] {
				t.Fatalf("node %d bitmap %d mismatch", i, j)
			}
		}
	}
	for i := range m.Leaves {
		a, b := m.Leaves[i], got.Leaves[i]
		if a.FileName != b.FileName || a.Count != b.Count || a.Bounds != b.Bounds {
			t.Fatalf("leaf %d mismatch: %+v vs %+v", i, a, b)
		}
		for j := range a.Bitmaps {
			if a.Bitmaps[j] != b.Bitmaps[j] || a.LocalRanges[j] != b.LocalRanges[j] {
				t.Fatalf("leaf %d attr %d mismatch", i, j)
			}
		}
	}
	// Queries agree after the round trip.
	box := geom.NewBox(geom.V3(0, 0, 0), geom.V3(1.5, 1, 1))
	if len(got.SelectLeaves(&box, nil)) != len(m.SelectLeaves(&box, nil)) {
		t.Error("query mismatch after round trip")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte("xx")); err == nil {
		t.Error("short buffer should error")
	}
	if _, err := Decode([]byte("NOPE....")); err == nil {
		t.Error("bad magic should error")
	}
	tr, schema, reports := fixture(t)
	m, _ := Build(tr, tr.Leaves, schema, reports)
	buf := m.Encode()
	if _, err := Decode(buf[:len(buf)-10]); err == nil {
		t.Error("truncated buffer should error")
	}
}

func TestDecodeCorruptionRobustness(t *testing.T) {
	tr, schema, reports := fixture(t)
	m, err := Build(tr, tr.Leaves, schema, reports)
	if err != nil {
		t.Fatal(err)
	}
	valid := m.Encode()
	r := rand.New(rand.NewSource(7))
	run := func(buf []byte) {
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("panic on corrupt metadata: %v", p)
			}
		}()
		got, err := Decode(buf)
		if err != nil {
			return
		}
		box := geom.NewBox(geom.V3(0, 0, 0), geom.V3(2, 2, 2))
		got.SelectLeaves(&box, []AttrFilter{{Attr: 0, Min: 0, Max: 100}})
		got.TotalCount()
	}
	for trial := 0; trial < 300; trial++ {
		buf := append([]byte(nil), valid...)
		for k := 0; k <= r.Intn(4); k++ {
			buf[r.Intn(len(buf))] ^= byte(1 + r.Intn(255))
		}
		run(buf)
	}
	for trial := 0; trial < 100; trial++ {
		buf := make([]byte, r.Intn(2048))
		r.Read(buf)
		run(buf)
	}
	for cut := len(valid); cut >= 0; cut -= 13 {
		run(valid[:cut])
	}
}
