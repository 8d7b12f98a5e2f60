package meta

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"libbat/internal/bitmap"
	"libbat/internal/geom"
	"libbat/internal/particles"
)

// buildFixture returns the schema and the reports of four leaves, unit cubes
// side by side along x with 100 particles each, as an adaptive Aggregation
// Tree plans them from four such ranks.
func buildFixture() (particles.Schema, []LeafReport) {
	schema := particles.NewSchema("temp", "mass")
	var reports []LeafReport
	for i := 0; i < 4; i++ {
		lo := geom.V3(float64(i), 0, 0)
		reports = append(reports, LeafReport{
			Leaf:     i,
			FileName: fmt.Sprintf("leaf%04d.bat", i),
			Count:    100,
			Bounds:   geom.NewBox(lo, lo.Add(geom.V3(1, 1, 1))),
			LocalRanges: []bitmap.Range{
				{Min: float64(i * 10), Max: float64(i*10 + 10)}, // temp: disjoint per leaf
				{Min: 0, Max: 1}, // mass: shared
			},
			RootBitmaps: []bitmap.Bitmap{0xFFFFFFFF, 0xFFFFFFFF},
		})
	}
	return schema, reports
}

// fixtureMeta builds the fixture's metadata.
func fixtureMeta(t *testing.T) *Meta {
	t.Helper()
	schema, reports := buildFixture()
	m, err := Build(schema, len(reports), reports)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBuildGlobalRanges(t *testing.T) {
	m := fixtureMeta(t)
	if m.GlobalRanges[0].Min != 0 || m.GlobalRanges[0].Max != 40 {
		t.Errorf("temp global range = %+v", m.GlobalRanges[0])
	}
	if m.GlobalRanges[1].Min != 0 || m.GlobalRanges[1].Max != 1 {
		t.Errorf("mass global range = %+v", m.GlobalRanges[1])
	}
	if m.TotalCount() != 400 {
		t.Errorf("TotalCount = %d", m.TotalCount())
	}
	// Domain is the union of leaf bounds.
	if m.Domain != geom.NewBox(geom.V3(0, 0, 0), geom.V3(4, 1, 1)) {
		t.Errorf("domain = %v", m.Domain)
	}
}

func TestBuildValidatesReports(t *testing.T) {
	schema, reports := buildFixture()
	n := len(reports)
	if _, err := Build(schema, n, reports[:3]); err == nil {
		t.Error("missing report should error")
	}
	dup := append(append([]LeafReport{}, reports...), reports[0])
	if _, err := Build(schema, n, dup); err == nil {
		t.Error("duplicate report should error")
	}
	bad := append([]LeafReport{}, reports...)
	bad[0].Leaf = 99
	if _, err := Build(schema, n, bad); err == nil {
		t.Error("unknown leaf should error")
	}
	short := append([]LeafReport{}, reports...)
	short[0].RootBitmaps = short[0].RootBitmaps[:1]
	if _, err := Build(schema, n, short); err == nil {
		t.Error("wrong attr count should error")
	}
	// Names are stored behind a u16 length.
	long := strings.Repeat("n", 1<<16)
	longName := append([]LeafReport{}, reports...)
	longName[0].FileName = long
	if _, err := Build(schema, n, longName); err == nil {
		t.Error("a 65536-byte leaf file name should error")
	}
	longAttr := particles.Schema{Attrs: append([]particles.AttrDesc{}, schema.Attrs...)}
	longAttr.Attrs[0].Name = long
	if _, err := Build(longAttr, n, reports); err == nil {
		t.Error("a 65536-byte attribute name should error")
	}
}

func TestLeafBitmapRemap(t *testing.T) {
	schema, reports := buildFixture()
	// Leaf 0's temp covers [0,10] locally; set only the first local bin.
	reports[0].RootBitmaps[0] = 1
	m, err := Build(schema, len(reports), reports)
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

func TestSelectLeavesSpatial(t *testing.T) {
	m := fixtureMeta(t)
	if all := m.SelectLeaves(nil, nil); !slices.Equal(all, []int{0, 1, 2, 3}) {
		t.Fatalf("all leaves = %v", all)
	}
	for _, tc := range []struct {
		box  geom.Box
		want []int
	}{
		{geom.NewBox(geom.V3(0, 0, 0), geom.V3(1.5, 1, 1)), []int{0, 1}},
		{geom.NewBox(geom.V3(2.5, 0, 0), geom.V3(3.5, 1, 1)), []int{2, 3}},
		{geom.NewBox(geom.V3(100, 100, 100), geom.V3(101, 101, 101)), nil},
	} {
		if got := m.SelectLeaves(&tc.box, nil); !slices.Equal(got, tc.want) {
			t.Errorf("select %v = %v, want %v", tc.box, got, tc.want)
		}
	}
}

func TestFlatGrouping(t *testing.T) {
	// AUG-style: leaves grouped without a tree need not tile the domain or
	// come in spatial order; selection is a scan of the leaf table.
	schema, reports := buildFixture()
	for i := range reports {
		lo := geom.V3(float64(2*(3-i)), 0, 0) // reverse order, gaps between
		reports[i].Bounds = geom.NewBox(lo, lo.Add(geom.V3(1, 1, 1)))
	}
	m, err := Build(schema, len(reports), reports)
	if err != nil {
		t.Fatal(err)
	}
	box := geom.NewBox(geom.V3(2.5, 0, 0), geom.V3(4.5, 1, 1))
	if got := m.SelectLeaves(&box, nil); !slices.Equal(got, []int{1, 2}) {
		t.Errorf("flat spatial select = %v, want [1 2]", got)
	}
	gap := geom.NewBox(geom.V3(1.25, 0, 0), geom.V3(1.75, 1, 1))
	if got := m.SelectLeaves(&gap, nil); len(got) != 0 {
		t.Errorf("select in a gap = %v, want none", got)
	}
	// Domain is the union of leaf bounds, gaps included.
	if m.Domain != geom.NewBox(geom.V3(0, 0, 0), geom.V3(7, 1, 1)) {
		t.Errorf("flat domain = %v", m.Domain)
	}
}

func TestSelectLeavesByAttribute(t *testing.T) {
	m := fixtureMeta(t)
	// temp ranges are disjoint per leaf ([0,10], [10,20], ...): a filter
	// on [32,38] should prune to (about) one leaf.
	got := m.SelectLeaves(nil, []particles.AttrFilter{{Attr: 0, Min: 32, Max: 38}})
	if len(got) == 0 || len(got) > 2 {
		t.Errorf("attr select = %v", got)
	}
	for _, li := range got {
		if li == 0 || li == 1 {
			t.Errorf("leaf %d (temp <= 20) should be pruned for [32,38]", li)
		}
	}
	// Box and filter together: each must admit a leaf.
	box := geom.NewBox(geom.V3(0, 0, 0), geom.V3(3.5, 1, 1))
	if got := m.SelectLeaves(&box, []particles.AttrFilter{{Attr: 0, Min: 32, Max: 38}}); !slices.Equal(got, []int{3}) {
		t.Errorf("box and attr select = %v, want [3]", got)
	}
	// A filter outside the global range selects nothing.
	if got := m.SelectLeaves(nil, []particles.AttrFilter{{Attr: 0, Min: 100, Max: 200}}); len(got) != 0 {
		t.Errorf("out-of-range select = %v", got)
	}
	// Invalid attribute selects nothing.
	if got := m.SelectLeaves(nil, []particles.AttrFilter{{Attr: 9, Min: 0, Max: 1}}); len(got) != 0 {
		t.Errorf("bad attr select = %v", got)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := fixtureMeta(t)
	got, err := Decode(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Schema.Equal(m.Schema) {
		t.Error("schema mismatch")
	}
	if !slices.Equal(got.GlobalRanges, m.GlobalRanges) {
		t.Errorf("global ranges %v, want %v", got.GlobalRanges, m.GlobalRanges)
	}
	if got.Domain != m.Domain {
		t.Error("domain mismatch")
	}
	if len(got.Leaves) != len(m.Leaves) {
		t.Fatal("structure mismatch")
	}
	for i := range m.Leaves {
		a, b := m.Leaves[i], got.Leaves[i]
		if a.FileName != b.FileName || a.Count != b.Count || a.Bounds != b.Bounds || !slices.Equal(a.Bitmaps, b.Bitmaps) {
			t.Fatalf("leaf %d mismatch: %+v vs %+v", i, a, b)
		}
	}
	// Queries agree after the round trip.
	box := geom.NewBox(geom.V3(0, 0, 0), geom.V3(1.5, 1, 1))
	if !slices.Equal(got.SelectLeaves(&box, nil), m.SelectLeaves(&box, nil)) {
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
	buf := fixtureMeta(t).Encode()
	if _, err := Decode(buf[:len(buf)-10]); err == nil {
		t.Error("truncated buffer should error")
	}
}

func TestDecodeCorruptionRobustness(t *testing.T) {
	valid := fixtureMeta(t).Encode()
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
		got.SelectLeaves(&box, []particles.AttrFilter{{Attr: 0, Min: 0, Max: 100}})
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
