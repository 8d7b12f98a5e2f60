package bat

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"libbat/internal/bitmap"
	"libbat/internal/geom"
	"libbat/internal/morton"
	"libbat/internal/particles"
)

// packedTreelets builds one treelet per group of set's Morton order, cut at
// cuts, and compacts them into an image whose treelet codes are the group
// indices (the reader derives a shallow tree over them, but needs none to
// load a treelet). It returns the builder's treelets next to the opened file.
func packedTreelets(t *testing.T, set *particles.Set, domain geom.Box, cfg BuildConfig, cuts []int) ([]*treelet, *File) {
	t.Helper()
	ranges := attrRanges(set, 1)
	_, order := sortByMorton(set, domain, 1)
	var groups []group
	from := 0
	for i, to := range append(cuts, set.Len()) {
		groups = append(groups, group{code: morton.Code(i), from: from, to: to})
		from = to
	}
	treelets, err := buildTreelets(set, order, groups, cfg, ranges, 2)
	if err != nil {
		t.Fatal(err)
	}
	built, err := compact(set, domain, cfg, ranges, treelets, 2)
	if err != nil {
		t.Fatal(err)
	}
	f, err := FromBuffer(built.Buf)
	if err != nil {
		t.Fatal(err)
	}
	return treelets, f
}

// TestPackedNodeTableMatchesBuilder is the packed node table's property: the
// reader's nodes are the builder's — the fields the table stores (axis,
// split, count) and the ones it leaves to the breadth-first order (left,
// right, start) — and so is its bitmap column, resolved from the stored IDs,
// over random sets cut into random treelets, among them an empty treelet,
// treelets of one node and a leaf that holds thousands of coincident
// particles because no plane splits them.
func TestPackedNodeTableMatchesBuilder(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	shapes := map[string]int{}
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(3000)
		set := particles.NewSet(particles.NewSchema("a", "b", "c"), n)
		clump := geom.V3(r.Float64(), r.Float64(), r.Float64())
		for i := 0; i < n; i++ {
			p := geom.V3(r.NormFloat64(), r.NormFloat64(), r.NormFloat64()).Scale(0.2)
			if trial%4 == 0 && i%3 != 0 {
				p = clump // a third of the trials: two particles in three coincide
			}
			set.Append(p, []float64{r.Float64(), p.X + r.Float64()*1e-3, float64(i % 5)})
		}
		domain := geom.NewBox(geom.V3(-2, -2, -2), geom.V3(2, 2, 2))
		cfg := DefaultBuildConfig()
		cfg.MaxLeafSize = 1 + r.Intn(64)
		cfg.LODPerNode = 1 + r.Intn(min(cfg.MaxLeafSize, 8)) // stratifiedSampleInPlace needs a remainder to split
		cfg.Compress = true
		cfg.AttrErrorBounds = []float64{1e-3, 1e-3, 1e-3}
		// Random cuts, one of them doubled: the group between is empty.
		cuts := []int{r.Intn(n + 1), r.Intn(n + 1), r.Intn(n + 1)}
		cuts[2] = cuts[1]
		sort.Ints(cuts)
		treelets, f := packedTreelets(t, set, domain, cfg, cuts)
		for ti, bt := range treelets {
			pt, _, err := f.loadTreelet(context.Background(), ti)
			if err != nil {
				t.Fatalf("trial %d treelet %d: %v", trial, ti, err)
			}
			if len(pt.nodes) != len(bt.nodes) || len(pt.x) != len(bt.order) {
				t.Fatalf("trial %d treelet %d: read %d nodes and %d points, built %d and %d",
					trial, ti, len(pt.nodes), len(pt.x), len(bt.nodes), len(bt.order))
			}
			switch {
			case len(bt.nodes) == 0:
				shapes["empty"]++
			case len(bt.nodes) == 1 && len(bt.order) > cfg.MaxLeafSize:
				shapes["coincident leaf"]++
			case len(bt.nodes) == 1:
				shapes["one node"]++
			default:
				shapes["tree"]++
			}
			if !slices.Equal(pt.nodes, bt.nodes) {
				t.Fatalf("trial %d treelet %d: read nodes %+v, built %+v", trial, ti, pt.nodes, bt.nodes)
			}
			if !slices.Equal(pt.bitmaps, bt.bitmaps) {
				t.Fatalf("trial %d treelet %d: read bitmaps %#x, built %#x", trial, ti, pt.bitmaps, bt.bitmaps)
			}
		}
	}
	for _, shape := range []string{"empty", "one node", "coincident leaf", "tree"} {
		if shapes[shape] == 0 {
			t.Errorf("no %s treelet among the trials: %v", shape, shapes)
		}
	}
}

// idDict holds bitmap i at every ID i, so a table unpacked under it keeps
// its IDs as its bitmaps and refuses none.
var idDict = func() *bitmap.Dictionary {
	entries := make([]bitmap.Bitmap, bitmap.MaxDictSize)
	for i := range entries {
		entries[i] = bitmap.Bitmap(i)
	}
	return bitmap.FromEntries(entries)
}()

// nodeTableOf packs a table of the given axes and counts (splits at 0.5, 1.5,
// ... and IDs 7, 8, ... for one attribute) the way compact does.
func nodeTableOf(t *testing.T, axes []uint8, counts []uint32) (table []byte, nPoints uint32) {
	t.Helper()
	tr := &treelet{}
	var ids []bitmap.ID
	for i, ax := range axes {
		n := node{axis: ax, count: counts[i], start: nPoints}
		if ax != leafAxis {
			n.split = float32(i) + 0.5
		}
		tr.nodes = append(tr.nodes, n)
		ids = append(ids, bitmap.ID(7+i))
		nPoints += counts[i]
	}
	vals := make([]uint64, len(axes))
	size := packNodeTable(nil, tr, ids, 1, vals)
	table = make([]byte, size+packSlack)
	if n := packNodeTable(table, tr, ids, 1, vals); n != size {
		t.Fatalf("packed %d bytes, sized %d", n, size)
	}
	return table[:size], nPoints
}

// reframed is table with the frame of the run at off — base uvarint, width
// u8 — replaced by base and width; the block behind it stays as it was.
func reframed(table []byte, off int, base uint64, width uint8) []byte {
	_, k := binary.Uvarint(table[off:])
	out := binary.AppendUvarint(slices.Clone(table[:off]), base)
	out = append(out, width)
	return append(out, table[off+k+1:]...)
}

// TestPackedNodeTableCorruption drives unpackNodeTable with tables the packer
// cannot produce: each is an error, none a panic, and none allocates by a
// count the bytes do not back.
func TestPackedNodeTableCorruption(t *testing.T) {
	axes := []uint8{uint8(geom.X), uint8(geom.Y), leafAxis, leafAxis, leafAxis}
	counts := []uint32{4, 4, 100, 90, 110}
	good, nPoints := nodeTableOf(t, axes, counts)
	var info NodeTableInfo
	nodes, bms, n, err := unpackNodeTable(good, 5, nPoints, 1, 2, idDict, &info)
	if err != nil || n != len(good) {
		t.Fatalf("the packer's own table: read %d of %d bytes, error %v", n, len(good), err)
	}
	if err := checkUnpackedNodes(nodes, bms, nPoints, 1, 2); err != nil {
		t.Fatal(err)
	}
	if nodes[0].left != 1 || nodes[0].right != 2 || nodes[1].left != 3 || nodes[1].right != 4 ||
		nodes[0].split != 0.5 || nodes[1].split != 1.5 || nodes[4].start != 198 || bms[3] != 10 {
		t.Fatalf("unpacked %+v, bitmaps %v", nodes, bms)
	}
	// Run offsets: every column is base uvarint, width u8, then its block.
	// The axis values need 2 bits, the counts 7, the IDs 3, and the axis,
	// count and ID bases fit one byte each.
	var at [4]int
	for c := 1; c < len(at); c++ {
		at[c] = at[c-1] + info.Columns[c-1].Bytes
	}
	axisRun, countRun, splitRun, idRun := at[0], at[1], at[2], at[3]
	if w := [...]uint8{info.Columns[0].Width, info.Columns[1].Width, info.Columns[3].Width}; w != [3]uint8{2, 7, 3} ||
		good[axisRun] != 0 || good[countRun] != 4 || good[idRun] != 7 {
		t.Fatalf("column widths %v, bases %d/%d/%d; the offsets below are off", w, good[axisRun], good[countRun], good[idRun])
	}
	axisBlock := axisRun + 2
	unpack := func(table []byte, nNodes, nPoints uint32) error {
		_, _, _, err := unpackNodeTable(table, nNodes, nPoints, 1, 2, idDict, nil)
		return err
	}
	mutated := func(mutate func(tb []byte)) []byte {
		tb := slices.Clone(good)
		mutate(tb)
		return tb
	}
	overflow := append(bytes.Repeat([]byte{0xff}, binary.MaxVarintLen64-1), 0x02) // 2^64 and more
	for _, tc := range []struct {
		name    string
		table   []byte
		nNodes  uint32
		nPoints uint32
		want    string
	}{
		{"one node too many", good, 6, nPoints, ""},
		{"one node too few", good, 4, nPoints, "no breadth-first tree"},
		{"an inner node turned leaf", mutated(func(tb []byte) { tb[axisBlock] |= 3 << 2 }), 5, nPoints, "2 x inner + 1"},
		{"counts add up short", good, 5, nPoints + 1, "add up to"},
		{"counts add up long", good, 5, nPoints - 1, "remain"},
		{"count base past the points", reframed(good, countRun, uint64(nPoints), 7), 5, nPoints, "remain"},
		{"axis width 3", reframed(good, axisRun, 0, 3), 5, nPoints, "exceeds 2"},
		{"axis value 5", reframed(good, axisRun, 2, 2), 5, nPoints, "exceeds 3"},
		{"axis base 4", reframed(good, axisRun, 4, 2), 5, nPoints, "frame base 0x4 overflows 0x3"},
		{"count width 33", reframed(good, countRun, 4, 33), 5, nPoints, "exceeds 32"},
		{"split width 33", reframed(good, splitRun, 0, 33), 5, nPoints, "exceeds 32"},
		{"split key past the key range", reframed(good, splitRun, math.MaxUint32, info.Columns[2].Width), 5, nPoints, "exceeds 4294967295"},
		{"split base past 32 bits", reframed(good, splitRun, 1<<32, 0), 5, nPoints, "overflows 0xffffffff"},
		{"ID width 17", reframed(good, idRun, 7, 17), 5, nPoints, "exceeds 16"},
		{"ID past 16 bits", reframed(good, idRun, math.MaxUint16, 3), 5, nPoints, "exceeds 65535"},
		{"ID base past 16 bits", reframed(good, idRun, 1<<16, 0), 5, nPoints, "overflows 0xffff"},
		{"base uvarint past 64 bits", append(slices.Clone(good[:countRun]), overflow...), 5, nPoints, "frame base overflows 64 bits"},
		{"cut inside the last block", good[:len(good)-1], 5, nPoints, "truncated"},
		{"cut inside a frame", good[:idRun+1], 5, nPoints, "truncated at frame"},
		{"cut to nothing", nil, 5, nPoints, "truncated"},
		{"root is a leaf", mutated(func(tb []byte) { tb[axisBlock] |= 3 }), 5, nPoints, "no breadth-first tree"},
		{"all leaves", reframed(good, axisRun, 3, 0), 5, nPoints, ""},
		{"all inner", reframed(good, axisRun, 0, 0), 5, nPoints, "no breadth-first tree"},
		{"node count past the bytes", good, 8*uint32(len(good)) + 1, nPoints, "exceeds what a table"},
		{"node count past int32", good, math.MaxUint32, nPoints, "exceeds what a table"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := unpack(tc.table, tc.nNodes, tc.nPoints)
			if err == nil {
				t.Fatal("a malformed table unpacked")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
	// Nodes 3 and 4 are at depth 2.
	if _, _, _, err := unpackNodeTable(good, 5, nPoints, 1, 1, idDict, nil); err == nil || !strings.Contains(err.Error(), "node 3 is at depth 2, deeper than the header's 1") {
		t.Fatalf("a table deeper than its limit: error %v", err)
	}

	// Inside a file the same errors fail the treelet load, checksums fixed up:
	// the axis run is base 0 (one byte), then its width.
	buf := compressedSample(t)
	expectLoadError(t, mutateTreelet(t, buf, 0, func(tre []byte) { tre[1] = 3 }), "exceeds 2")
	expectLoadError(t, mutateTreelet(t, buf, 0, func(tre []byte) { tre[2] |= 3 }), "no breadth-first tree")
	// An ID the dictionary does not hold is rejected as the table is read,
	// named by its treelet and node: the first value of an ID column whose
	// frame reaches past the dictionary, set to the frame's largest offset.
	f, err := FromBuffer(buf)
	if err != nil {
		t.Fatal(err)
	}
	for ti := range f.leaves {
		lay, err := f.TreeletLayout(context.Background(), ti)
		if err != nil {
			t.Fatal(err)
		}
		tre := buf[f.leaves[ti].offset:]
		off := 0
		for c, col := range lay.NodeTable.Columns {
			base, k := binary.Uvarint(tre[off:])
			if c >= nodeColIDs && base+1<<col.Width-1 >= uint64(f.dict.Len()) {
				block := off + k + 1
				mut := mutateTreelet(t, buf, ti, func(tre []byte) {
					for b := 0; b < int(col.Width); b++ {
						tre[block+b>>3] |= 1 << (b & 7)
					}
				})
				g, err := FromBuffer(mut)
				if err != nil {
					t.Fatal(err)
				}
				want := fmt.Sprintf("bat: treelet %d node 0: bitmap ID %d outside dictionary of %d", ti, base+1<<col.Width-1, f.dict.Len())
				if _, _, err := g.loadTreelet(context.Background(), ti); err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("treelet %d: load error %v, want %q", ti, err, want)
				}
				return
			}
			off += col.Bytes
		}
	}
	t.Fatal("no ID column of the sample reaches past the dictionary; pick different sample data")
}

// TestPackedNodeTableEmpty: a treelet without nodes packs to its column
// frames, and only a table of no nodes and no points reads them back.
func TestPackedNodeTableEmpty(t *testing.T) {
	table, _ := nodeTableOf(t, nil, nil)
	if len(table) != (nodeColIDs+1)*2 {
		t.Fatalf("an empty table is %d bytes, want %d frames of 2", len(table), nodeColIDs+1)
	}
	if nodes, _, n, err := unpackNodeTable(table, 0, 0, 1, 0, idDict, nil); err != nil || n != len(table) || len(nodes) != 0 {
		t.Fatalf("unpacked %d nodes from %d of %d bytes, error %v", len(nodes), n, len(table), err)
	}
	if _, _, _, err := unpackNodeTable(table, 0, 1, 1, 0, idDict, nil); err == nil {
		t.Fatal("no nodes hold a point")
	}
}
