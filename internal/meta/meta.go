// Package meta implements the top-level metadata file written by rank 0 at
// the end of the write pipeline (paper §III-D). It stores the Aggregation
// Tree with references to the leaf (BAT) files, each attribute's global
// value range, and per-node bitmap indices remapped from each aggregator's
// local range into the global range — so a reader can treat the whole
// dataset as a single file, pruning leaves spatially and by attribute
// before touching them. It says nothing about codecs: every leaf file
// declares its own error bounds in its footer, where decoding reads them.
package meta

import (
	"errors"
	"fmt"
	"math"

	"libbat/internal/aggtree"
	"libbat/internal/binfmt"
	"libbat/internal/bitmap"
	"libbat/internal/checksum"
	"libbat/internal/geom"
	"libbat/internal/particles"
)

const magic = "BATM"

// version is the one format Encode writes and Decode reads. Every buffer
// ends in a CRC32C trailer (checksum u32 over every preceding byte, then
// trailer magic) verified before the body is parsed. Version 1, which had no
// trailer, is no longer read: nothing in it can be verified, and one flipped
// bit of the version field turned a version-3 buffer into one. Version 3
// (retiredVersion) appended a copy of the leaf footers' codec declaration —
// per-attribute error bounds and the LOD error scale — after the leaf
// records; the footers hold it, so it is refused by name.
const (
	version        = 2
	retiredVersion = 3
	trailerMagic   = "BMCK"
	trailerLen     = 8
)

// ErrChecksum marks a metadata buffer whose CRC32C does not match its
// trailer — on-disk corruption rather than a malformed layout.
var ErrChecksum = errors.New("meta: checksum mismatch")

// LeafReport is what an aggregator sends to rank 0 after writing its leaf
// file: the file name, the particles written, and each attribute's local
// value range and root bitmap (in the local frame).
type LeafReport struct {
	Leaf        int
	FileName    string
	Count       int64
	Bounds      geom.Box
	LocalRanges []bitmap.Range
	RootBitmaps []bitmap.Bitmap
}

// LeafMeta is one Aggregation Tree leaf in the metadata file.
type LeafMeta struct {
	FileName string
	Bounds   geom.Box
	Count    int64
	// LocalRanges are the leaf file's per-attribute bitmap reference
	// ranges (needed to build per-file query masks).
	LocalRanges []bitmap.Range
	// Bitmaps are the leaf's root bitmaps remapped to the global range.
	Bitmaps []bitmap.Bitmap
}

// Node is an Aggregation Tree inner node with merged global-frame bitmaps.
type Node struct {
	Axis        geom.Axis
	Pos         float64
	Bounds      geom.Box
	Left, Right int32 // >=0 inner node, <0 encodes ^leafIndex
	Bitmaps     []bitmap.Bitmap
}

// Meta is the parsed top-level metadata.
type Meta struct {
	Schema       particles.Schema
	Domain       geom.Box
	GlobalRanges []bitmap.Range
	Nodes        []Node
	Leaves       []LeafMeta
}

// Build assembles the metadata from the aggregation tree (nil for flat
// groupings such as the AUG baseline) and the aggregators' leaf reports,
// which must cover every leaf exactly once. Global attribute ranges are
// the union of the local ranges; bitmaps are remapped into the global
// frame and inner-node bitmaps merged bottom-up (§III-D).
func Build(tree *aggtree.Tree, leaves []aggtree.Leaf, schema particles.Schema, reports []LeafReport) (*Meta, error) {
	nA := schema.NumAttrs()
	for _, a := range schema.Attrs {
		if len(a.Name) > binfmt.MaxStrLen {
			return nil, fmt.Errorf("meta: attribute name of %d bytes exceeds the format's %d", len(a.Name), binfmt.MaxStrLen)
		}
	}
	m := &Meta{
		Schema:       schema,
		GlobalRanges: make([]bitmap.Range, nA),
		Leaves:       make([]LeafMeta, len(leaves)),
	}
	for a := range m.GlobalRanges {
		m.GlobalRanges[a] = bitmap.EmptyRange()
	}
	seen := make([]bool, len(leaves))
	for _, r := range reports {
		if r.Leaf < 0 || r.Leaf >= len(leaves) {
			return nil, fmt.Errorf("meta: report for unknown leaf %d", r.Leaf)
		}
		if seen[r.Leaf] {
			return nil, fmt.Errorf("meta: duplicate report for leaf %d", r.Leaf)
		}
		if len(r.FileName) > binfmt.MaxStrLen {
			return nil, fmt.Errorf("meta: leaf %d file name of %d bytes exceeds the format's %d", r.Leaf, len(r.FileName), binfmt.MaxStrLen)
		}
		if len(r.LocalRanges) != nA || len(r.RootBitmaps) != nA {
			return nil, fmt.Errorf("meta: leaf %d report has %d/%d attrs, want %d",
				r.Leaf, len(r.LocalRanges), len(r.RootBitmaps), nA)
		}
		seen[r.Leaf] = true
		for a := 0; a < nA; a++ {
			if !r.LocalRanges[a].IsEmpty() {
				m.GlobalRanges[a] = m.GlobalRanges[a].Union(r.LocalRanges[a])
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("meta: missing report for leaf %d", i)
		}
	}
	// Second pass: remap each leaf's bitmaps into the global frame.
	for _, r := range reports {
		lm := &m.Leaves[r.Leaf]
		lm.FileName = r.FileName
		lm.Bounds = r.Bounds
		lm.Count = r.Count
		lm.LocalRanges = append([]bitmap.Range(nil), r.LocalRanges...)
		lm.Bitmaps = make([]bitmap.Bitmap, nA)
		for a := 0; a < nA; a++ {
			lm.Bitmaps[a] = r.RootBitmaps[a].Remap(r.LocalRanges[a], m.GlobalRanges[a])
		}
	}
	if tree != nil {
		m.Domain = tree.Domain
		m.Nodes = make([]Node, len(tree.Nodes))
		// Flattened DFS preorder puts children after parents, so a
		// reverse sweep merges bitmaps bottom-up.
		childBitmaps := func(ref int32) []bitmap.Bitmap {
			if li, ok := aggtree.IsLeafRef(ref); ok {
				return m.Leaves[li].Bitmaps
			}
			return m.Nodes[ref].Bitmaps
		}
		for i := len(tree.Nodes) - 1; i >= 0; i-- {
			tn := tree.Nodes[i]
			n := Node{Axis: tn.Axis, Pos: tn.Pos, Bounds: tn.Bounds, Left: tn.Left, Right: tn.Right}
			n.Bitmaps = make([]bitmap.Bitmap, nA)
			lb, rb := childBitmaps(tn.Left), childBitmaps(tn.Right)
			for a := 0; a < nA; a++ {
				n.Bitmaps[a] = lb[a] | rb[a]
			}
			m.Nodes[i] = n
		}
	} else {
		d := geom.EmptyBox()
		for _, l := range m.Leaves {
			d = d.Union(l.Bounds)
		}
		m.Domain = d
	}
	return m, nil
}

// TotalCount returns the dataset's particle count.
func (m *Meta) TotalCount() int64 {
	var n int64
	for _, l := range m.Leaves {
		n += l.Count
	}
	return n
}

// AttrFilter is an attribute interval in global value space.
type AttrFilter struct {
	Attr     int
	Min, Max float64
}

// SelectLeaves returns the indices of leaves that may contain particles in
// bounds (nil box = everywhere) passing all filters, pruning with the
// aggregation tree's hierarchy and bitmaps where available.
func (m *Meta) SelectLeaves(bounds *geom.Box, filters []AttrFilter) []int {
	masks := make([]bitmap.Bitmap, len(filters))
	for i, f := range filters {
		if f.Attr < 0 || f.Attr >= m.Schema.NumAttrs() {
			return nil
		}
		masks[i] = bitmap.OfQuery(f.Min, f.Max, m.GlobalRanges[f.Attr])
		if masks[i] == 0 {
			return nil
		}
	}
	pass := func(bms []bitmap.Bitmap, b geom.Box) bool {
		if bounds != nil && !bounds.Overlaps(b) {
			return false
		}
		for i, f := range filters {
			if !bms[f.Attr].Overlaps(masks[i]) {
				return false
			}
		}
		return true
	}
	var out []int
	if len(m.Nodes) == 0 {
		for i, l := range m.Leaves {
			if pass(l.Bitmaps, l.Bounds) {
				out = append(out, i)
			}
		}
		return out
	}
	var rec func(ref int32, depth int)
	rec = func(ref int32, depth int) {
		if li, ok := aggtree.IsLeafRef(ref); ok {
			if pass(m.Leaves[li].Bitmaps, m.Leaves[li].Bounds) {
				out = append(out, li)
			}
			return
		}
		// Valid trees are at most as deep as their node count; deeper
		// recursion means cyclic links in a corrupt file.
		if depth > len(m.Nodes) {
			return
		}
		n := &m.Nodes[ref]
		if !pass(n.Bitmaps, n.Bounds) {
			return
		}
		rec(n.Left, depth+1)
		rec(n.Right, depth+1)
	}
	rec(0, 0)
	return out
}

// validRef reports whether a child reference resolves to a node or leaf.
func validRef(ref int32, nNodes, nLeaves int) bool {
	if ref >= 0 {
		return int(ref) < nNodes
	}
	return int(^ref) < nLeaves
}

// Encode serializes the metadata.
func (m *Meta) Encode() []byte {
	w := &binfmt.Writer{}
	w.Bytes([]byte(magic))
	w.U32(version)
	nA := m.Schema.NumAttrs()
	w.U32(uint32(nA))
	for a, d := range m.Schema.Attrs {
		w.Str(d.Name)
		w.U8(uint8(d.Type))
		w.Range(m.GlobalRanges[a])
	}
	w.Box(m.Domain)
	w.U32(uint32(len(m.Nodes)))
	w.U32(uint32(len(m.Leaves)))
	for _, n := range m.Nodes {
		w.U8(uint8(n.Axis))
		w.F64(n.Pos)
		w.Box(n.Bounds)
		w.I32(n.Left)
		w.I32(n.Right)
		w.Bitmaps(n.Bitmaps)
	}
	for _, l := range m.Leaves {
		w.Str(l.FileName)
		w.Box(l.Bounds)
		w.U64(uint64(l.Count))
		for a := 0; a < nA; a++ {
			w.Range(l.LocalRanges[a])
		}
		w.Bitmaps(l.Bitmaps)
	}
	// Checksum trailer over everything above.
	w.U32(checksum.CRC32C(w.Buf))
	w.Bytes([]byte(trailerMagic))
	return w.Buf
}

// Decode parses metadata produced by Encode.
func Decode(buf []byte) (*Meta, error) {
	r := binfmt.NewReader(buf)
	mg := r.Bytes(4)
	if r.Err() != nil || string(mg) != magic {
		return nil, fmt.Errorf("meta: bad magic")
	}
	ver := r.U32()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("meta: %w", err)
	}
	if ver == retiredVersion {
		return nil, fmt.Errorf("meta: retired version %d: a copy of the codec declaration the leaf footers hold", ver)
	}
	if ver != version {
		return nil, fmt.Errorf("meta: unsupported version %d (supported: %d)", ver, version)
	}
	// Verify the whole-buffer CRC before trusting any field beyond the
	// version: a single flipped bit anywhere is detected here.
	if len(buf) < trailerLen+8 {
		return nil, fmt.Errorf("meta: buffer too small for checksum trailer")
	}
	body, trailer := buf[:len(buf)-trailerLen], binfmt.NewReader(buf[len(buf)-trailerLen:])
	want, tmg := trailer.U32(), trailer.Bytes(4)
	if string(tmg) != trailerMagic {
		return nil, fmt.Errorf("%w: bad trailer magic %q", ErrChecksum, tmg)
	}
	if got := checksum.CRC32C(body); got != want {
		return nil, fmt.Errorf("%w: CRC %08x != %08x", ErrChecksum, got, want)
	}
	nA := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("meta: %w", err)
	}
	if nA > 4096 {
		return nil, fmt.Errorf("meta: implausible attribute count %d", nA)
	}
	m := &Meta{
		Schema:       particles.Schema{Attrs: make([]particles.AttrDesc, nA)},
		GlobalRanges: make([]bitmap.Range, nA),
	}
	for a := 0; a < nA; a++ {
		m.Schema.Attrs[a] = particles.AttrDesc{Name: r.Str(), Type: particles.AttrType(r.U8())}
		m.GlobalRanges[a] = r.Range()
	}
	m.Domain = r.Box()
	nNodes, nLeaves := r.U32(), r.U32()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("meta: %w", err)
	}
	// Each record occupies at least its fixed-size fields, so counts are
	// bounded by the buffer length.
	if int(nNodes)*(61+4*nA) > len(buf) || int(nLeaves)*(58+20*nA) > len(buf) {
		return nil, fmt.Errorf("meta: node counts %d/%d exceed buffer size %d", nNodes, nLeaves, len(buf))
	}
	m.Nodes = make([]Node, nNodes)
	// The Aggregation Tree must be a tree: at most one parent per node and per
	// leaf. Range checks alone admit diamond-shaped DAGs, which SelectLeaves
	// walks once per path — exponentially often — returning a shared leaf
	// once per path.
	nodeSeen, leafSeen := make([]bool, nNodes), make([]bool, nLeaves)
	for i := range m.Nodes {
		n := &m.Nodes[i]
		n.Axis, n.Pos, n.Bounds = geom.Axis(r.U8()), r.F64(), r.Box()
		n.Left, n.Right = r.I32(), r.I32()
		if !validRef(n.Left, int(nNodes), int(nLeaves)) || !validRef(n.Right, int(nNodes), int(nLeaves)) {
			return nil, fmt.Errorf("meta: node %d has invalid children", i)
		}
		for _, ref := range [2]int32{n.Left, n.Right} {
			seen, kind, j := nodeSeen, "node", int(ref)
			if li, ok := aggtree.IsLeafRef(ref); ok {
				seen, kind, j = leafSeen, "leaf", li
			}
			if seen[j] {
				return nil, fmt.Errorf("meta: %s %d has multiple parents", kind, j)
			}
			seen[j] = true
		}
		n.Bitmaps = r.Bitmaps(nA)
	}
	m.Leaves = make([]LeafMeta, nLeaves)
	// total is the particle count so far; TotalCount sums the same int64s, so
	// no prefix of them may overflow.
	var total int64
	for i := range m.Leaves {
		l := &m.Leaves[i]
		l.FileName, l.Bounds = r.Str(), r.Box()
		cnt := r.U64()
		if cnt > uint64(math.MaxInt64-total) {
			return nil, fmt.Errorf("meta: leaf %d particle count %d takes the dataset total past int64", i, cnt)
		}
		l.Count = int64(cnt)
		total += l.Count
		l.LocalRanges = make([]bitmap.Range, nA)
		for a := range l.LocalRanges {
			l.LocalRanges[a] = r.Range()
		}
		l.Bitmaps = r.Bitmaps(nA)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("meta: %w", err)
	}
	if extra := r.Remaining() - trailerLen; extra != 0 {
		return nil, fmt.Errorf("meta: the leaf records end %d bytes before the trailer", extra)
	}
	return m, nil
}
