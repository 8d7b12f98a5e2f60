// Package meta implements the top-level metadata file written by rank 0 at
// the end of the write pipeline (paper §III-D). It stores the Aggregation
// Tree with references to the leaf (BAT) files, each attribute's global
// value range, and per-node bitmap indices remapped from each aggregator's
// local range into the global range — so a reader can treat the whole
// dataset as a single file, pruning leaves spatially and by attribute
// before touching them.
package meta

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"libbat/internal/aggtree"
	"libbat/internal/bitmap"
	"libbat/internal/checksum"
	"libbat/internal/geom"
	"libbat/internal/particles"
)

const magic = "BATM"

// version is the newest readable format and minVersion the oldest. Every
// readable buffer ends in a CRC32C trailer (checksum u32 over every preceding
// byte, then trailer magic) verified before the body is parsed; version 3
// appended the dataset's compression declaration (per-attribute error bounds
// + LOD error scale) after the leaf records. Version 3 is written only when
// Compression is set, so uncompressed datasets keep producing byte-identical
// version-2 metadata. Version 1, which had no trailer, is no longer read:
// nothing in it can be verified, and one flipped bit of the version field
// turned a version-3 buffer into one.
const (
	version      = 3
	minVersion   = 2
	trailerMagic = "BMCK"
	trailerLen   = 8
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

// CompressionMeta declares how the dataset's leaf files were compressed:
// the absolute error bound per attribute (0 = lossless) and the LOD error
// scale, mirroring the BAT v3 footer so tools can report the configuration
// without opening a leaf file.
type CompressionMeta struct {
	ErrorBounds []float64
	LODScale    float64
}

// Meta is the parsed top-level metadata.
type Meta struct {
	Schema       particles.Schema
	Domain       geom.Box
	GlobalRanges []bitmap.Range
	Nodes        []Node
	Leaves       []LeafMeta
	// Compression is the dataset's codec declaration; nil when the leaf
	// files are uncompressed (version <= 2 metadata).
	Compression *CompressionMeta
}

// Build assembles the metadata from the aggregation tree (nil for flat
// groupings such as the AUG baseline) and the aggregators' leaf reports,
// which must cover every leaf exactly once. Global attribute ranges are
// the union of the local ranges; bitmaps are remapped into the global
// frame and inner-node bitmaps merged bottom-up (§III-D).
func Build(tree *aggtree.Tree, leaves []aggtree.Leaf, schema particles.Schema, reports []LeafReport) (*Meta, error) {
	nA := schema.NumAttrs()
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

// --- binary encoding ---

type writer struct{ buf []byte }

func (w *writer) u8(v uint8)    { w.buf = append(w.buf, v) }
func (w *writer) u16(v uint16)  { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *writer) u32(v uint32)  { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64)  { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) i32(v int32)   { w.u32(uint32(v)) }
func (w *writer) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *writer) str(s string) {
	w.u16(uint16(len(s)))
	w.buf = append(w.buf, s...)
}
func (w *writer) box(b geom.Box) {
	for _, v := range []float64{b.Lower.X, b.Lower.Y, b.Lower.Z, b.Upper.X, b.Upper.Y, b.Upper.Z} {
		w.f64(v)
	}
}
func (w *writer) rng(r bitmap.Range) {
	w.f64(r.Min)
	w.f64(r.Max)
}
func (w *writer) bitmaps(bms []bitmap.Bitmap) {
	for _, b := range bms {
		w.u32(uint32(b))
	}
}

// Encode serializes the metadata. Version 3 is emitted only when the
// compression declaration is present; uncompressed datasets encode to
// byte-identical version-2 buffers.
func (m *Meta) Encode() []byte {
	ver := uint32(2)
	if m.Compression != nil {
		ver = 3
	}
	w := &writer{}
	w.buf = append(w.buf, magic...)
	w.u32(ver)
	nA := m.Schema.NumAttrs()
	w.u32(uint32(nA))
	for a, d := range m.Schema.Attrs {
		w.str(d.Name)
		w.u8(uint8(d.Type))
		w.rng(m.GlobalRanges[a])
	}
	w.box(m.Domain)
	w.u32(uint32(len(m.Nodes)))
	w.u32(uint32(len(m.Leaves)))
	for _, n := range m.Nodes {
		w.u8(uint8(n.Axis))
		w.f64(n.Pos)
		w.box(n.Bounds)
		w.i32(n.Left)
		w.i32(n.Right)
		w.bitmaps(n.Bitmaps)
	}
	for _, l := range m.Leaves {
		w.str(l.FileName)
		w.box(l.Bounds)
		w.u64(uint64(l.Count))
		for a := 0; a < nA; a++ {
			w.rng(l.LocalRanges[a])
		}
		w.bitmaps(l.Bitmaps)
	}
	if m.Compression != nil {
		for a := 0; a < nA; a++ {
			b := 0.0
			if a < len(m.Compression.ErrorBounds) {
				b = m.Compression.ErrorBounds[a]
			}
			w.f64(b)
		}
		scale := m.Compression.LODScale
		if scale < 1 {
			scale = 1
		}
		w.f64(scale)
	}
	// Checksum trailer over everything above.
	w.u32(checksum.CRC32C(w.buf))
	w.buf = append(w.buf, trailerMagic...)
	return w.buf
}

type reader struct {
	buf []byte
	off int
}

func (r *reader) need(n int) ([]byte, error) {
	if r.off+n > len(r.buf) {
		return nil, fmt.Errorf("meta: truncated at offset %d", r.off)
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *reader) u8() (uint8, error) {
	b, err := r.need(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *reader) u16() (uint16, error) {
	b, err := r.need(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (r *reader) u32() (uint32, error) {
	b, err := r.need(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *reader) u64() (uint64, error) {
	b, err := r.need(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (r *reader) f64() (float64, error) {
	v, err := r.u64()
	return math.Float64frombits(v), err
}

func (r *reader) str() (string, error) {
	n, err := r.u16()
	if err != nil {
		return "", err
	}
	b, err := r.need(int(n))
	return string(b), err
}

func (r *reader) box() (geom.Box, error) {
	var v [6]float64
	for i := range v {
		var err error
		if v[i], err = r.f64(); err != nil {
			return geom.Box{}, err
		}
	}
	return geom.NewBox(geom.V3(v[0], v[1], v[2]), geom.V3(v[3], v[4], v[5])), nil
}

func (r *reader) rng() (bitmap.Range, error) {
	min, err := r.f64()
	if err != nil {
		return bitmap.Range{}, err
	}
	max, err := r.f64()
	return bitmap.Range{Min: min, Max: max}, err
}

func (r *reader) bitmaps(n int) ([]bitmap.Bitmap, error) {
	out := make([]bitmap.Bitmap, n)
	for i := range out {
		v, err := r.u32()
		if err != nil {
			return nil, err
		}
		out[i] = bitmap.Bitmap(v)
	}
	return out, nil
}

// Decode parses metadata produced by Encode.
func Decode(buf []byte) (*Meta, error) {
	r := &reader{buf: buf}
	mg, err := r.need(4)
	if err != nil || string(mg) != magic {
		return nil, fmt.Errorf("meta: bad magic")
	}
	ver, err := r.u32()
	if err != nil {
		return nil, err
	}
	if ver < minVersion || ver > version {
		return nil, fmt.Errorf("meta: unsupported version %d (supported: %d-%d)", ver, minVersion, version)
	}
	// Verify the whole-buffer CRC before trusting any field beyond the
	// version: a single flipped bit anywhere is detected here.
	if len(buf) < trailerLen+8 {
		return nil, fmt.Errorf("meta: buffer too small for checksum trailer")
	}
	if string(buf[len(buf)-4:]) != trailerMagic {
		return nil, fmt.Errorf("%w: bad trailer magic %q", ErrChecksum, buf[len(buf)-4:])
	}
	want := binary.LittleEndian.Uint32(buf[len(buf)-trailerLen:])
	if got := checksum.CRC32C(buf[:len(buf)-trailerLen]); got != want {
		return nil, fmt.Errorf("%w: CRC %08x != %08x", ErrChecksum, got, want)
	}
	nA32, err := r.u32()
	if err != nil {
		return nil, err
	}
	nA := int(nA32)
	if nA > 4096 {
		return nil, fmt.Errorf("meta: implausible attribute count %d", nA)
	}
	m := &Meta{
		Schema:       particles.Schema{Attrs: make([]particles.AttrDesc, nA)},
		GlobalRanges: make([]bitmap.Range, nA),
	}
	for a := 0; a < nA; a++ {
		name, err := r.str()
		if err != nil {
			return nil, err
		}
		typ, err := r.u8()
		if err != nil {
			return nil, err
		}
		m.Schema.Attrs[a] = particles.AttrDesc{Name: name, Type: particles.AttrType(typ)}
		if m.GlobalRanges[a], err = r.rng(); err != nil {
			return nil, err
		}
	}
	if m.Domain, err = r.box(); err != nil {
		return nil, err
	}
	nNodes, err := r.u32()
	if err != nil {
		return nil, err
	}
	nLeaves, err := r.u32()
	if err != nil {
		return nil, err
	}
	// Each record occupies at least its fixed-size fields, so counts are
	// bounded by the buffer length.
	if int(nNodes)*(61+4*nA) > len(buf) || int(nLeaves)*(58+20*nA) > len(buf) {
		return nil, fmt.Errorf("meta: node counts %d/%d exceed buffer size %d", nNodes, nLeaves, len(buf))
	}
	m.Nodes = make([]Node, nNodes)
	for i := range m.Nodes {
		n := &m.Nodes[i]
		ax, err := r.u8()
		if err != nil {
			return nil, err
		}
		n.Axis = geom.Axis(ax)
		if n.Pos, err = r.f64(); err != nil {
			return nil, err
		}
		if n.Bounds, err = r.box(); err != nil {
			return nil, err
		}
		l32, err := r.u32()
		if err != nil {
			return nil, err
		}
		n.Left = int32(l32)
		r32, err := r.u32()
		if err != nil {
			return nil, err
		}
		n.Right = int32(r32)
		if !validRef(n.Left, int(nNodes), int(nLeaves)) || !validRef(n.Right, int(nNodes), int(nLeaves)) {
			return nil, fmt.Errorf("meta: node %d has invalid children", i)
		}
		if n.Bitmaps, err = r.bitmaps(nA); err != nil {
			return nil, err
		}
	}
	m.Leaves = make([]LeafMeta, nLeaves)
	for i := range m.Leaves {
		l := &m.Leaves[i]
		if l.FileName, err = r.str(); err != nil {
			return nil, err
		}
		if l.Bounds, err = r.box(); err != nil {
			return nil, err
		}
		cnt, err := r.u64()
		if err != nil {
			return nil, err
		}
		if cnt > math.MaxInt64 {
			return nil, fmt.Errorf("meta: leaf %d particle count %d overflows int64", i, cnt)
		}
		l.Count = int64(cnt)
		l.LocalRanges = make([]bitmap.Range, nA)
		for a := 0; a < nA; a++ {
			if l.LocalRanges[a], err = r.rng(); err != nil {
				return nil, err
			}
		}
		if l.Bitmaps, err = r.bitmaps(nA); err != nil {
			return nil, err
		}
	}
	if ver >= 3 {
		cm := &CompressionMeta{ErrorBounds: make([]float64, nA)}
		for a := 0; a < nA; a++ {
			if cm.ErrorBounds[a], err = r.f64(); err != nil {
				return nil, err
			}
			if b := cm.ErrorBounds[a]; math.IsNaN(b) || math.IsInf(b, 0) || b < 0 {
				return nil, fmt.Errorf("meta: attribute %d declares invalid error bound %v", a, b)
			}
		}
		if cm.LODScale, err = r.f64(); err != nil {
			return nil, err
		}
		if math.IsNaN(cm.LODScale) || math.IsInf(cm.LODScale, 0) || cm.LODScale < 1 {
			return nil, fmt.Errorf("meta: invalid LOD error scale %v", cm.LODScale)
		}
		m.Compression = cm
	}
	return m, nil
}
