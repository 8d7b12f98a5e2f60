// Package meta implements the top-level metadata file written by rank 0 at
// the end of the write pipeline (paper §III-D). It is a table of the
// Aggregation Tree's leaves — each leaf file's name, bounds, particle count
// and root bitmaps remapped from the aggregator's local attribute range into
// the global one — and each attribute's global value range, so a reader can
// treat the whole dataset as a single file, pruning leaves spatially and by
// attribute before touching them. The tree's inner nodes are not stored:
// each one's bounds and bitmaps are the union of its leaves', so a leaf
// passes a walk down the tree exactly when it passes its own test. It says
// nothing about codecs either: every leaf file declares its own error bounds
// in its footer, where decoding reads them.
package meta

import (
	"errors"
	"fmt"
	"math"

	"libbat/internal/binfmt"
	"libbat/internal/bitmap"
	"libbat/internal/checksum"
	"libbat/internal/geom"
	"libbat/internal/particles"
)

const magic = "BATM"

// version is the one format Encode writes and Decode reads. Every buffer
// ends in a CRC32C trailer (checksum u32 over every preceding byte, then
// trailer magic) verified before the body is parsed. Older versions are
// refused by name: version 1 had no trailer, so nothing in it could be
// verified; version 2 (treeVersion) also stored the Aggregation Tree's inner
// nodes, the domain and each leaf's local attribute ranges, all of which the
// leaf records and the leaf files already hold; version 3 (codecVersion)
// was version 2 plus a copy of the leaf footers' codec declaration —
// per-attribute error bounds and the LOD error scale.
const (
	version      = 4
	treeVersion  = 2
	codecVersion = 3
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
	// Bitmaps are the leaf's root bitmaps remapped to the global range.
	Bitmaps []bitmap.Bitmap
}

// Meta is the parsed top-level metadata.
type Meta struct {
	Schema       particles.Schema
	Domain       geom.Box // the union of the leaf bounds, derived, not stored
	GlobalRanges []bitmap.Range
	Leaves       []LeafMeta
}

// Build assembles the metadata of nLeaves leaves from the aggregators' leaf
// reports, which must cover every leaf exactly once. Global attribute ranges
// are the union of the local ranges, and each leaf's bitmaps are remapped
// into the global frame (§III-D).
func Build(schema particles.Schema, nLeaves int, reports []LeafReport) (*Meta, error) {
	nA := schema.NumAttrs()
	for _, a := range schema.Attrs {
		if len(a.Name) > binfmt.MaxStrLen {
			return nil, fmt.Errorf("meta: attribute name of %d bytes exceeds the format's %d", len(a.Name), binfmt.MaxStrLen)
		}
	}
	m := &Meta{
		Schema:       schema,
		GlobalRanges: make([]bitmap.Range, nA),
		Leaves:       make([]LeafMeta, nLeaves),
	}
	for a := range m.GlobalRanges {
		m.GlobalRanges[a] = bitmap.EmptyRange()
	}
	seen := make([]bool, nLeaves)
	for _, r := range reports {
		if r.Leaf < 0 || r.Leaf >= nLeaves {
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
		lm.Bitmaps = make([]bitmap.Bitmap, nA)
		for a := 0; a < nA; a++ {
			lm.Bitmaps[a] = r.RootBitmaps[a].Remap(r.LocalRanges[a], m.GlobalRanges[a])
		}
	}
	m.deriveDomain()
	return m, nil
}

// deriveDomain sets Domain to the union of the leaf bounds.
func (m *Meta) deriveDomain() {
	m.Domain = geom.EmptyBox()
	for _, l := range m.Leaves {
		m.Domain = m.Domain.Union(l.Bounds)
	}
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
// bounds (nil box = everywhere) passing all filters, in leaf order: a leaf
// is selected when its bounds overlap the box and, for every filter, its
// global-frame bitmap overlaps the filter's.
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
	var out []int
leaves:
	for i, l := range m.Leaves {
		if bounds != nil && !bounds.Overlaps(l.Bounds) {
			continue
		}
		for j, f := range filters {
			if !l.Bitmaps[f.Attr].Overlaps(masks[j]) {
				continue leaves
			}
		}
		out = append(out, i)
	}
	return out
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
	w.U32(uint32(len(m.Leaves)))
	for _, l := range m.Leaves {
		w.Str(l.FileName)
		w.Box(l.Bounds)
		w.U64(uint64(l.Count))
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
	switch ver {
	case version:
	case treeVersion:
		return nil, fmt.Errorf("meta: retired version %d: it stores the Aggregation Tree's inner nodes, which the leaf records imply; re-write the dataset with checkout 6a2422b", ver)
	case codecVersion:
		return nil, fmt.Errorf("meta: retired version %d: a copy of the codec declaration the leaf footers hold", ver)
	default:
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
	nLeaves := r.U32()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("meta: %w", err)
	}
	// Each record occupies at least its fixed-size fields, so the count is
	// bounded by the buffer length.
	if int(nLeaves)*(58+4*nA) > len(buf) {
		return nil, fmt.Errorf("meta: leaf count %d exceeds buffer size %d", nLeaves, len(buf))
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
		l.Bitmaps = r.Bitmaps(nA)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("meta: %w", err)
	}
	if extra := r.Remaining() - trailerLen; extra != 0 {
		return nil, fmt.Errorf("meta: the leaf records end %d bytes before the trailer", extra)
	}
	m.deriveDomain()
	return m, nil
}
