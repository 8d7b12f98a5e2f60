// Reading, traversal, and progressive multiresolution queries over a
// compacted BAT (paper §V). The reader parses the header (leaf records +
// bitmap dictionary, and derives the shallow tree from the leaf records)
// eagerly and loads treelets lazily through an
// io.ReaderAt, relying on the OS page cache for repeated access the way the
// paper's memory-mapped implementation does.
package bat

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"

	"libbat/internal/binfmt"
	"libbat/internal/bitmap"
	"libbat/internal/checksum"
	"libbat/internal/geom"
	"libbat/internal/morton"
	"libbat/internal/particles"
	"libbat/internal/pfs"
)

// leafRef is a parsed leaf record: the location of its treelet and the
// treelet's cells (the root cell of its position frames). offset is not
// stored: the treelets lie back to back from the end of the header.
type leafRef struct {
	offset    int64
	byteLen   uint32
	numNodes  uint32
	numPoints uint32
	cells     [3]keyCell
}

// shallowNode is an inner node of a file's shallow k-d tree. The tree is not
// stored: the reader derives it from the treelets' Morton subprefix codes
// and root bitmaps (deriveShallow).
type shallowNode struct {
	axis        geom.Axis
	pos         float64
	left, right int32 // >= 0: inner node; < 0: ^treelet index
	bitmaps     []bitmap.Bitmap
}

// parsedTreelet is a treelet loaded into memory: its nodes, their bitmaps
// resolved through the dictionary, nA per node, and its decoded columns.
type parsedTreelet struct {
	nodes   []node
	bitmaps []bitmap.Bitmap
	x, y, z []float32
	attrs   [][]float64
}

// File is an open BAT file (or in-memory buffer) ready for queries.
type File struct {
	src  io.ReaderAt
	size int64

	// NumParticles is the sum of the treelets' point counts.
	NumParticles    int64
	Domain          geom.Box
	SubprefixBits   int
	LODPerNode      int
	MaxLeafSize     int
	MaxTreeletDepth int
	Schema          particles.Schema
	// Ranges holds each attribute's aggregator-local value range, the
	// reference frame of every bitmap in the file.
	Ranges []bitmap.Range

	// shallow is the shallow tree derived from the leaf records, roots
	// each leaf record's root bitmaps, resolved through the dictionary.
	shallow []shallowNode
	leaves  []leafRef
	roots   [][]bitmap.Bitmap
	dict    *bitmap.Dictionary

	// Checksum footer state: the header length and CRC, and one CRC per
	// treelet, verified when the treelet is loaded.
	headerSize  int
	headerCRC   uint32
	treeletCRCs []uint32

	// Codec state from the footer: the declared per-attribute absolute
	// error bound, the LOD error scale, and the file-wide encoded payload
	// byte total.
	attrBounds []float64
	lodScale   float64
	encPayload uint64

	closer io.Closer

	// cache holds parsed treelets (singleflight, LRU-bounded) under this
	// File's leaf index: the dataset's shared Cache, or a private unbounded
	// one for a File decoded on its own. Parsed treelets are immutable, so
	// File is safe for concurrent queries; Close must not race in-flight
	// queries (the caller — e.g. batserve's open/close RWMutex — sequences
	// lifecycle vs. use).
	cache *Cache
	leaf  int
}

// DecodeCtx parses a BAT file image accessible through src. The header
// parse aborts when ctx ends, and the context threads into footer reads.
// Treelet loads are governed by the context of the query that triggers
// them, not by ctx.
func DecodeCtx(ctx context.Context, src io.ReaderAt, size int64) (*File, error) {
	return DecodeLeaf(ctx, src, size, NewCache(), 0)
}

// DecodeLeaf is DecodeCtx for leaf file number leaf of a dataset: the File
// keeps its parsed treelets in cache, which the dataset's other leaf files
// share, and reports its accesses to the cache's recorder under leaf.
func DecodeLeaf(ctx context.Context, src io.ReaderAt, size int64, cache *Cache, leaf int) (*File, error) {
	r := binfmt.NewReaderAt(ctx, src, size)
	mg := r.Bytes(4)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("bat: reading magic: %w", err)
	}
	if string(mg) != magic {
		return nil, fmt.Errorf("bat: bad magic %q", mg)
	}
	ver := r.U32()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("bat: %w", err)
	}
	if ver != version {
		return nil, fmt.Errorf("bat: unsupported version %d (this reader reads version %d only)", ver, version)
	}
	f := &File{src: src, size: size, cache: cache, leaf: leaf}
	f.Domain = r.Box()
	f.SubprefixBits, f.LODPerNode = int(r.U32()), int(r.U32())
	f.MaxLeafSize, f.MaxTreeletDepth = int(r.U32()), int(r.U32())
	nA := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("bat: %w", err)
	}
	if nA > 4096 {
		return nil, fmt.Errorf("bat: implausible attribute count %d", nA)
	}
	f.Schema = particles.Schema{Attrs: make([]particles.AttrDesc, nA)}
	f.Ranges = make([]bitmap.Range, nA)
	for a := 0; a < nA; a++ {
		f.Schema.Attrs[a] = particles.AttrDesc{Name: r.Str(), Type: particles.AttrType(r.U8())}
		f.Ranges[a] = r.Range()
	}
	nLeaves := r.U32()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("bat: %w", err)
	}
	// Sanity: every record occupies at least leafRecordBytes, so the count
	// cannot exceed the file size.
	if int64(nLeaves)*int64(leafRecordBytes+2*nA) > size {
		return nil, fmt.Errorf("bat: treelet count %d exceeds file size %d", nLeaves, size)
	}
	f.leaves = make([]leafRef, nLeaves)
	codes := make([]morton.Code, nLeaves)
	idBacking := make([]bitmap.ID, 0, int(nLeaves)*nA)
	ids := make([][]bitmap.ID, nLeaves)
	for i := range f.leaves {
		l := &f.leaves[i]
		l.byteLen, l.numNodes, l.numPoints = r.U32(), r.U32(), r.U32()
		codes[i] = morton.Code(r.U64())
		for ax := range l.cells {
			l.cells[ax].lo = r.U32()
		}
		for ax := range l.cells {
			l.cells[ax].hi = r.U32()
		}
		// The writer never packs a treelet into fewer bytes than it has
		// points, so a larger count is corrupt; the bound keeps the
		// treelet's column allocations within bytes the file holds.
		if l.numPoints > l.byteLen {
			return nil, fmt.Errorf("bat: treelet %d claims %d points in %d bytes", i, l.numPoints, l.byteLen)
		}
		f.NumParticles += int64(l.numPoints)
		ids[i] = r.IDs(&idBacking, nA)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("bat: %w", err)
	}
	dictLen := r.U32()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("bat: %w", err)
	}
	if dictLen > bitmap.MaxDictSize {
		return nil, fmt.Errorf("bat: dictionary size %d exceeds 16-bit ID space", dictLen)
	}
	f.dict = bitmap.FromEntries(r.Bitmaps(int(dictLen)))
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("bat: %w", err)
	}
	// Every stored bitmap ID must resolve in the dictionary.
	f.roots = make([][]bitmap.Bitmap, nLeaves)
	rootBacking := make([]bitmap.Bitmap, int(nLeaves)*nA)
	for i, leafIDs := range ids {
		f.roots[i] = rootBacking[i*nA : (i+1)*nA : (i+1)*nA]
		if err := f.resolve(f.roots[i], leafIDs); err != nil {
			return nil, fmt.Errorf("bat: leaf %d: %w", i, err)
		}
	}
	if err := f.loadFooter(ctx, r.Consumed()); err != nil {
		return nil, err
	}
	// The header passed its CRC, so a value out of range below means a
	// writer bug or a crafted file, not a torn write. The treelet depth
	// bounds every traversal. The codes are the shallow tree's leaves: the
	// radix tree over them is a tree only if they rise strictly, and its
	// cells lie in the domain only below 2^SubprefixBits.
	if f.MaxTreeletDepth > maxSaneDepth {
		return nil, fmt.Errorf("bat: treelet depth %d exceeds %d", f.MaxTreeletDepth, maxSaneDepth)
	}
	if f.SubprefixBits < 1 || f.SubprefixBits > morton.TotalBits {
		return nil, fmt.Errorf("bat: subprefix bits %d out of range [1,%d]", f.SubprefixBits, morton.TotalBits)
	}
	for i, c := range codes {
		if c>>f.SubprefixBits != 0 {
			return nil, fmt.Errorf("bat: treelet %d code %#x exceeds %d subprefix bits", i, c, f.SubprefixBits)
		}
		if i > 0 && c <= codes[i-1] {
			return nil, fmt.Errorf("bat: treelet %d code %#x does not rise above treelet %d's %#x", i, c, i-1, codes[i-1])
		}
	}
	f.shallow = deriveShallow(codes, f.roots, f.Domain, f.SubprefixBits)
	// The treelets lie back to back from the end of the header, each where
	// the one before it ends, and their byte lengths must end where the
	// footer starts: no byte of the file is outside a checksum. This comes
	// after the footer so a damaged length reports as the checksum error it
	// is, and the sum stops past the footer so it cannot wrap.
	next, footerStart := int64(f.headerSize), f.size-f.footerLen()
	for i := range f.leaves {
		f.leaves[i].offset = next
		if next += int64(f.leaves[i].byteLen); next > footerStart {
			break
		}
	}
	if next != footerStart {
		return nil, fmt.Errorf("bat: treelets end at byte %d, the checksum footer starts at %d", next, footerStart)
	}
	return f, nil
}

// deriveShallow derives a file's shallow k-d tree (paper §III-C1): the binary
// radix tree over its treelets' subprefix codes — sorted, unique and below
// 2^subprefixBits —, with roots[i] treelet i's root bitmaps. A node over
// codes[lo:hi] splits them at the highest bit on which its first and last
// code differ; its plane is the midplane, on that bit's axis, of the Morton
// cell its codes share, and its bitmaps are the merge of its children's.
// Nodes are numbered in preorder, the root 0; a child that is a single
// treelet i is the reference ^i. The bits a node's codes share grow by one
// at least from parent to child, so the tree is at most subprefixBits deep.
func deriveShallow(codes []morton.Code, roots [][]bitmap.Bitmap, domain geom.Box, subprefixBits int) []shallowNode {
	if len(codes) < 2 {
		return nil
	}
	nA := len(roots[0])
	nodes := make([]shallowNode, 0, len(codes)-1)
	backing := make([]bitmap.Bitmap, (len(codes)-1)*nA)
	var split func(lo, hi int) (int32, []bitmap.Bitmap)
	split = func(lo, hi int) (int32, []bitmap.Bitmap) {
		if hi-lo == 1 {
			return int32(^lo), roots[lo]
		}
		bit := bits.Len64(uint64(codes[lo]^codes[hi-1])) - 1
		mid := lo + sort.Search(hi-lo, func(i int) bool { return codes[lo+i]>>bit&1 == 1 })
		plen := subprefixBits - 1 - bit
		axis := axisOfPrefixBit(plen)
		at := len(nodes)
		nodes = append(nodes, shallowNode{
			axis:    axis,
			pos:     morton.CellBounds(codes[lo]>>(bit+1), plen, domain).Center().Component(axis),
			bitmaps: backing[at*nA : (at+1)*nA : (at+1)*nA],
		})
		left, lb := split(lo, mid)
		right, rb := split(mid, hi)
		n := &nodes[at]
		n.left, n.right = left, right
		for a := range n.bitmaps {
			n.bitmaps[a] = lb[a] | rb[a]
		}
		return int32(at), n.bitmaps
	}
	split(0, len(codes))
	return nodes
}

// axisOfPrefixBit maps a 0-based bit index counted from the top of a Morton
// code to its split axis. The encoding interleaves x at bit 3i, y at 3i+1,
// z at 3i+2, so the topmost bit (index 0 from the top) belongs to z.
func axisOfPrefixBit(i int) geom.Axis {
	switch i % 3 {
	case 0:
		return geom.Z
	case 1:
		return geom.Y
	default:
		return geom.X
	}
}

// ErrChecksum marks data whose CRC32C does not match its checksum —
// on-disk corruption (or a torn write) rather than a malformed layout.
var ErrChecksum = errors.New("bat: checksum mismatch")

// footerLen is the length of the checksum footer of a file of f's treelet
// count and attribute count.
func (f *File) footerLen() int64 {
	return int64(footerLen(len(f.leaves), f.Schema.NumAttrs()))
}

// loadFooter reads and verifies the checksum footer of a file whose header
// is the bytes in head. The footer's length is the one the header's treelet
// and attribute counts give, so it sits at size − footerLen.
func (f *File) loadFooter(ctx context.Context, head []byte) error {
	f.headerSize = len(head)
	fLen := f.footerLen()
	if f.size-fLen < int64(f.headerSize) {
		return fmt.Errorf("bat: file too small for checksum footer")
	}
	foot := make([]byte, fLen)
	if err := pfs.ReadFullAt(ctx, f.src, foot, f.size-fLen); err != nil {
		return fmt.Errorf("bat: reading footer: %w", err)
	}
	fr := binfmt.NewReader(foot)
	body := fr.Bytes(len(foot) - 8)
	crc, mg := fr.U32(), fr.Bytes(4)
	if string(mg) != footerMagic {
		return fmt.Errorf("%w: bad footer magic %q", ErrChecksum, mg)
	}
	if got := checksum.CRC32C(body); got != crc {
		return fmt.Errorf("%w: footer CRC %08x != %08x", ErrChecksum, got, crc)
	}
	r := binfmt.NewReader(body)
	f.headerCRC = r.U32()
	if got := checksum.CRC32C(head); got != f.headerCRC {
		return fmt.Errorf("%w: header CRC %08x != %08x", ErrChecksum, got, f.headerCRC)
	}
	f.treeletCRCs = make([]uint32, len(f.leaves))
	for i := range f.treeletCRCs {
		f.treeletCRCs[i] = r.U32()
	}
	// The values below passed the footer CRC, so an out-of-range one means a
	// writer bug or a crafted file, not a torn write.
	f.attrBounds = make([]float64, f.Schema.NumAttrs())
	for a := range f.attrBounds {
		b := r.F64()
		if math.IsNaN(b) || math.IsInf(b, 0) || b < 0 {
			return fmt.Errorf("bat: footer attribute %d declares invalid error bound %v", a, b)
		}
		f.attrBounds[a] = b
	}
	f.lodScale = r.F64()
	if math.IsNaN(f.lodScale) || math.IsInf(f.lodScale, 0) || f.lodScale < 1 {
		return fmt.Errorf("bat: footer declares invalid LOD error scale %v", f.lodScale)
	}
	f.encPayload = r.U64()
	if err := r.Err(); err != nil {
		return fmt.Errorf("bat: footer: %w", err)
	}
	return nil
}

// Verify re-reads every checksummed section (header and all treelets)
// and checks its CRC32C, without parsing or caching treelet contents.
func (f *File) Verify() error {
	ctx := context.Background()
	head := make([]byte, f.headerSize)
	if err := pfs.ReadFullAt(ctx, f.src, head, 0); err != nil {
		return fmt.Errorf("bat: verify header: %w", err)
	}
	if got := checksum.CRC32C(head); got != f.headerCRC {
		return fmt.Errorf("%w: header CRC %08x != %08x", ErrChecksum, got, f.headerCRC)
	}
	for ti := range f.leaves {
		if _, err := f.readTreelet(ctx, ti); err != nil {
			return err
		}
	}
	return nil
}

// CompressionInfo describes a file's codec configuration and whole-file
// payload accounting, read from the footer.
type CompressionInfo struct {
	// Bounds is the absolute error bound per attribute; 0 means lossless.
	// The bound says nothing about what a section stores: a lossless
	// attribute's sections are int-for, key-for, sign-key-for or raw,
	// whichever is smallest, and a lossy one's are quant-for, or key-for,
	// sign-key-for or raw where no grid can hold them.
	Bounds []float64
	// LODScale multiplies the bound for values referenced by LOD samples.
	LODScale float64
	// RawPayloadBytes / EncPayloadBytes are the attribute payload sizes
	// before and after encoding, summed over every treelet. The raw size is
	// the particle count times the attribute sizes.
	RawPayloadBytes uint64
	EncPayloadBytes uint64
}

// Ratio returns the attribute payload compression ratio (raw / encoded),
// or 0 when the file holds no attribute payload.
func (ci *CompressionInfo) Ratio() float64 {
	if ci.EncPayloadBytes == 0 {
		return 0
	}
	return float64(ci.RawPayloadBytes) / float64(ci.EncPayloadBytes)
}

// Compression returns the file's codec configuration from its footer, which
// every readable file carries: a lossless build declares bound 0 for every
// attribute.
func (f *File) Compression() *CompressionInfo {
	var attrBytes int64
	for _, desc := range f.Schema.Attrs {
		attrBytes += int64(desc.Type.Size())
	}
	return &CompressionInfo{
		Bounds:          append([]float64(nil), f.attrBounds...),
		LODScale:        f.lodScale,
		RawPayloadBytes: uint64(f.NumParticles * attrBytes),
		EncPayloadBytes: f.encPayload,
	}
}

// SectionInfo describes one position or attribute section of one treelet: the
// codec the section actually used (which may be a raw fallback even in a
// compressed file), its raw vs. on-disk encoded size, and how its packed
// blocks are framed.
type SectionInfo struct {
	Attr     string
	Codec    uint8
	RawBytes int
	EncBytes int
	// Mode is a quant-for, int-for, key-for or sign-key-for section's frame
	// mode, "one-frame" or "per-node-cols"; empty for every other codec.
	Mode string
	// FrameBytes is how many of EncBytes hold block frames: the one frame of a
	// one-frame section, the two frame columns of a per-node-cols one. 0 for
	// sorted-cell-for, whose frames are the k-d cells the node table already
	// stores.
	FrameBytes int
	// Widths lists the bit widths of the section's packed blocks in stream
	// order: one per node range (sorted-cell-for, per-node-cols;
	// an Elias–Fano block's is its cell's) or one in all (one-frame). Nil for
	// raw sections.
	Widths []uint8
	// EF is what of a sorted-cell-for section is Elias–Fano blocks.
	EF EFStats
}

// EFStats counts the Elias–Fano blocks of sorted-cell-for position sections:
// their nodes, the particles in them and their bits.
type EFStats struct {
	Nodes, Particles, Bits int
}

// Add adds o to s.
func (s *EFStats) Add(o EFStats) {
	s.Nodes += o.Nodes
	s.Particles += o.Particles
	s.Bits += o.Bits
}

// PositionSections is the number of rows TreeletLayout lists ahead of the
// attribute rows, named by positionNames.
const PositionSections = 3

var positionNames = [PositionSections]string{"x", "y", "z"}

// NodeTableInfo describes how one treelet's node table is stored.
type NodeTableInfo struct {
	Nodes int
	// Bytes is the table's length.
	Bytes int
	// Columns lists the packed table's columns in stream order: axis, count,
	// split, then each attribute's bitmap IDs.
	Columns []NodeColumnInfo
}

// NodeColumnInfo is one column of a packed node table: its bytes, frame
// included, and the bit width of its block.
type NodeColumnInfo struct {
	Name  string
	Bytes int
	Width uint8
}

// TreeletLayout is how one treelet is stored, as parseTreelet reads it: the
// node table, then one row per section — the three position sections first,
// then one per attribute.
type TreeletLayout struct {
	NodeTable NodeTableInfo
	Sections  []SectionInfo
}

// TreeletLayout reads treelet ti and reports how it is stored. Used by
// batinspect.
func (f *File) TreeletLayout(ctx context.Context, ti int) (TreeletLayout, error) {
	if ti < 0 || ti >= len(f.leaves) {
		return TreeletLayout{}, fmt.Errorf("bat: treelet %d out of range (%d treelets)", ti, len(f.leaves))
	}
	lay := TreeletLayout{Sections: make([]SectionInfo, 0, PositionSections+f.Schema.NumAttrs())}
	_, err := f.parseTreelet(ctx, ti, &lay)
	return lay, err
}

// StoredBytes says where a file's bytes are (batinspect -bytes): the header
// with its leaf records and dictionary, the treelets' node tables, position
// sections and attribute sections (their
// framing included), and the checksum footer: the treelets tile the bytes
// between header and footer, so the parts add up to the file's size.
// AttributeFrames is the part of Attributes that is block frames stored
// inside the sections (SectionInfo.FrameBytes); a position section stores
// none. PositionEF is, per position column, what of Positions is Elias–Fano
// blocks.
type StoredBytes struct {
	Header, NodeTables, Positions, Attributes, Footer int64
	AttributeFrames                                   int64
	PositionEF                                        [PositionSections]EFStats
}

// StoredBytes reads every treelet's sections and adds the file up.
func (f *File) StoredBytes(ctx context.Context) (StoredBytes, error) {
	sb := StoredBytes{Header: int64(f.headerSize), Footer: f.footerLen()}
	for ti := range f.leaves {
		lay, err := f.TreeletLayout(ctx, ti)
		if err != nil {
			return sb, err
		}
		sb.NodeTables += int64(lay.NodeTable.Bytes)
		for i, sec := range lay.Sections {
			part := &sb.Attributes
			if i < PositionSections {
				part = &sb.Positions
				sb.PositionEF[i].Add(sec.EF)
			}
			*part += sectionFrameLen + int64(sec.EncBytes)
			sb.AttributeFrames += int64(sec.FrameBytes)
		}
	}
	return sb, nil
}

// resolve looks bitmap IDs up in the dictionary into dst, refusing one the
// dictionary does not hold.
func (f *File) resolve(dst []bitmap.Bitmap, ids []bitmap.ID) error {
	for i, id := range ids {
		if int(id) >= f.dict.Len() {
			return fmt.Errorf("bitmap ID %d outside dictionary of %d", id, f.dict.Len())
		}
		dst[i] = f.dict.Lookup(id)
	}
	return nil
}

// FromBuffer opens an in-memory BAT image (e.g. for in-transit analysis on
// an aggregator before the buffer is written to disk).
func FromBuffer(buf []byte) (*File, error) {
	return DecodeCtx(context.Background(), bytes.NewReader(buf), int64(len(buf)))
}

// Close releases the underlying file, if any. Callers must not race Close
// with in-flight Query calls.
func (f *File) Close() error {
	if f.closer != nil {
		return f.closer.Close()
	}
	return nil
}

// SetCloser attaches a resource to release when the File is closed; used
// by callers that Decode from their own file handles.
func (f *File) SetCloser(c io.Closer) { f.closer = c }

// Size returns the file's on-disk size in bytes.
func (f *File) Size() int64 { return f.size }

// NumTreelets returns the number of treelets (leaf records) in the file.
func (f *File) NumTreelets() int { return len(f.leaves) }

// RootBitmaps returns the file's whole-dataset bitmap per attribute (the
// merge of its treelets' root bitmaps), in the file's local value ranges:
// what the top-level metadata records for the leaf (§III-D). The write path
// takes the same values from Built.RootBitmaps; this is the reader's side of
// that equality (TestBuiltSummaryMatchesFile).
func (f *File) RootBitmaps() []bitmap.Bitmap {
	return mergeRoots(f.roots, f.Schema.NumAttrs())
}

// loadTreelet returns treelet ti, parsing it through the cache, and
// whether this call ran the parse: concurrent callers of a cold treelet
// share one parse, and repeat callers share the immutable in-memory form.
// ctx governs only this caller's wait and (if it wins the singleflight
// race) its load; see Cache.get for the detach semantics.
func (f *File) loadTreelet(ctx context.Context, ti int) (*parsedTreelet, bool, error) {
	return f.cache.get(ctx, cacheKey{f.leaf, ti}, func(ctx context.Context) (*parsedTreelet, error) {
		return f.parseTreelet(ctx, ti, nil)
	})
}

// readTreelet reads treelet ti's bytes from the underlying source and
// checks them against the footer's CRC.
func (f *File) readTreelet(ctx context.Context, ti int) ([]byte, error) {
	buf := make([]byte, f.leaves[ti].byteLen)
	if err := pfs.ReadFullAt(ctx, f.src, buf, f.leaves[ti].offset); err != nil {
		return nil, fmt.Errorf("bat: reading treelet %d: %w", ti, err)
	}
	if got := checksum.CRC32C(buf); got != f.treeletCRCs[ti] {
		return nil, fmt.Errorf("%w: treelet %d CRC %08x != %08x", ErrChecksum, ti, got, f.treeletCRCs[ti])
	}
	return buf, nil
}

// parseTreelet reads and parses treelet ti from the underlying source. lay,
// when non-nil, receives how the treelet is stored (TreeletLayout).
func (f *File) parseTreelet(ctx context.Context, ti int, lay *TreeletLayout) (*parsedTreelet, error) {
	buf, err := f.readTreelet(ctx, ti)
	if err != nil {
		return nil, err
	}
	ref := f.leaves[ti]
	r := binfmt.NewReader(buf)
	np, nA := int(ref.numPoints), f.Schema.NumAttrs()
	var table *NodeTableInfo
	if lay != nil {
		table = &lay.NodeTable
	}
	nodes, bitmaps, n, err := unpackNodeTable(r.Rest(), ref.numNodes, ref.numPoints, nA, f.MaxTreeletDepth, f.dict, table)
	if _, ok := err.(*idError); ok {
		return nil, fmt.Errorf("bat: treelet %d %w", ti, err)
	} else if err != nil {
		return nil, fmt.Errorf("bat: treelet %d: %w", ti, err)
	}
	t := &parsedTreelet{nodes: nodes, bitmaps: bitmaps}
	r.Bytes(n)
	if lay != nil {
		lay.NodeTable.Nodes, lay.NodeTable.Bytes = len(nodes), r.Offset()
		for i := range lay.NodeTable.Columns {
			lay.NodeTable.Columns[i].Name = nodeColumnName(i, f.Schema)
		}
	}
	// section reads the next framed section — codec u8, encLen u32, payload —
	// and, when someone is listing (lay != nil), appends its row to
	// lay.Sections: info is that row for the decoder to fill in, or nil.
	var info *SectionInfo
	section := func(name string, elemBytes int) (uint8, []byte, error) {
		codec, n := r.U8(), int64(r.U32())
		if remain := r.Remaining(); r.Err() == nil && n > remain {
			return 0, nil, fmt.Errorf("bat: treelet %d section %q: truncated codec stream (%d bytes declared, %d remain)",
				ti, name, n, remain)
		}
		b := r.Bytes(int(n))
		if err := r.Err(); err != nil {
			return 0, nil, fmt.Errorf("bat: treelet %d: %w", ti, err)
		}
		if lay != nil {
			lay.Sections = append(lay.Sections, SectionInfo{Attr: name, Codec: codec, RawBytes: np * elemBytes, EncBytes: int(n)})
			info = &lay.Sections[len(lay.Sections)-1]
		}
		return codec, b, nil
	}
	blocks := newNodeBlocks(t.nodes, np)
	kd := blocks.kdCells(ref.cells)
	// Every column is a window of one of two slabs: x, y, z and the attributes.
	xyz := make([]float32, 3*np)
	t.x, t.y, t.z = xyz[:np:np], xyz[np:2*np:2*np], xyz[2*np:]
	for ax, col := range [...][]float32{t.x, t.y, t.z} {
		codec, b, err := section(positionNames[ax], 4)
		if err != nil {
			return nil, err
		}
		if err = decodePosSection(col, codec, b, blocks, kd, geom.Axis(ax), info); err != nil {
			return nil, fmt.Errorf("bat: treelet %d section %q: %w", ti, positionNames[ax], err)
		}
	}
	vals := make([]float64, nA*np)
	t.attrs = make([][]float64, nA)
	for a, desc := range f.Schema.Attrs {
		codec, b, err := section(desc.Name, desc.Type.Size())
		if err != nil {
			return nil, err
		}
		// Decoding runs right here — i.e. inside whichever query worker
		// triggered the load — so decode overlaps other workers' pfs reads,
		// and the cache stores the decoded float64 columns so hits pay
		// nothing.
		t.attrs[a] = vals[a*np : (a+1)*np : (a+1)*np]
		if err = decodeAttrSection(t.attrs[a], codec, b, blocks, desc.Type, f.attrBounds[a], f.lodScale, info); err != nil {
			return nil, fmt.Errorf("bat: treelet %d attribute %q: %w", ti, desc.Name, err)
		}
	}
	return t, nil
}
