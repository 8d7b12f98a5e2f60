// On-disk format of a BAT file (paper Figure 2). All integers are little
// endian.
//
// A readable file is version 5: leaf records from which the shallow tree is
// derived, packed node tables, unpadded treelets, codec sections for
// positions and attributes (codec.go). It is the one layout every build
// writes, and the one the reader accepts. A build with no error bound
// declared is lossless: positions and attributes read back bit for bit.
//
// Every other version is refused at open ("unsupported version 4"). That
// includes every layout earlier writers left behind: version 1 (no checksum
// footer), version 2 (node records, page-aligned treelets, raw columns),
// version 3 (these treelets behind a constant flags word and stored copies
// of facts version 4 derives: the particle count, the treelet offsets, each
// treelet's counts, the footer's counts, codec classes and raw payload
// total) and version 4 (the shallow tree stored as inner-node records with
// interned bitmaps, treelet bounds as six f64, node-table columns behind
// base u32 frames).
//
//	Header:
//	  magic "BAT1", version u32
//	  domain bounds: 6 x f64
//	  subprefixBits, lodPerNode, maxLeafSize, maxTreeletDepth u32
//	  numAttrs u32
//	  per attribute: nameLen u16, name bytes, type u8,
//	                 local range min f64, max f64
//	  numTreelets u32
//	  leaf records: byteLen u32, numNodes u32, numPoints u32,
//	                code u64: the treelet's Morton subprefix,
//	                cells: lo x, y, z then hi x, y, z u32, f32Keys,
//	                bitmapID u16 per attribute: the treelet root's
//	  bitmap dictionary: count u32, entries u32 each
//	The shallow tree is not stored: the reader derives it from the leaf
//	records at open (deriveShallow), whose codes must rise strictly and stay
//	below 2^subprefixBits, subprefixBits in [1, 63]. A treelet's cell on an
//	axis is the smallest and the largest f32Key among its coordinates there
//	that are numbers (lo > hi for none): the root cell of its position
//	frames. maxTreeletDepth is at most 64, and no treelet node lies deeper.
//	The file's particle count is the sum of the leaves' numPoints, and a
//	leaf's numPoints is at most its byteLen: the writer stores a treelet's
//	positions raw where its sections would come to fewer bytes than it has
//	particles, so each treelet's column allocations are bounded by bytes the
//	file holds.
//	Treelets, back to back from the end of the header to the footer, in leaf
//	order: a treelet starts where the one before it ends (the paper aligns
//	them to 4 KB pages to map them, §III-C3; this reader decodes them
//	instead), and its node and point counts are its leaf record's:
//	  nodes: 3 + numAttrs columns over the nodes in node (breadth-first)
//	    order, each one run — base uvarint, width u8, ceil(n*width/8) bytes
//	    of (value - base), LSB-first (nodetable.go):
//	         axis      numNodes values 0..3 (3 = leaf)
//	         count     numNodes values
//	         split     one value per inner node: f32Key of the split plane,
//	                   which is a particle coordinate
//	         bitmapID  numNodes values, one column per attribute
//	    left, right and start are not stored: the k-th inner node's children
//	    are nodes 2k+1 and 2k+2, and a node's particles start where the
//	    node before it ends
//	  particle data: X, Y, Z, then one array per attribute, each a framed
//	                 codec section: codec u8, encLen u32, then encLen
//	                 payload bytes (see codec.go for the codec streams).
//	                 A position section holds codecSortedCellFOR or
//	                 codecRaw. Neither stores a frame: sorted-cell-for
//	                 blocks are framed by the nodes' k-d cells, derived from
//	                 the treelet cells in the leaf record above — the
//	                 extremes of the keys the writer packs — and the split
//	                 planes of the node table, and its
//	                 Elias–Fano blocks (each node's particles are sorted
//	                 along its widest cell axis) are sized by the same cells
//	                 and the node counts. The retired position codecs 3
//	                 (inline frames) and 5 (cell-for: the same cells over
//	                 node ranges in build order) are refused at the first
//	                 treelet load that meets one ("unknown position codec id
//	                 5"), and a reader that predates codecSortedCellFOR
//	                 refuses a file holding it the same way ("unknown
//	                 position codec id 8").
//	                 An attribute section holds codecQuantFOR for a
//	                 lossy attribute — one frame, or the nodes' frames as
//	                 two packed columns ahead of the blocks —, and for a
//	                 lossless one the smallest of codecIntFOR (integral
//	                 columns only: the same stream at grid step 1),
//	                 codecKeyFOR (the values' order-preserving integer keys
//	                 in the same two frame modes), codecSignKeyFOR (the
//	                 same stream over the values' bit patterns rotated left
//	                 by one, sign bit lowest: for columns that cross zero)
//	                 and codecRaw; a lossy one no grid can hold takes the
//	                 smallest of the last three. The section's own codec
//	                 byte, and a quant-for, int-for, key-for or
//	                 sign-key-for section's mode byte, say which stream it
//	                 holds. The retired delta codec 2 is refused at the
//	                 first treelet load that meets one ("unknown attribute
//	                 codec id 2"), and a reader that predates codecIntFOR
//	                 refuses a file holding it the same way ("… id 9")
//	Checksum footer, after the last treelet; its length is footerLen of the
//	header's treelet and attribute counts, so the reader reads it at
//	size − footerLen:
//	  headerCRC u32        CRC32C of the header bytes
//	  treeletCRC u32 each  CRC32C of each treelet's byteLen bytes
//	  per attribute: absolute error bound f64 (0: lossless)
//	  lodErrorScale f64
//	  encPayloadBytes u64  attribute payload after encoding (the payload
//	                       before encoding is the particle count times the
//	                       attribute sizes)
//	  footerCRC u32        CRC32C of the footer bytes above
//	  magic "BATF"
//
// The treelets tile the bytes between header and footer, so every byte of a
// readable file is under a checksum.
package bat

import (
	"fmt"

	"libbat/internal/binfmt"
	"libbat/internal/bitmap"
	"libbat/internal/checksum"
	"libbat/internal/geom"
	"libbat/internal/par"
	"libbat/internal/particles"
)

const (
	magic = "BAT1"
	// version is the one format every build writes and the reader reads.
	version = 5
	// footerMagic terminates the checksum footer.
	footerMagic = "BATF"
)

// sectionFrameLen is the framing ahead of a codec section's payload: codec
// u8, encLen u32.
const sectionFrameLen = 1 + 4

// leafRecordBytes is the per-leaf record size excluding IDs: byteLen, node
// and point counts, the Morton subprefix code, and the treelet cells.
const leafRecordBytes = 4 + 4 + 4 + 8 + 24

// footerLen is the checksum footer's size for nT treelets and nA attributes:
// header CRC, one CRC per treelet, one error bound per attribute, LOD error
// scale, encoded payload total, footer CRC and magic.
func footerLen(nT, nA int) int { return 4 + 4*nT + 8*nA + 8 + 8 + 4 + 4 }

// compact assembles the file image: header + leaf records + dictionary up
// front, then the treelets back to back, which nothing maps. Bitmaps are
// interned into the dictionary serially (ID assignment is first-use order, a
// format invariant); the node tables, payload copies and section CRCs then run
// across the worker pool, largest treelet first. Every section's extent is
// precomputed, so workers write disjoint byte ranges and the image is
// identical for any worker count.
func compact(set *particles.Set, domain geom.Box, cfg BuildConfig,
	ranges []bitmap.Range, treelets []*treelet, workers int) (*Built, error) {

	nA := set.Schema.NumAttrs()
	dict := bitmap.NewDictionary()
	interned := 0
	// Intern every node bitmap first so the dictionary size is known before
	// the header is laid out. treeletIDs[ti] holds treelet ti's IDs node by
	// node, nA each: one array per treelet, not one per node.
	treeletIDs := make([][]bitmap.ID, len(treelets))
	rootIDs := make([][]bitmap.ID, len(treelets))
	for ti, t := range treelets {
		ids := make([]bitmap.ID, len(t.bitmaps))
		for i, b := range t.bitmaps {
			id, err := dict.Intern(b)
			if err != nil {
				return nil, err
			}
			ids[i] = id
		}
		interned += len(ids)
		treeletIDs[ti] = ids
		if len(t.nodes) > 0 {
			rootIDs[ti] = ids[:nA]
		} else {
			rootIDs[ti] = make([]bitmap.ID, nA)
		}
	}

	// Compute the header size to locate the first treelet.
	headerSize := 4 + 4 + 48 + 16 + 4
	for _, a := range set.Schema.Attrs {
		headerSize += 2 + len(a.Name) + 1 + 16
	}
	headerSize += 4
	headerSize += len(treelets) * (leafRecordBytes + 2*nA)
	headerSize += 4 + 4*dict.Len()

	// Treelet byte sizes and offsets. Each node table is sized here, as soon
	// as the IDs exist, and packed by the treelet's fill task below.
	offsets := make([]int, len(treelets))
	sizes := make([]int, len(treelets))
	off := headerSize
	var rawPayload, encPayload, posEncPayload int64
	maxDepth := 0
	numNodes := 0
	var colScratch []uint64 // packNodeTable's, for the size pass
	for ti, t := range treelets {
		if t.depth > maxDepth {
			maxDepth = t.depth
		}
		numNodes += len(t.nodes)
		offsets[ti] = off
		if cap(colScratch) < len(t.nodes) {
			colScratch = make([]uint64, len(t.nodes))
		}
		tableLen := packNodeTable(nil, t, treeletIDs[ti], nA, colScratch)
		for _, pe := range t.posEnc {
			posEncPayload += int64(pe.encodedLen(len(t.order), particles.Float32))
		}
		for a, desc := range set.Schema.Attrs {
			rawPayload += int64(len(t.order) * desc.Type.Size())
			encPayload += int64(t.attrEnc[a].encodedLen(len(t.order), desc.Type))
		}
		sizes[ti] = tableLen + t.sectionsLen(set.Schema)
		off += sizes[ti]
	}

	// The whole image, with room for the footer.
	footLen := footerLen(len(treelets), nA)
	buf := make([]byte, off+footLen)

	// Fill the treelet sections: node table, payload gather, and the section
	// CRC for the footer. Each task touches only
	// buf[offsets[ti]:offsets[ti]+sizes[ti]].
	crcs := make([]uint32, len(treelets))
	fillErrs := make([]error, len(treelets))
	fillTreelet := func(_, ti int) {
		t := treelets[ti]
		start := offsets[ti]
		w := binfmt.Writer{Buf: buf[start : start : start+sizes[ti]]}
		// The packer's eight-byte stores run up to packSlack past the table's
		// end: onto the three position section frames, which are this
		// treelet's and written next. The window ends with the treelet, so a
		// store can never reach another task's bytes.
		n := packNodeTable(w.Buf[len(w.Buf):cap(w.Buf)], t, treeletIDs[ti], nA, make([]uint64, len(t.nodes)))
		w.Buf = w.Buf[:len(w.Buf)+n]
		// Every column is a section: codec id, encoded length, payload. Raw
		// sections stream the column bytes directly; encoded sections copy the
		// stream the treelet worker built.
		for ax, col := range [3][]float32{set.X, set.Y, set.Z} {
			enc := t.posEnc[ax]
			w.U8(enc.codec)
			w.U32(uint32(enc.encodedLen(len(t.order), particles.Float32)))
			if enc.codec != codecRaw {
				w.Bytes(enc.data)
				continue
			}
			for _, p := range t.order {
				w.F32(col[p])
			}
		}
		for a, desc := range set.Schema.Attrs {
			enc, vals := t.attrEnc[a], set.Attrs[a]
			w.U8(enc.codec)
			w.U32(uint32(enc.encodedLen(len(t.order), desc.Type)))
			switch {
			case enc.codec != codecRaw:
				w.Bytes(enc.data)
			case desc.Type == particles.Float32:
				for _, p := range t.order {
					w.F32(float32(vals[p]))
				}
			default:
				for _, p := range t.order {
					w.F64(vals[p])
				}
			}
		}
		if len(w.Buf) != sizes[ti] {
			fillErrs[ti] = fmt.Errorf("bat: treelet %d layout error: wrote %d bytes, computed %d",
				ti, len(w.Buf), sizes[ti])
			return
		}
		crcs[ti] = checksum.CRC32C(w.Buf)
	}
	sched := largestFirst(len(treelets), func(ti int) int { return sizes[ti] })
	par.Each(sched, workers, fillTreelet)
	for _, err := range fillErrs {
		if err != nil {
			return nil, err
		}
	}

	// Header.
	w := binfmt.Writer{Buf: buf[:0:headerSize]}
	w.Bytes([]byte(magic))
	w.U32(version)
	w.Box(domain)
	w.U32(uint32(cfg.SubprefixBits))
	w.U32(uint32(cfg.LODPerNode))
	w.U32(uint32(cfg.MaxLeafSize))
	w.U32(uint32(maxDepth))
	w.U32(uint32(nA))
	for a, desc := range set.Schema.Attrs {
		w.Str(desc.Name)
		w.U8(uint8(desc.Type))
		w.Range(ranges[a])
	}
	w.U32(uint32(len(treelets)))
	for ti, t := range treelets {
		w.U32(uint32(sizes[ti]))
		w.U32(uint32(len(t.nodes)))
		w.U32(uint32(len(t.order)))
		w.U64(uint64(t.prefix))
		for _, c := range t.cells {
			w.U32(c.lo)
		}
		for _, c := range t.cells {
			w.U32(c.hi)
		}
		w.IDs(rootIDs[ti])
	}
	w.U32(uint32(dict.Len()))
	w.Bitmaps(dict.Entries())
	if len(w.Buf) != headerSize {
		return nil, fmt.Errorf("bat: header layout error: wrote %d bytes, computed %d", len(w.Buf), headerSize)
	}

	// Checksum footer: header CRC plus one CRC per treelet section, then
	// a CRC over the footer itself so its own corruption is detected.
	w = binfmt.Writer{Buf: buf[off:off:len(buf)]}
	w.U32(checksum.CRC32C(buf[:headerSize]))
	for ti := range treelets {
		w.U32(crcs[ti])
	}
	// The per-attribute error bounds (validated against every section at
	// decode time), the LOD error scale, and the encoded payload total so
	// readers can report the whole-file ratio without scanning sections.
	for _, b := range cfg.AttrBounds(nA) {
		w.F64(b)
	}
	w.F64(cfg.EffectiveLODScale())
	w.U64(uint64(encPayload))
	w.U32(checksum.CRC32C(w.Buf))
	w.Bytes([]byte(footerMagic))
	if len(w.Buf) != footLen {
		return nil, fmt.Errorf("bat: footer layout error: wrote %d bytes, computed %d", len(w.Buf), footLen)
	}

	stats := BuildStats{
		NumParticles:    set.Len(),
		NumTreelets:     len(treelets),
		NumTreeletNodes: numNodes,
		MaxTreeletDepth: maxDepth,
		DictEntries:     dict.Len(),
		BitmapsInterned: interned,
		FileBytes:       int64(len(buf)),
		RawDataBytes:    int64(set.Len()) * int64(set.Schema.BytesPerParticle()),

		AttrPayloadRawBytes: rawPayload,
		AttrPayloadEncBytes: encPayload,
		PosPayloadEncBytes:  posEncPayload,
	}
	return &Built{Buf: buf, Stats: stats}, nil
}
