// Compression codecs for treelet sections.
//
// A treelet stores each of its X, Y, Z columns and then each attribute
// column as an independent section:
//
//	codec u8, encodedLen u32, payload [encodedLen]byte
//
// so random access stays section-granular — a reader decodes exactly the
// treelets a query touches, nothing else. Every packed column — position keys
// and quantized attribute indices alike — is a run of frame-of-reference
// blocks over the treelet's node particle ranges, written by one pack loop
// (packBits) and read by one block loop (nodeBlocks.unpack over unpackBits).
// buildTreelet makes the nodes and lays their ranges out back to back in
// node order, and the decoder knows them from the node table it parsed just
// before, so no block index is stored; a section's frames are known before
// its first block is read, and the blocks follow one another bit for bit, so
// every block's bit offset is a prefix sum over the node table. That node table is itself a run
// of the same blocks, one per column (nodetable.go). This file holds the
// block packer and the framed streams the attribute codecs share; the
// position codec is in poscodec.go, the attribute codecs in attrcodec.go.
// The codecs a reader decodes:
//
//	codecRaw      (0): the column's values as they are (f64 or f32 per the
//	                  schema type). Always valid; the fallback when no other codec
//	                  shrinks the column.
//	codecQuantFOR (4): error-bounded uniform quantization (the bit-adaptive
//	                  scheme of Ren et al., arXiv:2404.02826). Values are
//	                  snapped to a grid anchored at the section minimum whose
//	                  step is 2·bound in leaf ranges and 2·bound·LODErrorScale
//	                  in inner-node (LOD sample) ranges — progressive previews
//	                  tolerate more error than leaf-level reads. Both steps are
//	                  recomputed from the footer's declaration, so the section
//	                  stores neither:
//	                    vmin f64   grid anchor
//	                    mode u8    0: one frame over the whole treelet
//	                               2: one frame per node range, as columns
//	                    mode 0:    base uvarint, width u8 (0..48), then
//	                               ceil(count*width/8) bytes of (index - base)
//	                    mode 2:    the nodes' bases, then the nodes' widths,
//	                               each column packed like a mode-0 run (base
//	                               uvarint, width u8, offsets); then every
//	                               node's (index - base) at its own width, the
//	                               blocks bit-contiguous, zero bits up to the
//	                               section's last byte
//	                  The encoder sizes modes 0 and 2 and keeps the shorter
//	                  stream: spatially coherent columns shrink under their
//	                  nodes' own frames, noise keeps the one frame and pays no
//	                  per-node columns. A mode-2 frame must keep base +
//	                  2^width - 1 within the stream's value limit (here
//	                  2^48 - 1) or be as wide as the limit (48 bits here),
//	                  whose offsets the decoder checks one by one; a column
//	                  with any other frame keeps the one frame.
//	codecSortedCellFOR (8): lossless, position columns only: the blocks of
//	                  the nodes' k-d cells, Elias–Fano offsets on each node's
//	                  sort axis where those are shorter (poscodec.go).
//	codecKeyFOR   (6): lossless float attributes. Each value — the float32
//	                  codecRaw would store for a Float32 attribute, the
//	                  float64 itself otherwise — is mapped through the
//	                  order-preserving bijection of its bit pattern (f32Key,
//	                  or its float64 twin f64Key), so NaN payloads, ±0,
//	                  denormals and ±Inf round-trip bit for bit, and the keys
//	                  are stored in quant-for's two frame modes with step 1
//	                  and no grid anchor:
//	                    mode u8    0 or 2, as in quant-for
//	                    frames and blocks as quant-for's, the value limit
//	                    2^32 - 1 (Float32) or 2^64 - 1 (Float64): a block
//	                    or a width column entry is 0..32 or 0..64 bits
//	                  Values inside one k-d node share sign, exponent and
//	                  leading mantissa bits, so their keys share high bits.
//	                  A lossless column is stored as the smallest of int-for
//	                  (integral columns only), key-for, sign-key-for and raw,
//	                  int-for on a tie; a lossy one that cannot be quantized
//	                  falls back to key-for or sign-key-for before raw.
//	codecSignKeyFOR (7): lossless float attributes whose values cross zero.
//	                  Exactly key-for's payload, frame modes, value limits
//	                  and checks; only the key differs: the value's bit
//	                  pattern rotated left by one bit (signKey32, signKey64),
//	                  which moves the sign to the lowest bit. It is a
//	                  bijection on every pattern too, and it puts -x next to
//	                  +x, where the order key mirrors them about 2^63 (2^31),
//	                  2b + 1 apart for b the magnitude's bit pattern,
//	                  exponent field included: a zero-mean column's keys
//	                  span the bits its magnitudes differ in plus one
//	                  instead of 63 or 64. The
//	                  encoder sizes both key streams of every lossless float
//	                  column and keeps the shorter, key-for on a tie. Under
//	                  one sign the rotated keys are the order keys' offsets
//	                  doubled, so a node of one sign has its sign-key frame
//	                  from its order-key frame, one bit wider unless it is
//	                  constant, and only the nodes that hold both signs are
//	                  scanned twice. A column of one sign therefore keeps
//	                  key-for unless its frames alone make the sign keys
//	                  shorter (a constant column of positives: its order-key
//	                  base takes ten uvarint bytes, its sign-key base nine).
//	codecIntFOR   (9): lossless integral attributes (particle IDs, type
//	                  tags): quant-for's payload at grid step 1 in every node
//	                  range, whatever the footer declares. Every value, and
//	                  so the anchor, is an integer within ±2^52 and not -0
//	                  (integral), and the span fits the 48-bit grid.
//
// Ids 1, 2, 3 and 5 and frame mode 1 are retired: earlier writers stored flat
// quant attributes (1), integral attributes as zigzag-varint deltas over the
// whole treelet, which no node could be read from alone (2), positions under
// inline per-block frames (3), positions under their k-d cells in the order
// the build left them, with no Elias–Fano block (5, cell-for), and quant-for
// frames inline ahead of each block (mode 1), and a reader refuses a section
// that holds one as an unknown codec or frame mode.
//
// The encoder guarantees |decoded − stored| ≤ bound for every value, where
// "stored" is the value the lossless layout would keep (Float32 attributes
// are first rounded to float32, exactly as codecRaw stores them). The
// guarantee is enforced value-by-value at encode time — after rounding to
// the grid the reconstruction is checked and the grid index nudged by one
// when floating-point rounding pushed it over — so no combination of
// magnitudes and bounds can break it; sections where even that fails (e.g.
// bound far below one ulp) fall back to the lossless codecKeyFOR or
// codecSignKeyFOR, or to codecRaw when neither shrinks them. Every choice is
// a pure function of the input values, keeping builds byte-deterministic
// across worker counts.
package bat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"libbat/internal/particles"
)

// Codec identifiers stored in section frames. The retired ids 1, 2, 3 and 5
// have no name here.
const (
	codecRaw           uint8 = 0
	codecQuantFOR      uint8 = 4
	codecKeyFOR        uint8 = 6
	codecSignKeyFOR    uint8 = 7
	codecSortedCellFOR uint8 = 8
	codecIntFOR        uint8 = 9
)

var codecNames = map[uint8]string{codecRaw: "raw", codecQuantFOR: "quant-for", codecKeyFOR: "key-for",
	codecSignKeyFOR: "sign-key-for", codecSortedCellFOR: "sorted-cell-for", codecIntFOR: "int-for"}

// CodecName returns the human-readable name of a codec id (batinspect).
func CodecName(c uint8) string {
	if name, ok := codecNames[c]; ok {
		return name
	}
	return fmt.Sprintf("unknown(%d)", c)
}

// limitWidth is the widest block under a value limit: a framed stream's
// blocks are at most bits.Len64(limit) wide, and so are the entries of its
// base column; its width column's entries are at most limitWidth(limit).
func limitWidth(limit uint64) uint8 { return uint8(bits.Len64(limit)) }

// encodedAttr is one encoded section (an attribute, or a position column
// with typ Float32) for a treelet being built. data is nil for codecRaw:
// the compactor streams the raw column bytes directly from the particle set
// instead of materializing a copy.
type encodedAttr struct {
	codec uint8
	data  []byte
}

// encodedLen returns the section payload length in bytes.
func (e encodedAttr) encodedLen(nPoints int, typ particles.AttrType) int {
	if e.codec == codecRaw {
		return nPoints * typ.Size()
	}
	return len(e.data)
}

// --- block packing ---

// forFrame is one block's frame of reference: its smallest value and the bit
// width of the largest offset from it.
type forFrame struct {
	base  uint64
	width uint8
}

// blockFrame is a node range's block as the block loop reads it: its frame,
// the largest offset a valid stream holds under it, and the bit of the
// section payload its first offset starts at. The encoders fill the frame and
// the span, the largest offset their block holds. ef marks a sorted-cell-for
// block stored as Elias–Fano offsets over [0, span], low their low-part width
// (efFrame); every other block is width bits a value.
type blockFrame struct {
	forFrame
	span uint64
	bit  int
	ef   bool
	low  uint8
}

// bits is the bit length of the block of n values under fr.
func (fr *blockFrame) bits(n uint32) int {
	if fr.ef {
		return efBits(int(n), fr.span, fr.low)
	}
	return int(n) * int(fr.width)
}

// frameOf returns the frame of blk (the zero frame for an empty block).
func frameOf(blk []uint64) forFrame { return spanOf(blk).forFrame }

// spanOf returns the frame of blk with its span set to the largest offset
// under it (the zero frame for an empty block).
func spanOf(blk []uint64) blockFrame {
	if len(blk) == 0 {
		return blockFrame{}
	}
	lo, hi := blk[0], blk[0]
	for _, v := range blk[1:] {
		if v < lo {
			lo = v
		} else if v > hi {
			hi = v
		}
	}
	return blockFrame{forFrame: forFrame{base: lo, width: uint8(bits.Len64(hi - lo))}, span: hi - lo}
}

// nodeFrames returns the arena's frame scratch sized for a treelet of n nodes.
func (a *buildArena) nodeFrames(n int) []blockFrame {
	if cap(a.frames) < n {
		a.frames = make([]blockFrame, n)
	}
	return a.frames[:n]
}

// packedLen is the byte length of a block of n width-bit values.
func packedLen(n int, width uint8) int { return (n*int(width) + 7) / 8 }

// packSlack is how far past a stream's end packBits may store: it drains its
// accumulator with eight-byte stores, whose upper bytes are zero or rewritten
// by the next store.
const packSlack = 8

// laneBits is the widest value the pack and unpack loops move in one piece:
// a drained accumulator keeps at most seven bits, and a 64-bit load from the
// byte a value starts in holds at least 57 of its bits. A wider block (up to
// 64 bits, key-for's float64 keys) moves each value as its low 32 bits, then
// its high width - 32 bits: the same LSB-first bitstream, at one branch per
// block.
const laneBits = 64 - 7

// packBits writes vals as fr.width-bit offsets from fr.base, LSB-first,
// starting bit bits into buf — the bits of that byte below the start are kept,
// so blocks follow one another without padding — and returns the bit after
// the last one. The accumulator is drained of its whole bytes whenever the
// next piece would not fit, which leaves at most seven bits: any piece up to
// laneBits does.
func packBits(buf []byte, bit int, vals []uint64, fr forFrame) int {
	pos := bit >> 3
	nb := uint(bit) & 7
	acc := uint64(buf[pos]) & (1<<nb - 1)
	if w := uint(fr.width); w <= laneBits {
		lim := 64 - w
		for _, v := range vals {
			if nb > lim {
				pos, acc, nb = drain(buf, pos, acc, nb)
			}
			acc |= (v - fr.base) << nb
			nb += w
		}
	} else {
		hi := w - 32
		for _, v := range vals {
			if nb > 32 {
				pos, acc, nb = drain(buf, pos, acc, nb)
			}
			off := v - fr.base
			acc |= (off & math.MaxUint32) << nb
			pos, acc, nb = drain(buf, pos, acc, nb+32)
			acc |= off >> 32 << nb
			nb += hi
		}
	}
	binary.LittleEndian.PutUint64(buf[pos:], acc)
	return pos<<3 + int(nb)
}

// drain stores the accumulator acc of nb bits at buf[pos:] and returns the
// position after its whole bytes and what is left of it: at most seven bits.
func drain(buf []byte, pos int, acc uint64, nb uint) (int, uint64, uint) {
	binary.LittleEndian.PutUint64(buf[pos:], acc)
	return pos + int(nb>>3), acc >> (nb &^ 7), nb & 7
}

// packBlock is packBits for a block that starts on byte pos and is padded to
// a whole byte: it returns the position after the block's last byte.
func packBlock(buf []byte, pos int, vals []uint64, fr forFrame) int {
	return (packBits(buf, pos<<3, vals, fr) + 7) >> 3
}

// unpackBits reads len(dst) width-bit values from src, LSB-first, starting
// bit bits in. The caller has checked that those bits are inside src, which
// runs on to the end of the section, so each value is one 64-bit load, shift
// and mask — two for a block wider than laneBits, its low 32 bits and then
// the rest —; only loads within eight bytes of the section's end take the
// copying path. Not inlined: inside a decoder the loop's five live values
// spill to the stack (positions 4.2 ns/value against 3.2 on its own).
//
//go:noinline
func unpackBits(dst []uint64, src []byte, bit int, width uint8) {
	if width > laneBits {
		hiMask := uint64(1)<<(width-32) - 1
		for i := range dst {
			dst[i] = wordAt(src, bit)&math.MaxUint32 | wordAt(src, bit+32)&hiMask<<32
			bit += int(width)
		}
		return
	}
	mask := uint64(1)<<width - 1
	for i := range dst {
		dst[i] = wordAt(src, bit) & mask
		bit += int(width)
	}
}

// wordAt returns the 64 bits of src from bit on, zeros past its end: at least
// laneBits of them when bit is inside src.
func wordAt(src []byte, bit int) uint64 {
	p := uint(bit) >> 3
	var w uint64
	if p+8 <= uint(len(src)) {
		w = binary.LittleEndian.Uint64(src[p : p+8])
	} else {
		var tail [8]byte
		copy(tail[:], src[p:])
		w = binary.LittleEndian.Uint64(tail[:])
	}
	return w >> (uint(bit) & 7)
}

// unpackScratch is the chunk a section decoder unpacks into before converting
// the values to the column's element type: one per load, in its nodeBlocks, as
// the sink unpack hands it to would move a chunk per section to the heap.
type unpackScratch [256]uint64

// nodeBlocks is what a treelet load gives its packed sections to decode
// against: the node table, whose particle ranges are the blocks
// (unpackNodeTable lays them back to back over nPoints), and the load's
// scratch. One frame slab holds the position sections' k-d cells (kd) and
// the attribute sections' frames, which each refills; col is the node
// table's column scratch, which an attribute's frame columns are read
// through; q is the load's one chunk. A section decoder first resolves its
// stream to frames, checking that every block lies inside the payload, then
// runs unpack.
type nodeBlocks struct {
	nodes   []node
	nPoints int
	kd      kdCells
	frames  []blockFrame
	col     []uint64
	q       unpackScratch
}

// newNodeBlocks makes a load's blocks over the nodes and column scratch of
// its node table, with a frame slab of four frames per node whose first three
// quarters take the k-d cells under the treelet's cells.
func newNodeBlocks(nodes []node, nPoints int, cells [3]keyCell, col []uint64) *nodeBlocks {
	n := len(nodes)
	slab := make([]blockFrame, 4*n)
	nb := &nodeBlocks{nodes: nodes, nPoints: nPoints, frames: slab[3*n:], col: col}
	for ax := range nb.kd.frames {
		nb.kd.frames[ax] = slab[ax*n : ax*n : (ax+1)*n]
	}
	nb.kd.derive(nodes, cells)
	return nb
}

// addWidths appends the frames' bit widths, in node order, to info (batinspect).
func (info *SectionInfo) addWidths(frames []blockFrame) {
	for i := range frames {
		info.Widths = append(info.Widths, frames[i].width)
	}
}

// layRun lays the blocks of frames, one per node whose base and width are
// set, back to back from bit start of payload in node order. The run must end
// in the payload's last byte, and the bits left over in it must be zero: a
// run may be neither cut short nor carry anything behind it.
func (nb *nodeBlocks) layRun(frames []blockFrame, payload []byte, start int) error {
	bit := start // at most 2^32 points of at most 64 bits: an int holds it
	for i := range nb.nodes {
		frames[i].bit = bit
		bit += frames[i].bits(nb.nodes[i].count)
	}
	if need := (bit + 7) >> 3; need > len(payload) {
		return fmt.Errorf("truncated: the blocks end at byte %d, the section at %d", need, len(payload))
	} else if need < len(payload) {
		return fmt.Errorf("%d trailing bytes", len(payload)-need)
	}
	if pad := bit & 7; pad != 0 && payload[len(payload)-1]>>pad != 0 {
		return fmt.Errorf("non-zero padding bits after the last block")
	}
	return nil
}

// readFrame reads a frame stored as base uvarint, width u8 at payload[pos:]
// and checks it against limit — the base at most limit, the width at most
// limitWidth(limit) — and that count values of it follow; it returns the
// position after the frame.
func readFrame(payload []byte, pos int, count uint32, limit uint64) (forFrame, int, error) {
	base, k := binary.Uvarint(payload[pos:])
	if k < 0 {
		return forFrame{}, 0, fmt.Errorf("frame base overflows 64 bits")
	}
	if k == 0 || pos+k >= len(payload) {
		return forFrame{}, 0, fmt.Errorf("truncated at frame")
	}
	if base > limit {
		return forFrame{}, 0, fmt.Errorf("frame base %#x overflows %#x", base, limit)
	}
	fr := forFrame{base: base, width: payload[pos+k]}
	pos += k + 1
	if maxWidth := limitWidth(limit); fr.width > maxWidth {
		return fr, 0, fmt.Errorf("bit width %d exceeds %d", fr.width, maxWidth)
	}
	if need := (uint64(count)*uint64(fr.width) + 7) / 8; need > uint64(len(payload)-pos) {
		return fr, 0, fmt.Errorf("truncated: %d values of %d bits need %d bytes, %d remain", count, fr.width, need, len(payload)-pos)
	}
	return fr, pos, nil
}

// unpack is the one block loop of every packed section: it reads each node
// range's offsets under the node's frame in frames, a chunk at a time, and
// hands them to sink with the node's index and the chunk's place in the
// column. The frames have been laid inside payload (layRun).
func (nb *nodeBlocks) unpack(frames []blockFrame, payload []byte, sink func(ni, at int, offs []uint64) error) error {
	for i := range nb.nodes {
		fr := &frames[i]
		start, end := int(nb.nodes[i].start), int(nb.nodes[i].start+nb.nodes[i].count)
		bit, width := fr.bit, fr.width
		var hi efHigh
		if fr.ef {
			width = fr.low
			var err error
			if hi, err = newEFHigh(payload, fr, end-start); err != nil {
				return fmt.Errorf("block %d: %w", i, err)
			}
		}
		for at := start; at < end; {
			c := min(end-at, len(nb.q))
			unpackBits(nb.q[:c], payload, bit, width)
			if fr.ef {
				hi.next(nb.q[:c], payload, fr.low)
			}
			if err := sink(i, at, nb.q[:c]); err != nil {
				return fmt.Errorf("block %d: %w", i, err)
			}
			at += c
			bit += c * int(width)
		}
	}
	return nil
}

// The frame modes of a framed (quant-for, int-for, key-for or sign-key-for)
// section.
// Mode 1, inline per-node frames, is retired.
const (
	modeOneFrame    uint8 = 0
	modePerNodeCols uint8 = 2
)

// frameModeNames names the frame modes a reader decodes (SectionInfo.Mode).
var frameModeNames = map[uint8]string{modeOneFrame: "one-frame", modePerNodeCols: "per-node-cols"}

// uvarintLen is the encoded length of binary.PutUvarint(v).
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// runLen is the byte length of n values stored as one frame and its block:
// base uvarint, width u8, offsets. A one-frame section's indices and each
// frame column of a per-node section are such runs.
func runLen(n int, fr forFrame) int { return uvarintLen(fr.base) + 1 + packedLen(n, fr.width) }

// putRun writes vals as one frame and its block at buf[pos:] and returns the
// position after the block's last byte.
func putRun(buf []byte, pos int, vals []uint64, fr forFrame) int {
	pos += binary.PutUvarint(buf[pos:], fr.base)
	buf[pos] = fr.width
	return packBlock(buf, pos+1, vals, fr)
}

// setFrames sets frames[i] to the frame of node i's range of vals, with span
// its largest offset (the zero frame for an empty node).
func setFrames(frames []blockFrame, vals []uint64, t *treelet) {
	for i := range t.nodes {
		n := &t.nodes[i]
		frames[i] = spanOf(vals[n.start : n.start+n.count])
	}
}

// framePlan is a framed stream sized from its node frames: its mode, its
// length after the header, and the frames its runs are stored under — the one
// frame over the treelet (modeOneFrame), or the frames of the base and the
// width column (modePerNodeCols).
type framePlan struct {
	mode          uint8
	size          int
	one           forFrame
	bases, widths forFrame
}

// planFramed sizes a column whose node frames are set (setFrames) in both
// frame modes — one frame over the treelet, or one per node range with the
// bases and the widths as two runs ahead of the bit-contiguous blocks — and
// plans the shorter. The one frame spans the node frames, so no value is read.
func planFramed(frames []blockFrame, t *treelet, limit uint64) framePlan {
	// The decoder accepts a node's frame only if no offset under it can pass
	// the limit, or if it is as wide as the limit itself (layColumns), so a
	// column with another frame keeps the one frame.
	maxWidth := limitWidth(limit)
	lo, hi := uint64(math.MaxUint64), uint64(0)
	baseLo, baseHi := uint64(math.MaxUint64), uint64(0)
	widthLo, widthHi := maxWidth, uint8(0)
	n, blockBits, fits := 0, 0, true
	for i := range t.nodes {
		fr, count := &frames[i], int(t.nodes[i].count)
		if count > 0 {
			lo, hi = min(lo, fr.base), max(hi, fr.base+fr.span)
		}
		baseLo, baseHi = min(baseLo, fr.base), max(baseHi, fr.base)
		widthLo, widthHi = min(widthLo, fr.width), max(widthHi, fr.width)
		n += count
		blockBits += count * int(fr.width)
		fits = fits && (fr.width == maxWidth || uint64(1)<<fr.width-1 <= limit-fr.base)
	}
	p := framePlan{mode: modeOneFrame, one: forFrame{base: lo, width: uint8(bits.Len64(hi - lo))}}
	p.size = runLen(n, p.one)
	p.bases = forFrame{base: baseLo, width: uint8(bits.Len64(baseHi - baseLo))}
	p.widths = forFrame{base: uint64(widthLo), width: uint8(bits.Len8(widthHi - widthLo))}
	nN := len(t.nodes)
	if perNode := runLen(nN, p.bases) + runLen(nN, p.widths) + (blockBits+7)/8; fits && perNode < p.size {
		p.mode, p.size = modePerNodeCols, perNode
	}
	return p
}

// writeFramed packs vals — t's column in layout order, under the node frames
// p was planned from — as p plans, behind a header of hdrLen bytes whose last
// byte it sets to the frame mode; the rest of the header is the caller's.
// ok=false means the plan and the packer disagree.
func writeFramed(vals []uint64, frames []blockFrame, t *treelet, hdrLen int, p framePlan, a *buildArena) ([]byte, bool) {
	size := hdrLen + p.size
	out := make([]byte, size+packSlack)
	out[hdrLen-1] = p.mode
	pos := hdrLen
	if p.mode == modeOneFrame {
		pos = putRun(out, pos, vals, p.one)
	} else {
		nN := len(t.nodes)
		if cap(a.cols) < 2*nN {
			a.cols = make([]uint64, 2*nN)
		}
		bases, widths := a.cols[:nN], a.cols[nN:2*nN]
		for i := range t.nodes {
			bases[i], widths[i] = frames[i].base, uint64(frames[i].width)
		}
		pos = putRun(out, pos, bases, p.bases)
		bit := putRun(out, pos, widths, p.widths) << 3
		for i := range t.nodes {
			n := &t.nodes[i]
			bit = packBits(out, bit, vals[n.start:n.start+n.count], frames[i].forFrame)
		}
		pos = (bit + 7) >> 3
	}
	if pos != size {
		return nil, false // defensive: the plan and the packer must agree
	}
	return out[:size], true
}

// packFramed packs vals — t's column in layout order, none above limit — as
// planFramed plans them, behind a header of hdrLen bytes (writeFramed).
// ok=false means the stream would not be shorter than maxLen.
func packFramed(vals []uint64, t *treelet, hdrLen int, limit uint64, maxLen int, a *buildArena) ([]byte, bool) {
	frames := a.nodeFrames(len(t.nodes))
	setFrames(frames, vals, t)
	p := planFramed(frames, t, limit)
	if hdrLen+p.size >= maxLen {
		return nil, false
	}
	return writeFramed(vals, frames, t, hdrLen, p, a)
}

// readRun reads a run of len(dst) values — one frame (base uvarint, width u8)
// and its byte-aligned block — at payload[pos:] into dst and returns its
// frame and the position after the block. Every value is base + offset, and
// none may pass limit: the frame's base is checked first, its width against
// limitWidth(limit) and every offset against what limit leaves above the
// base, so no sum can wrap.
func readRun(dst []uint64, payload []byte, pos int, limit uint64) (forFrame, int, error) {
	fr, pos, err := readFrame(payload, pos, uint32(len(dst)), limit)
	if err != nil {
		return fr, 0, err
	}
	unpackBits(dst, payload, pos<<3, fr.width)
	for i, off := range dst {
		if off > limit-fr.base {
			return fr, 0, fmt.Errorf("entry %d: %#x + %#x exceeds %d", i, fr.base, off, limit)
		}
		dst[i] = fr.base + off
	}
	return fr, pos + packedLen(len(dst), fr.width), nil
}

// layColumns reads the two frame columns of a mode-2 section at payload[pos:]
// — the nodes' bases, then the nodes' widths — into the frames and lays the
// block run that follows them. Both are checked against the payload before
// anything is read under them: a base is at most limit, a width at most
// limitWidth(limit), and base + 2^width - 1 stays within limit, so no offset
// under an accepted frame can pass it — except under a frame as wide as the
// limit, which keeps that sum within it only on a base of 0: its span is what
// the limit leaves above the base, and the block loop checks every offset
// against it, as under the one frame of mode 0. It returns the position after
// the columns.
func (nb *nodeBlocks) layColumns(payload []byte, pos int, limit uint64) (int, error) {
	maxWidth := limitWidth(limit)
	_, pos, err := readRun(nb.col, payload, pos, limit)
	if err != nil {
		return 0, fmt.Errorf("base column: %w", err)
	}
	for i, v := range nb.col {
		nb.frames[i] = blockFrame{forFrame: forFrame{base: v}}
	}
	if _, pos, err = readRun(nb.col, payload, pos, uint64(maxWidth)); err != nil {
		return 0, fmt.Errorf("width column: %w", err)
	}
	for i, v := range nb.col {
		if v > uint64(maxWidth) { // readRun has bounded it; checked next to the narrowing
			return 0, fmt.Errorf("frame %d: bit width %d exceeds %d", i, v, maxWidth)
		}
		fr := &nb.frames[i]
		if fr.width, fr.span = uint8(v), 1<<v-1; fr.span > limit-fr.base {
			if fr.width != maxWidth {
				return 0, fmt.Errorf("frame %d (base %#x, width %d) overflows %d bits", i, fr.base, v, maxWidth)
			}
			fr.span = limit - fr.base
		}
	}
	return pos, nb.layRun(nb.frames, payload, pos<<3)
}

// layFramed resolves a framed (quant-for, int-for, key-for or sign-key-for)
// stream —
// its mode byte at payload[pos-1], its frames from pos on — to one frame per
// node range before any value is read, and lays the block run behind them:
// the one frame (modeOneFrame), whose offsets the block loop checks against
// limit, or the frame columns (modePerNodeCols). info, when non-nil, receives
// the mode, the frame bytes and the block widths.
func (nb *nodeBlocks) layFramed(payload []byte, pos int, limit uint64, info *SectionInfo) error {
	mode := payload[pos-1]
	name, ok := frameModeNames[mode]
	if !ok {
		return fmt.Errorf("section has unknown frame mode %d", mode)
	}
	start := pos
	var one forFrame
	var err error
	if mode == modeOneFrame {
		if one, pos, err = readFrame(payload, pos, uint32(nb.nPoints), limit); err == nil {
			for i := range nb.frames {
				nb.frames[i] = blockFrame{forFrame: one, span: limit - one.base}
			}
			err = nb.layRun(nb.frames, payload, pos<<3)
		}
	} else {
		pos, err = nb.layColumns(payload, pos, limit)
	}
	if err != nil {
		return fmt.Errorf("%s stream: %w", name, err)
	}
	if info != nil {
		info.Mode = name
		info.FrameBytes = pos - start
		if mode == modeOneFrame {
			info.Widths = append(info.Widths, one.width)
		} else {
			info.addWidths(nb.frames)
		}
	}
	return nil
}
