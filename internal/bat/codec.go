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
// reorderBFS lays the node ranges out back to back in node order, and the
// decoder knows them from the node table it parsed just before, so no block
// index is stored; a section's frames are known before its first block is
// read, and the blocks follow one another bit for bit, so every block's bit
// offset is a prefix sum over the node table. That node table is itself a run
// of the same blocks, one per column (see "node table" below). The codecs a
// reader decodes:
//
//	codecRaw      (0): the column's values as they are (f64 or f32 per the
//	                  schema type). Always valid; the fallback when no other codec
//	                  shrinks the column.
//	codecDelta    (2): lossless delta + zigzag + varint for integral-valued
//	                  columns (particle IDs, type tags). Chosen only when
//	                  every value is a small-magnitude integer and the
//	                  stream actually shrinks.
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
//	codecSortedCellFOR (8): lossless, position columns only. Each float32
//	                  is mapped through f32Key, the order-preserving
//	                  bijection of float32 bit patterns onto uint32 (every
//	                  bit pattern round-trips: ±0, denormals, ±Inf, NaN
//	                  payloads). The payload is only the blocks,
//	                  bit-contiguous in node order, padded with zero bits to
//	                  a byte; the frames are the nodes' k-d cells, which the
//	                  file already stores. The root's cell on an axis is
//	                  [key(lo), key(hi)] of the treelet bounds in the shallow
//	                  leaf record — exactly the float32 extremes of the
//	                  treelet's coordinates — and an inner node that splits
//	                  that axis at s hands its left child [key(lo), key(s)]
//	                  and its right child [key(s), key(hi)], both sides
//	                  inclusive (the builder sends coordinates below s left
//	                  and the rest right, and s is one of them); any other
//	                  node hands its cell down unchanged. One top-down pass
//	                  over the breadth-first node table, parents before
//	                  children (cellFrames), gives every node's cell on one
//	                  axis, and kdCells keeps all three.
//	                  A node's particles are a set — no query, LOD window or
//	                  route depends on their order inside a node — so the
//	                  builder sorts every node's range by key along its sort
//	                  axis (ties keep the build's order): the axis of the
//	                  node's widest cell, the largest bits.Len(span), ties to
//	                  the lowest axis; an axis whose cells cannot be derived
//	                  counts as width 0. On that axis a node's n offsets are
//	                  non-decreasing in [0, span], and its block is
//	                  Elias–Fano offsets
//	                    L = ⌊log2((span+1)/n)⌋, 0 when span+1 < n
//	                    n·L bits: every offset's low L bits, in order
//	                    n + (span>>L) + 1 bits: offset j's high part h_j as
//	                      a one at bit h_j + j, every other bit zero
//	                  exactly when that is fewer bits than n·width. Every
//	                  other block — the node's other two axes, and a sort
//	                  axis where Elias–Fano is not smaller — stores key -
//	                  key(lo_i) in width = bits.Len(key(hi_i) - key(lo_i))
//	                  bits. n comes from the node table and span from the
//	                  cells, so nothing is stored per node, no flag either,
//	                  and every block's bit length is a prefix sum over the
//	                  node table. An offset past key(hi_i) - key(lo_i) is a
//	                  particle outside its k-d cell, where no traversal would
//	                  look for it: corrupt, and so is a high part that does
//	                  not hold exactly n ones. The encoder checks every key
//	                  against its cell and stores a column as codecRaw when
//	                  one escapes (NaN coordinates, which no cell orders; -0
//	                  and +0 on either side of a split at zero) or when the
//	                  stream would not be smaller than the raw f32 bytes.
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
//	                  A lossless float column is stored as the smallest of
//	                  delta, key-for, sign-key-for and raw; a lossy one that
//	                  cannot be quantized falls back to key-for or
//	                  sign-key-for before raw.
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
//
// Ids 1, 3 and 5 and frame mode 1 are retired: earlier writers stored flat
// quant attributes (1), positions under inline per-block frames (3),
// positions under their k-d cells in the order the build left them, with no
// Elias–Fano block (5, cell-for), and quant-for frames inline ahead of each
// block (mode 1), and a reader refuses a section that holds one as an unknown
// codec or frame mode.
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
	"slices"

	"libbat/internal/bitmap"
	"libbat/internal/geom"
	"libbat/internal/particles"
)

// Codec identifiers stored in section frames. codecQuant is retired: the
// flat quant sections earlier writers stored, which no reader decodes.
const (
	codecRaw           uint8 = 0
	codecQuant         uint8 = 1
	codecDelta         uint8 = 2
	codecQuantFOR      uint8 = 4
	codecKeyFOR        uint8 = 6
	codecSignKeyFOR    uint8 = 7
	codecSortedCellFOR uint8 = 8
)

// CodecName returns the human-readable name of a codec id (batinspect).
func CodecName(c uint8) string {
	switch c {
	case codecRaw:
		return "raw"
	case codecDelta:
		return "delta"
	case codecQuantFOR:
		return "quant-for"
	case codecKeyFOR:
		return "key-for"
	case codecSignKeyFOR:
		return "sign-key-for"
	case codecSortedCellFOR:
		return "sorted-cell-for"
	}
	return fmt.Sprintf("unknown(%d)", c)
}

// maxQuantBits caps the grid indices of a quant section: they stay well
// inside float64's 53-bit integer range.
const maxQuantBits = 48

// maxQuantIndex is the largest grid index a quant section may hold.
const maxQuantIndex = 1<<maxQuantBits - 1

// keyLimit is the largest key a key-for or sign-key-for section of an
// attribute of type typ may hold: a 32-bit key or a 64-bit one.
func keyLimit(typ particles.AttrType) uint64 {
	if typ == particles.Float32 {
		return math.MaxUint32
	}
	return math.MaxUint64
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

// efBits is the bit length of an Elias–Fano block of n offsets in [0, span]
// with low-part width low: the low parts, then the high part's n ones and
// (span>>low) + 1 zeros. A cell's span is a difference of two uint32 keys;
// past that no block is short enough to choose (math.MaxInt).
func efBits(n int, span uint64, low uint8) int {
	high := span >> low
	if high > math.MaxUint32 {
		return math.MaxInt
	}
	return n*int(low) + n + int(high) + 1
}

// efFrame makes fr, the cell frame of a node of n particles on its sort axis,
// an Elias–Fano block when that takes fewer bits than n offsets of fr's
// width. The low part is ⌊log2((span+1)/n)⌋ bits wide, 0 when span+1 < n;
// span is a cell's, below 2^32 (efBits refuses any other), so span+1 does
// not wrap.
func efFrame(fr *blockFrame, n uint32) {
	if n == 0 {
		return
	}
	low := uint8(0)
	if q := (fr.span + 1) / uint64(n); q > 1 {
		low = uint8(bits.Len64(q) - 1)
	}
	if efBits(int(n), fr.span, low) >= int(n)*int(fr.width) {
		return
	}
	fr.ef, fr.low = true, low
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

// unpackScratch is the stack buffer a section decoder unpacks into, a chunk
// at a time, before converting the values to the column's element type. One
// per section, not per block: zeroing it costs more than a small block.
type unpackScratch [256]uint64

// checkBlock validates one frame against the bytes that remain after it:
// the width is within maxWidth and count values of it fit.
func checkBlock(remain int, count uint32, width, maxWidth uint8) error {
	if width > maxWidth {
		return fmt.Errorf("bit width %d exceeds %d", width, maxWidth)
	}
	if need := (uint64(count)*uint64(width) + 7) / 8; need > uint64(remain) {
		return fmt.Errorf("truncated: %d values of %d bits need %d bytes, %d remain", count, width, need, remain)
	}
	return nil
}

// nodeBlocks is what a treelet gives its packed sections to decode against:
// the node table, whose particle ranges are the blocks (unpackNodeTable lays
// them back to back over nPoints), and room for one frame per node, refilled
// by every attribute section. A section decoder first resolves its stream to
// frames — the k-d cells of a position section (kdCells), the one frame or
// the frame columns ahead of an attribute section's blocks — checking that
// every block lies inside the payload, then runs unpack.
type nodeBlocks struct {
	nodes   []diskNode
	nPoints int
	frames  []blockFrame
	col     []uint64 // a frame column being read, a value per node; nil until a section has one
}

func newNodeBlocks(nodes []diskNode, nPoints int) *nodeBlocks {
	return &nodeBlocks{nodes: nodes, nPoints: nPoints, frames: make([]blockFrame, len(nodes))}
}

// widths appends the frames' bit widths, in node order, to info (batinspect).
func (nb *nodeBlocks) widths(info *SectionInfo) {
	if info == nil {
		return
	}
	for i := range nb.frames {
		info.Widths = append(info.Widths, nb.frames[i].width)
	}
}

// layRun lays the blocks of the frames, whose base and width are set, back to
// back from bit start of payload in node order. The run must end in the
// payload's last byte, and the bits left over in it must be zero: a run may
// be neither cut short nor carry anything behind it.
func (nb *nodeBlocks) layRun(payload []byte, start int) error {
	bit := start // at most 2^32 points of at most 64 bits: an int holds it
	for i := range nb.nodes {
		nb.frames[i].bit = bit
		bit += nb.frames[i].bits(nb.nodes[i].count)
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
// and checks that count values of it follow; it returns the position after
// the frame. limit bounds base + offset.
func readFrame(payload []byte, pos int, count uint32, maxWidth uint8, limit uint64) (forFrame, int, error) {
	base, k := binary.Uvarint(payload[pos:])
	if k <= 0 || pos+k >= len(payload) {
		return forFrame{}, 0, fmt.Errorf("truncated at frame")
	}
	if base > limit {
		return forFrame{}, 0, fmt.Errorf("frame base %#x overflows %#x", base, limit)
	}
	fr := forFrame{base: base, width: payload[pos+k]}
	pos += k + 1
	return fr, pos, checkBlock(len(payload)-pos, count, fr.width, maxWidth)
}

// unpack is the one block loop of every packed section: it reads each node
// range's offsets under the node's frame, a chunk at a time, and hands them
// to sink with the node's index and the chunk's place in the column. The
// frames have been laid inside payload (layRun).
func (nb *nodeBlocks) unpack(payload []byte, sink func(ni, at int, offs []uint64) error) error {
	var q unpackScratch
	for i := range nb.nodes {
		fr := &nb.frames[i]
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
			c := min(end-at, len(q))
			unpackBits(q[:c], payload, bit, width)
			if fr.ef {
				hi.next(q[:c], payload, fr.low)
			}
			if err := sink(i, at, q[:c]); err != nil {
				return fmt.Errorf("block %d: %w", i, err)
			}
			at += c
			bit += c * int(width)
		}
	}
	return nil
}

// efHigh reads the high part of an Elias–Fano block: word holds the bits
// from bit on that are not read yet, the next offset's one is word's lowest
// set bit, and base is where that one would be were the offset's high part
// 0 — the part's first bit plus the offset's index.
type efHigh struct {
	word      uint64
	bit, base int
}

// efWordBits is how many bits of a wordAt load efHigh takes at a time: at
// least that many are valid whatever the load's bit offset in its byte.
const efWordBits = 56

// newEFHigh finds the high part of fr's Elias–Fano block of n offsets, laid
// inside payload, and checks that it holds exactly n ones: then the n ones
// next reads are all inside it.
func newEFHigh(payload []byte, fr *blockFrame, n int) (efHigh, error) {
	start := fr.bit + n*int(fr.low)
	end := fr.bit + efBits(n, fr.span, fr.low)
	ones := 0
	for b := start; b < end; b += efWordBits {
		w := wordAt(payload, b)
		if k := end - b; k < efWordBits {
			w &= 1<<k - 1
		}
		ones += bits.OnesCount64(w & (1<<efWordBits - 1))
	}
	if ones != n {
		return efHigh{}, fmt.Errorf("Elias–Fano high part holds %d ones, the node %d particles", ones, n)
	}
	return efHigh{word: wordAt(payload, start) & (1<<efWordBits - 1), bit: start, base: start}, nil
}

// next adds the next len(offs) high parts, shifted past the low bits, to the
// low parts in offs.
func (h *efHigh) next(offs []uint64, payload []byte, low uint8) {
	word, bit, base := h.word, h.bit, h.base
	for i := range offs {
		for word == 0 {
			bit += efWordBits
			word = wordAt(payload, bit) & (1<<efWordBits - 1)
		}
		at := bit + bits.TrailingZeros64(word)
		word &= word - 1
		offs[i] |= uint64(at-base-i) << low
	}
	h.word, h.bit, h.base = word, bit, base+len(offs)
}

// --- attribute encoding ---

// encodeTreeletAttrs encodes every attribute column of a freshly built
// treelet, running inside the fused treelet worker so encoding parallelizes
// across treelets with the rest of construction.
func encodeTreeletAttrs(set *particles.Set, t *treelet, bounds []float64, lodScale float64, a *buildArena) {
	nA := set.Schema.NumAttrs()
	t.attrEnc = make([]encodedAttr, nA)
	for attr := 0; attr < nA; attr++ {
		t.attrEnc[attr] = encodeAttr(set.Attrs[attr], t,
			set.Schema.Attrs[attr].Type, bounds[attr], lodScale, a)
	}
}

// typedValue returns the value the lossless layout stores for typ: Float32
// attributes round through float32 on disk, so the error bound is measured
// against that representable value, not the pre-rounding float64.
func typedValue(v float64, typ particles.AttrType) float64 {
	if typ == particles.Float32 {
		return float64(float32(v))
	}
	return v
}

// encodeAttr picks the cheapest codec honoring bound for one attribute
// column of treelet t and returns the encoded section. vals is the full
// attribute array; t.order maps layout index → particle index, and values in
// t's inner-node ranges (LOD samples) may use bound·lodScale. Scratch
// buffers come from the worker's arena; the returned payload is freshly
// allocated (it outlives the arena).
func encodeAttr(vals []float64, t *treelet, typ particles.AttrType,
	bound, lodScale float64, a *buildArena) encodedAttr {

	n := len(t.order)
	if n == 0 {
		return encodedAttr{codec: codecRaw}
	}
	rawLen := n * typ.Size()

	// Materialize the type-rounded reference values once.
	ref := a.refVals[:0]
	for _, p := range t.order {
		ref = append(ref, typedValue(vals[p], typ))
	}
	a.refVals = ref[:0] // keep the (possibly grown) backing array

	if bound > 0 {
		if data, ok := encodeQuantFOR(ref, bound, lodScale, t, rawLen, a); ok {
			return encodedAttr{codec: codecQuantFOR, data: data}
		}
	} else if data, ok := encodeDelta(ref, rawLen); ok {
		// The shortest of delta and the key streams; delta on a tie.
		if keys := encodeKeys(ref, typ, t, len(data), a); keys.codec != codecRaw {
			return keys
		}
		return encodedAttr{codec: codecDelta, data: data}
	}
	return encodeKeys(ref, typ, t, rawLen, a)
}

// quantFORHeaderLen is the fixed prefix of a codecQuantFOR payload: grid
// minimum f64, mode u8.
const quantFORHeaderLen = 8 + 1

// keyFORHeaderLen is the fixed prefix of a codecKeyFOR or codecSignKeyFOR
// payload: mode u8.
const keyFORHeaderLen = 1

// The frame modes of a framed (quant-for, key-for or sign-key-for) section.
// Mode 1, inline per-node frames, is retired.
const (
	modeOneFrame    uint8 = 0
	modePerNodeCols uint8 = 2
)

// frameModeNames names the frame modes a reader decodes (SectionInfo.Mode).
var frameModeNames = map[uint8]string{modeOneFrame: "one-frame", modePerNodeCols: "per-node-cols"}

// quantSteps returns the grid steps of a lossy attribute's leaf and LOD
// ranges. Encoder and decoder both call it — one with the build's bound and
// scale, the other with the footer's copy of them — so a section stores no
// step.
func quantSteps(bound, lodScale float64) (fineStep, lodStep float64) {
	return 2 * bound, 2 * (bound * lodScale)
}

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

// encodeQuantFOR quantizes ref (t's column in layout order) onto the
// two-step grid and packs the indices under one frame or one per node range,
// whichever stream is shorter. ok=false means the section cannot be
// represented within the bounds (non-finite values, grid indices too wide,
// or rounding that one nudge cannot fix) or would not shrink below rawLen.
func encodeQuantFOR(ref []float64, bound, lodScale float64, t *treelet,
	rawLen int, a *buildArena) ([]byte, bool) {

	vmin := math.Inf(1)
	for _, v := range ref {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, false
		}
		if v < vmin {
			vmin = v
		}
	}
	fineStep, lodStep := quantSteps(bound, lodScale)

	qs := a.qbuf[:0]
	for ni := range t.nodes {
		n := &t.nodes[ni]
		step, b := fineStep, bound
		if n.axis != leafAxis {
			step, b = lodStep, bound*lodScale
		}
		for _, v := range ref[n.start : n.start+n.count] {
			q := math.Round((v - vmin) / step)
			if math.IsNaN(q) || q < 0 || q >= float64(uint64(1)<<maxQuantBits) {
				return nil, false
			}
			qi := uint64(q)
			// One corrective nudge: floating-point rounding in either the
			// division above or the reconstruction below can push the error a
			// hair past the bound; moving one grid cell fixes it whenever the
			// grid can represent the value at all.
			rec := vmin + float64(qi)*step
			if rec-v > b && qi > 0 {
				qi--
				rec = vmin + float64(qi)*step
			} else if v-rec > b {
				qi++
				rec = vmin + float64(qi)*step
			}
			if diff := rec - v; diff > b || -diff > b || qi>>maxQuantBits != 0 {
				return nil, false
			}
			qs = append(qs, qi)
		}
	}
	a.qbuf = qs[:0] // keep the (possibly grown) backing array
	if len(qs) != len(ref) {
		return nil, false // defensive: the node ranges must tile the column
	}
	out, ok := packFramed(qs, t, quantFORHeaderLen, maxQuantIndex, rawLen, a)
	if ok {
		binary.LittleEndian.PutUint64(out, math.Float64bits(vmin))
	}
	return out, ok
}

// encodeKeys stores ref (t's column in layout order, type-rounded) as a
// key-for or a sign-key-for section, whichever stream is shorter — key-for on
// a tie —, or returns codecRaw when neither would be shorter than maxLen. Both
// streams are sized from their node frames — a node of one sign has its
// sign-key frame from its order-key frame (signFrames), so only the nodes
// that hold both signs are read twice — and only the stream kept is packed.
func encodeKeys(ref []float64, typ particles.AttrType, t *treelet, maxLen int, a *buildArena) encodedAttr {
	keys := orderKeys(a.qbuf[:0], ref, typ)
	a.qbuf = keys[:0] // keep the (possibly grown) backing array
	nN := len(t.nodes)
	frames := a.nodeFrames(2 * nN)
	order, sign := frames[:nN], frames[nN:]
	setFrames(order, keys, t)
	signFrames(sign, order, ref, typ, t)
	limit := keyLimit(typ)
	codec, frames, plan := codecKeyFOR, order, planFramed(order, t, limit)
	if signPlan := planFramed(sign, t, limit); signPlan.size < plan.size {
		codec, frames, plan = codecSignKeyFOR, sign, signPlan
	}
	if keyFORHeaderLen+plan.size >= maxLen {
		return encodedAttr{codec: codecRaw}
	}
	if codec == codecSignKeyFOR {
		keys = signKeys(keys[:0], ref, typ)
	}
	data, ok := writeFramed(keys, frames, t, keyFORHeaderLen, plan, a)
	if !ok {
		return encodedAttr{codec: codecRaw}
	}
	return encodedAttr{codec: codec, data: data}
}

// orderKeys appends key-for's key of every value of ref to dst: f32Key of the
// float32 codecRaw would store for a Float32 attribute, f64Key otherwise.
func orderKeys(dst []uint64, ref []float64, typ particles.AttrType) []uint64 {
	if typ == particles.Float32 {
		for _, v := range ref {
			dst = append(dst, uint64(f32Key(math.Float32bits(float32(v)))))
		}
		return dst
	}
	for _, v := range ref {
		dst = append(dst, f64Key(math.Float64bits(v)))
	}
	return dst
}

// signKeys appends sign-key-for's key of every value of ref to dst: signKey32
// of the float32 codecRaw would store for a Float32 attribute, signKey64
// otherwise.
func signKeys(dst []uint64, ref []float64, typ particles.AttrType) []uint64 {
	if typ == particles.Float32 {
		for _, v := range ref {
			dst = append(dst, uint64(signKey32(math.Float32bits(float32(v)))))
		}
		return dst
	}
	for _, v := range ref {
		dst = append(dst, signKey64(math.Float64bits(v)))
	}
	return dst
}

// signFrames sets sign[i] to the frame node i's values take under sign-key-for
// from order, their frames under key-for. A node whose order keys all lie on
// one side of the key of +0 holds values of one sign, and its sign-key frame
// runs between the sign keys of its order frame's two ends (signOfOrder): the
// span doubled, so a block of two or more distinct values is exactly one bit
// wider and a constant one stays zero bits. Only a node that holds both signs
// is scanned.
func signFrames(sign, order []blockFrame, ref []float64, typ particles.AttrType, t *treelet) {
	plusZero := uint64(1) << 63
	if typ == particles.Float32 {
		plusZero = 1 << 31
	}
	for i := range t.nodes {
		n, fr := &t.nodes[i], order[i]
		lo, hi := fr.base, fr.base+fr.span
		switch {
		case n.count == 0:
			sign[i] = blockFrame{}
			continue
		case lo < plusZero && hi >= plusZero:
			lo, hi = signSpan(ref[n.start:n.start+n.count], typ)
		case lo >= plusZero:
			lo, hi = signOfOrder(lo, plusZero), signOfOrder(hi, plusZero)
		default:
			lo, hi = signOfOrder(hi, plusZero), signOfOrder(lo, plusZero)
		}
		sign[i] = blockFrame{forFrame: forFrame{base: lo, width: uint8(bits.Len64(hi - lo))}, span: hi - lo}
	}
}

// signOfOrder returns the sign key of the value whose order key is k, with
// plusZero the order key of +0 (2^63, or 2^31 for a Float32 attribute): the
// magnitude bits doubled, plus one for a negative value. Above plusZero the
// magnitude bits are k - plusZero, so the map rises with k; below it they are
// plusZero - 1 - k, so it falls.
func signOfOrder(k, plusZero uint64) uint64 {
	if k >= plusZero {
		return 2 * (k - plusZero)
	}
	return 2*(plusZero-1-k) + 1
}

// signSpan returns the smallest and the largest sign key of the values of
// ref, which is not empty.
func signSpan(ref []float64, typ particles.AttrType) (lo, hi uint64) {
	lo, hi = math.MaxUint64, 0
	if typ == particles.Float32 {
		for _, v := range ref {
			k := uint64(signKey32(math.Float32bits(float32(v))))
			lo, hi = min(lo, k), max(hi, k)
		}
		return lo, hi
	}
	for _, v := range ref {
		k := signKey64(math.Float64bits(v))
		lo, hi = min(lo, k), max(hi, k)
	}
	return lo, hi
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

// integralMagnitude is the largest magnitude codecDelta accepts: integers
// up to 2^52 survive float64 round-trips and int64 deltas without loss.
const integralMagnitude = 1 << 52

// encodeDelta encodes ref as zigzag-varint first differences when every
// value is an exactly representable integer and the stream shrinks. -0
// would decode as +0, so a column holding it stays raw.
func encodeDelta(ref []float64, rawLen int) ([]byte, bool) {
	for _, v := range ref {
		if v != math.Trunc(v) || math.IsNaN(v) || v > integralMagnitude || v < -integralMagnitude ||
			(v == 0 && math.Signbit(v)) {
			return nil, false
		}
	}
	out := make([]byte, 0, rawLen)
	prev := int64(0)
	var tmp [binary.MaxVarintLen64]byte
	for _, v := range ref {
		cur := int64(v)
		d := cur - prev
		prev = cur
		// Zigzag: interleave positives and negatives so small deltas of
		// either sign stay short.
		out = append(out, tmp[:binary.PutUvarint(tmp[:], uint64(d)<<1^uint64(d>>63))]...)
		if len(out) >= rawLen {
			return nil, false
		}
	}
	return out, true
}

// --- attribute decoding ---

// decodeAttrSection decodes one attribute section payload into a fresh
// []float64 column. declaredBound/lodScale come from the file footer: a
// quant-for section takes its grid steps from them. info, when non-nil,
// receives the section's frame mode, frame bytes and block widths
// (batinspect).
func decodeAttrSection(codec uint8, payload []byte, nb *nodeBlocks,
	typ particles.AttrType, declaredBound, lodScale float64, info *SectionInfo) ([]float64, error) {

	switch codec {
	case codecRaw:
		return decodeRaw(payload, nb.nPoints, typ)
	case codecDelta:
		return decodeDelta(payload, nb.nPoints)
	case codecQuantFOR:
		return decodeQuantFOR(payload, nb, declaredBound, lodScale, info)
	case codecKeyFOR, codecSignKeyFOR:
		return decodeKeyFOR(codec, payload, nb, typ, info)
	}
	return nil, fmt.Errorf("bat: unknown attribute codec id %d", codec)
}

func decodeRaw(payload []byte, nPoints int, typ particles.AttrType) ([]float64, error) {
	sz := typ.Size()
	if len(payload) != nPoints*sz {
		return nil, fmt.Errorf("bat: raw section holds %d bytes, want %d", len(payload), nPoints*sz)
	}
	out := make([]float64, nPoints)
	if typ == particles.Float32 {
		for i := range out {
			out[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:])))
		}
	} else {
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
		}
	}
	return out, nil
}

// dequant runs the block loop over a quant section whose frames are laid:
// every offset becomes vmin + (base + offset)·step at its node range's step.
// An index past maxQuantIndex is corrupt: the encoder never writes one.
func (nb *nodeBlocks) dequant(payload []byte, vmin, fineStep, lodStep float64) ([]float64, error) {
	out := make([]float64, nb.nPoints)
	err := nb.unpack(payload, func(ni, at int, offs []uint64) error {
		fr := nb.frames[ni]
		step := fineStep
		if nb.nodes[ni].axis != uint8(leafAxis) {
			step = lodStep // LOD samples of inner nodes use the coarser grid
		}
		dst := out[at : at+len(offs)]
		for i, off := range offs {
			if off > fr.span {
				return fmt.Errorf("grid index %#x overflows %d bits (base %#x)", fr.base+off, maxQuantBits, fr.base)
			}
			dst[i] = vmin + float64(fr.base+off)*step
		}
		return nil
	})
	return out, err
}

// readRun reads a run of len(dst) values — one frame (base uvarint, width u8)
// and its byte-aligned block — at payload[pos:] into dst and returns the
// position after the block. Every value is base + offset, and none may pass
// limit: the frame's base is checked first and every offset against what
// limit leaves above it, so no sum can wrap.
func readRun(dst []uint64, payload []byte, pos int, maxWidth uint8, limit uint64) (int, error) {
	fr, pos, err := readFrame(payload, pos, uint32(len(dst)), maxWidth, limit)
	if err != nil {
		return 0, err
	}
	unpackBits(dst, payload, pos<<3, fr.width)
	for i, off := range dst {
		if off > limit-fr.base {
			return 0, fmt.Errorf("entry %d: %#x + %#x exceeds %d", i, fr.base, off, limit)
		}
		dst[i] = fr.base + off
	}
	return pos + packedLen(len(dst), fr.width), nil
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
	if nb.col == nil {
		nb.col = make([]uint64, len(nb.nodes))
	}
	col := nb.col
	maxWidth := limitWidth(limit)
	pos, err := readRun(col, payload, pos, maxWidth, limit)
	if err != nil {
		return 0, fmt.Errorf("base column: %w", err)
	}
	for i, v := range col {
		nb.frames[i] = blockFrame{forFrame: forFrame{base: v}}
	}
	if pos, err = readRun(col, payload, pos, limitWidth(uint64(maxWidth)), uint64(maxWidth)); err != nil {
		return 0, fmt.Errorf("width column: %w", err)
	}
	for i, v := range col {
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
	return pos, nb.layRun(payload, pos<<3)
}

// layFramed resolves a framed (quant-for, key-for or sign-key-for) stream —
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
		if one, pos, err = readFrame(payload, pos, uint32(nb.nPoints), limitWidth(limit), limit); err == nil {
			for i := range nb.frames {
				nb.frames[i] = blockFrame{forFrame: one, span: limit - one.base}
			}
			err = nb.layRun(payload, pos<<3)
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
			nb.widths(info)
		}
	}
	return nil
}

func decodeQuantFOR(payload []byte, nb *nodeBlocks,
	declaredBound, lodScale float64, info *SectionInfo) ([]float64, error) {

	if len(payload) < quantFORHeaderLen {
		return nil, fmt.Errorf("bat: quant-for section truncated: %d bytes, header needs %d", len(payload), quantFORHeaderLen)
	}
	vmin := math.Float64frombits(binary.LittleEndian.Uint64(payload))
	if math.IsNaN(vmin) || math.IsInf(vmin, 0) {
		return nil, fmt.Errorf("bat: quant-for section has invalid grid minimum %g", vmin)
	}
	// The grid steps come from the footer's bound: there is none to take
	// them from when the footer declares the attribute lossless.
	if declaredBound <= 0 {
		return nil, fmt.Errorf("bat: quant-for section in attribute declared lossless (error-bound mismatch)")
	}
	if err := nb.layFramed(payload, quantFORHeaderLen, maxQuantIndex, info); err != nil {
		return nil, fmt.Errorf("bat: quant-for %w", err)
	}
	fineStep, lodStep := quantSteps(declaredBound, lodScale)
	out, err := nb.dequant(payload, vmin, fineStep, lodStep)
	if err != nil {
		return nil, fmt.Errorf("bat: quant-for %w", err)
	}
	return out, nil
}

// decodeKeyFOR decodes a key-for or sign-key-for section (codec) of an
// attribute of type typ. It is lossless, so it is valid whatever bound the
// footer declares: a lossless attribute's column, or a lossy one's that could
// not be quantized.
func decodeKeyFOR(codec uint8, payload []byte, nb *nodeBlocks, typ particles.AttrType, info *SectionInfo) ([]float64, error) {
	name := CodecName(codec)
	if len(payload) < keyFORHeaderLen {
		return nil, fmt.Errorf("bat: %s section truncated: no frame mode", name)
	}
	if err := nb.layFramed(payload, keyFORHeaderLen, keyLimit(typ), info); err != nil {
		return nil, fmt.Errorf("bat: %s %w", name, err)
	}
	out, err := nb.unkey(payload, fromKeys(codec, typ))
	if err != nil {
		return nil, fmt.Errorf("bat: %s %w", name, err)
	}
	return out, nil
}

// unkey runs the block loop over a key-for or sign-key-for section whose
// frames are laid: every offset becomes the float whose key is base + offset,
// under the section's inverse key map (fromKeys). A key past keyLimit(typ) is
// corrupt: the encoder never writes one.
func (nb *nodeBlocks) unkey(payload []byte, fromKeys keyDecoder) ([]float64, error) {
	out := make([]float64, nb.nPoints)
	err := nb.unpack(payload, func(ni, at int, offs []uint64) error {
		fr := &nb.frames[ni]
		if i := fromKeys(out[at:at+len(offs)], fr, offs); i < len(offs) {
			return fmt.Errorf("key offset %#x overflows its frame (base %#x, at most %#x)", offs[i], fr.base, fr.span)
		}
		return nil
	})
	return out, err
}

// A keyDecoder sets dst[i] to the float whose key is fr.base + offs[i], for
// every i up to the first offset past fr.span or key past the key limit,
// whose index it returns (len(offs) when there is none).
type keyDecoder func(dst []float64, fr *blockFrame, offs []uint64) int

// fromKeys returns the inverse key map of a codec (key-for or sign-key-for)
// for an attribute of type typ. The decoder picks it once per section: each
// of the four is a loop of its own, with no per-value branch on the map.
func fromKeys(codec uint8, typ particles.AttrType) keyDecoder {
	switch {
	case typ == particles.Float32 && codec == codecSignKeyFOR:
		return func(dst []float64, fr *blockFrame, offs []uint64) int {
			dst = dst[:len(offs)]
			for i, off := range offs {
				k := fr.base + off
				if off > fr.span || k > math.MaxUint32 {
					return i
				}
				dst[i] = float64(math.Float32frombits(signFromKey32(uint32(k))))
			}
			return len(offs)
		}
	case typ == particles.Float32:
		return func(dst []float64, fr *blockFrame, offs []uint64) int {
			dst = dst[:len(offs)]
			for i, off := range offs {
				k := fr.base + off
				if off > fr.span || k > math.MaxUint32 {
					return i
				}
				dst[i] = float64(math.Float32frombits(f32FromKey(uint32(k))))
			}
			return len(offs)
		}
	case codec == codecSignKeyFOR:
		return func(dst []float64, fr *blockFrame, offs []uint64) int {
			dst = dst[:len(offs)]
			for i, off := range offs {
				if off > fr.span {
					return i
				}
				dst[i] = math.Float64frombits(signFromKey64(fr.base + off))
			}
			return len(offs)
		}
	}
	return func(dst []float64, fr *blockFrame, offs []uint64) int {
		dst = dst[:len(offs)]
		for i, off := range offs {
			if off > fr.span {
				return i
			}
			dst[i] = math.Float64frombits(f64FromKey(fr.base + off))
		}
		return len(offs)
	}
}

func decodeDelta(payload []byte, nPoints int) ([]float64, error) {
	out := make([]float64, nPoints)
	prev := int64(0)
	pos := 0
	for i := range out {
		u, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return nil, fmt.Errorf("bat: delta section truncated at value %d of %d", i, nPoints)
		}
		pos += n
		// Undo zigzag. The shifted magnitude is below 1<<63, so the
		// narrowing cannot wrap.
		half := u >> 1
		if half > math.MaxInt64 {
			return nil, fmt.Errorf("bat: delta magnitude overflows")
		}
		d := int64(half)
		if u&1 == 1 {
			d = ^d
		}
		prev += d
		if prev > integralMagnitude || prev < -integralMagnitude {
			return nil, fmt.Errorf("bat: delta value %d exceeds integral range", prev)
		}
		out[i] = float64(prev)
	}
	if pos != len(payload) {
		return nil, fmt.Errorf("bat: delta section has %d trailing bytes", len(payload)-pos)
	}
	return out, nil
}

// --- position codec ---

// f32Key maps a float32 bit pattern onto the uint32 whose unsigned order is
// the float's numeric order (negatives complemented, positives get the top
// bit), so a block of nearby coordinates — mixed signs included — spans a
// small key range. It is a bijection on all 2^32 patterns.
func f32Key(b uint32) uint32 { return b ^ (uint32(int32(b)>>31) | 1<<31) }

// f32FromKey inverts f32Key.
func f32FromKey(k uint32) uint32 { return k ^ ((k>>31 - 1) | 1<<31) }

// f64Key is f32Key's float64 twin: the uint64 whose unsigned order is the
// numeric order of the float64 with bit pattern b, a bijection on all 2^64
// patterns (the key of a key-for attribute section).
func f64Key(b uint64) uint64 { return b ^ (-(b >> 63) | 1<<63) }

// f64FromKey inverts f64Key.
func f64FromKey(k uint64) uint64 { return k ^ ((k>>63 - 1) | 1<<63) }

// signKey32 maps a float32 bit pattern onto the uint32 that holds its
// magnitude bits above its sign bit: the pattern rotated left by one. A value
// and its negation get neighbouring keys, so a block of values of both signs
// and similar magnitude spans a small key range. It is a bijection on all
// 2^32 patterns (the key of a sign-key-for section of a Float32 attribute).
func signKey32(b uint32) uint32 { return bits.RotateLeft32(b, 1) }

// signFromKey32 inverts signKey32.
func signFromKey32(k uint32) uint32 { return bits.RotateLeft32(k, -1) }

// signKey64 is signKey32's float64 twin.
func signKey64(b uint64) uint64 { return bits.RotateLeft64(b, 1) }

// signFromKey64 inverts signKey64.
func signFromKey64(k uint64) uint64 { return bits.RotateLeft64(k, -1) }

// keyOf is the key of a coordinate.
func keyOf(v float32) uint32 { return f32Key(math.Float32bits(v)) }

// The keys of -Inf and +Inf: every key between them is a number, every key
// outside a NaN, which no k-d cell orders.
const keyNegInf, keyPosInf uint32 = 0x007fffff, 0xff800000

// forFrameLen is a frame stored as base u32, width u8: ahead of each column of
// a packed node table.
const forFrameLen = 4 + 1

// keyCell is a treelet's extent on one axis in key space: the smallest and
// the largest key among its coordinates that are numbers, lo > hi when it has
// none. The encoder takes it from the keys it packs, the header stores it as
// the treelet's bounds, and the decoder reads it back from there.
type keyCell struct{ lo, hi uint32 }

// cellBounds is the bounding box compact stores for a treelet of these
// cells: exact, a float32 widens to float64 and back unchanged.
func cellBounds(cells [3]keyCell) geom.Box {
	var lo, hi [3]float64
	for ax, c := range cells {
		lo[ax], hi[ax] = math.Inf(1), math.Inf(-1) // geom.EmptyBox
		if c.lo <= c.hi {
			lo[ax] = float64(math.Float32frombits(f32FromKey(c.lo)))
			hi[ax] = float64(math.Float32frombits(f32FromKey(c.hi)))
		}
	}
	return geom.NewBox(geom.V3(lo[0], lo[1], lo[2]), geom.V3(hi[0], hi[1], hi[2]))
}

// boundsCell inverts cellBounds on one axis.
func boundsCell(b geom.Box, ax geom.Axis) keyCell {
	return keyCell{keyOf(float32(b.Lower.Component(ax))), keyOf(float32(b.Upper.Component(ax)))}
}

// nodeLink returns node i's axis (leafAxis for a leaf), split plane, children
// and particle count: what kdCells needs of a node table, the builder's or
// the reader's.
type nodeLink func(i int) (axis uint8, split float64, left, right int32, count uint32)

// cellFrames derives every node's frame on axis ax from the treelet's cell
// there and the split planes of the node table: the rule of
// codecSortedCellFOR in the comment at the top of this file, in one pass in
// node order. The pass needs what a breadth-first table guarantees — every
// node but the root hangs under exactly one earlier node — and what the
// builder guarantees — an inner node's split plane is a float32 inside the
// node's own cell — and reports a table or bounds that break either.
func cellFrames(frames []blockFrame, link nodeLink, root keyCell, ax geom.Axis) error {
	if len(frames) == 0 {
		return nil
	}
	if root.lo > root.hi {
		return fmt.Errorf("treelet bounds are empty on axis %d", ax)
	}
	const unset = 0xff // no frame is this wide
	for i := range frames {
		frames[i].width = unset
	}
	setCell := func(i int, lo, hi uint64) {
		frames[i] = blockFrame{forFrame: forFrame{base: lo, width: uint8(bits.Len64(hi - lo))}, span: hi - lo}
	}
	setCell(0, uint64(root.lo), uint64(root.hi))
	for i := range frames {
		if frames[i].width == unset {
			return fmt.Errorf("node %d hangs under no earlier node", i)
		}
		axis, split, left, right, _ := link(i)
		if axis == uint8(leafAxis) {
			continue
		}
		for _, c := range [2]int32{left, right} {
			if int(c) <= i || int(c) >= len(frames) || frames[c].width != unset || left == right {
				return fmt.Errorf("node %d has child %d: not a breadth-first tree of %d nodes", i, c, len(frames))
			}
		}
		lo, hi := frames[i].base, frames[i].base+frames[i].span
		if axis != uint8(ax) {
			setCell(int(left), lo, hi)
			setCell(int(right), lo, hi)
			continue
		}
		s32 := float32(split)
		s := uint64(keyOf(s32))
		if float64(s32) != split || s < lo || s > hi {
			return fmt.Errorf("node %d splits axis %d at %v, outside its cell", i, ax, split)
		}
		setCell(int(left), lo, s)
		setCell(int(right), s, hi)
	}
	return nil
}

// kdCells is a treelet's k-d cells as the frames of its three position
// sections: frames[ax] holds every node's cell on axis ax (cellFrames), or
// errs[ax] says why the axis has none (a treelet with no number on it, or a
// node table or bounds that break the cell rule). axes holds every node's
// sort axis: the axis on which its cell is widest, ties to the lowest, an
// axis without cells counting as width 0 on every node. On its sort axis a
// node's frame is already its Elias–Fano block where efFrame chooses one. The
// builder derives the cells once per treelet to sort its nodes and encode its
// positions, a reader once per treelet load to decode them.
type kdCells struct {
	frames [3][]blockFrame
	errs   [3]error
	axes   []uint8
}

// derive fills kd for the n nodes of link under the treelet's cells, reusing
// kd's slices where they are large enough.
func (kd *kdCells) derive(n int, link nodeLink, cells [3]keyCell) {
	// While the axes are compared, axes[i] holds the widest width so far
	// above the two bits of its axis: a cell frame is at most 32 bits wide.
	kd.axes = slices.Grow(kd.axes[:0], n)[:n]
	clear(kd.axes)
	for ax := range cells {
		frames := slices.Grow(kd.frames[ax][:0], n)[:n]
		kd.frames[ax] = frames
		if kd.errs[ax] = cellFrames(frames, link, cells[ax], geom.Axis(ax)); kd.errs[ax] != nil {
			continue
		}
		for i := range kd.axes {
			if w := frames[i].width; w > kd.axes[i]>>2 {
				kd.axes[i] = w<<2 | uint8(ax)
			}
		}
	}
	for i := range kd.axes {
		kd.axes[i] &= 3
		if sa := kd.axes[i]; kd.errs[sa] == nil {
			_, _, _, _, count := link(i)
			efFrame(&kd.frames[sa][i], count)
		}
	}
}

// link is the builder's node table as kdCells reads it.
func (t *treelet) link(i int) (uint8, float64, int32, int32, uint32) {
	n := &t.nodes[i]
	return uint8(n.axis), n.pos, n.left, n.right, n.count
}

// link is the reader's node table as kdCells reads it.
func (nb *nodeBlocks) link(i int) (uint8, float64, int32, int32, uint32) {
	n := &nb.nodes[i]
	return n.axis, n.pos, n.left, n.right, n.count
}

// kdCells derives the k-d cells of the node table under bounds, the
// treelet's bounds from its shallow leaf record.
func (nb *nodeBlocks) kdCells(bounds geom.Box) *kdCells {
	var cells [3]keyCell
	for ax := range cells {
		cells[ax] = boundsCell(bounds, geom.Axis(ax))
	}
	kd := &kdCells{}
	kd.derive(len(nb.nodes), nb.link, cells)
	return kd
}

// encodeTreeletPositions encodes the three position columns of a treelet
// that sortNodes has sorted, next to encodeTreeletAttrs in the fused treelet
// worker, from the keys sortNodes left in the arena and under the k-d cells
// it derived there.
func encodeTreeletPositions(t *treelet, a *buildArena) error {
	for ax := range t.posEnc {
		keys := a.keys[ax]
		if len(keys) != len(t.order) {
			return fmt.Errorf("bat: %d position keys for a treelet of %d particles", len(keys), len(t.order))
		}
		var err error
		if t.posEnc[ax], err = encodeCellFOR(keys, t, &a.kd, geom.Axis(ax)); err != nil {
			return err
		}
	}
	return nil
}

// encodeCellFOR encodes one position column of a treelet — keys, in layout
// order — as a codecSortedCellFOR stream: the blocks only, one per node in
// node order, each under the frame of the node's k-d cell on axis ax in kd,
// as Elias–Fano offsets where kd says so. It returns a codecRaw section when
// the axis has no cells, a key lies outside its node's cell or the stream
// would not be smaller than the column's 4 bytes per value, and an error when
// a key that is a number lies outside the root's cell, the treelet's own,
// which was just taken from these keys. The stream is a pure function of the
// values, so builds stay byte-identical for any worker count.
func encodeCellFOR(keys []uint64, t *treelet, kd *kdCells, ax geom.Axis) (encodedAttr, error) {
	raw := encodedAttr{codec: codecRaw}
	if len(keys) == 0 || kd.errs[ax] != nil {
		return raw, nil
	}
	frames := kd.frames[ax]
	root := frames[0]
	totalBits := 0
	for i := range t.nodes {
		n, fr := &t.nodes[i], &frames[i]
		for _, k := range keys[n.start : n.start+n.count] {
			if k-fr.base <= fr.span { // below base wraps past any span
				continue
			}
			if numeric := k >= uint64(keyNegInf) && k <= uint64(keyPosInf); numeric && k-root.base > root.span {
				return raw, fmt.Errorf("bat: coordinate key %#x on axis %d lies outside the treelet bounds [%#x, %#x] scanned from the same keys", k, ax, root.base, root.base+root.span)
			}
			return raw, nil
		}
		totalBits += fr.bits(n.count)
	}
	size := (totalBits + 7) / 8
	if size >= 4*len(keys) {
		return raw, nil
	}
	buf := make([]byte, size+packSlack)
	bit := 0
	for i := range t.nodes {
		n, fr := &t.nodes[i], &frames[i]
		if fr.ef {
			bit = packEF(buf, bit, keys[n.start:n.start+n.count], fr)
		} else {
			bit = packBits(buf, bit, keys[n.start:n.start+n.count], fr.forFrame)
		}
	}
	return encodedAttr{codec: codecSortedCellFOR, data: buf[:size]}, nil
}

// packEF writes vals — ascending, inside fr's cell — as the Elias–Fano block
// of fr from bit bit of buf on and returns the bit after it. The block's bits
// in buf are zero, and so are the packSlack bytes behind it: packBits stores
// zeros past the end of what it writes, and buf starts zeroed.
func packEF(buf []byte, bit int, vals []uint64, fr *blockFrame) int {
	if fr.low > 0 {
		mask := uint64(1)<<fr.low - 1
		for j, v := range vals {
			b := bit + j*int(fr.low)
			p := b >> 3
			binary.LittleEndian.PutUint64(buf[p:], binary.LittleEndian.Uint64(buf[p:])|((v-fr.base)&mask)<<(b&7))
		}
	}
	high := bit + len(vals)*int(fr.low)
	for j, v := range vals {
		b := uint64(high+j) + (v-fr.base)>>fr.low
		buf[b>>3] |= 1 << (b & 7)
	}
	return bit + efBits(len(vals), fr.span, fr.low)
}

// decodePosSection decodes the section of the position column on axis ax
// into a fresh float32 column. A sorted-cell-for section takes its frames
// from kd, the k-d cells of nb's node table under the treelet's bounds.
func decodePosSection(codec uint8, payload []byte, nb *nodeBlocks, kd *kdCells, ax geom.Axis, info *SectionInfo) ([]float32, error) {
	if codec == codecRaw {
		return decodeRawF32(payload, nb.nPoints)
	}
	if codec != codecSortedCellFOR {
		return nil, fmt.Errorf("bat: unknown position codec id %d", codec)
	}
	// The section's blocks are laid over kd's frames themselves: a treelet
	// decodes each axis once.
	cells := &nodeBlocks{nodes: nb.nodes, nPoints: nb.nPoints, frames: kd.frames[ax]}
	err := kd.errs[ax]
	if err == nil {
		err = cells.layRun(payload, 0)
	}
	if err != nil {
		return nil, fmt.Errorf("bat: %s position stream: %w", CodecName(codec), err)
	}
	if info != nil {
		for i := range cells.frames {
			if fr := &cells.frames[i]; fr.ef {
				info.EF.Nodes++
				info.EF.Particles += int(nb.nodes[i].count)
				info.EF.Bits += fr.bits(nb.nodes[i].count)
			}
		}
		cells.widths(info)
	}
	out := make([]float32, nb.nPoints)
	err = cells.unpack(payload, func(ni, at int, offs []uint64) error {
		fr := &cells.frames[ni]
		dst := out[at : at+len(offs)]
		for i, off := range offs {
			k := fr.base + off
			if off > fr.span || k > math.MaxUint32 {
				return fmt.Errorf("particle outside its k-d cell (offset %#x from base %#x, at most %#x)", off, fr.base, fr.span)
			}
			dst[i] = math.Float32frombits(f32FromKey(uint32(k)))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("bat: position %w", err)
	}
	return out, nil
}

// decodeRawF32 decodes a raw little-endian float32 column.
func decodeRawF32(payload []byte, nPoints int) ([]float32, error) {
	if len(payload) != 4*nPoints {
		return nil, fmt.Errorf("bat: raw position column holds %d bytes, want %d", len(payload), 4*nPoints)
	}
	out := make([]float32, nPoints)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:]))
	}
	return out, nil
}

// --- node table ---

// A treelet's node table stores its nodes as 3 + nA columns in node order,
// each one block behind its own frame (base u32, width u8, offsets): axis,
// count, the f32Key of every inner node's split plane, then each attribute's
// bitmap IDs. reorderBFS makes the rest of a node
// a function of its index — the k-th inner node's children are nodes 2k+1 and
// 2k+2, a node's particles start where the previous node's end — and
// medianPartition only ever splits at a particle coordinate, a float32.
const (
	nodeColAxis = iota
	nodeColCount
	nodeColSplit
	nodeColIDs // + attribute index
)

// nodeColumnName names column col of a packed node table (batinspect).
func nodeColumnName(col int, schema particles.Schema) string {
	if col < nodeColIDs {
		return [...]string{"axis", "count", "split"}[col]
	}
	return "ids " + schema.Attrs[col-nodeColIDs].Name
}

// nodeColumnMaxWidth is the widest block column col of a packed node table
// may hold: an axis is 0..3, a count and a split key are 32 bits, a bitmap ID
// is 16.
func nodeColumnMaxWidth(col int) uint8 {
	switch col {
	case nodeColAxis:
		return 2
	case nodeColCount, nodeColSplit:
		return 32
	}
	return 16
}

// nodeColumn gathers column col of t's node table into vals' backing array.
// ids holds the nodes' interned bitmap IDs, nA per node.
func nodeColumn(vals []uint64, t *treelet, ids []bitmap.ID, nA, col int) ([]uint64, error) {
	vals = vals[:0]
	for i := range t.nodes {
		n := &t.nodes[i]
		switch col {
		case nodeColAxis:
			vals = append(vals, uint64(n.axis))
		case nodeColCount:
			vals = append(vals, uint64(n.count))
		case nodeColSplit:
			if n.axis == leafAxis {
				continue
			}
			pos := float32(n.pos)
			if float64(pos) != n.pos {
				return nil, fmt.Errorf("bat: node %d splits at %v, which is not a float32: the packed node table cannot hold it", i, n.pos)
			}
			vals = append(vals, uint64(f32Key(math.Float32bits(pos))))
		default:
			vals = append(vals, uint64(ids[i*nA+col-nodeColIDs]))
		}
	}
	return vals, nil
}

// packNodeTable writes t's packed node table at dst and returns its byte
// length; a nil dst only sizes it, so the size pass and the packer cannot
// disagree. dst needs packSlack bytes past the table. vals is scratch; with
// room for a value per node no column reallocates it.
func packNodeTable(dst []byte, t *treelet, ids []bitmap.ID, nA int, vals []uint64) (int, error) {
	pos := 0
	for col := 0; col < nodeColIDs+nA; col++ {
		vals, err := nodeColumn(vals, t, ids, nA, col)
		if err != nil {
			return 0, err
		}
		fr := frameOf(vals)
		if dst == nil {
			pos += forFrameLen + packedLen(len(vals), fr.width)
			continue
		}
		binary.LittleEndian.PutUint64(dst[pos:], fr.base) // 32 bits at most: the upper four bytes are zero, and overwritten next
		dst[pos+4] = fr.width
		pos = packBlock(dst, pos+forFrameLen, vals, fr)
	}
	return pos, nil
}

// unpackNodeTable reads the packed node table of a treelet of nNodes nodes,
// nPoints points and nA attributes from src, which runs on to the treelet's
// end, and returns the nodes and the table's byte length. A table has no
// field for a child index or a range start, so it cannot say that a node has
// two parents, a child out of range or a particle range that overlaps
// another's; what it can say wrong — a node no parent reaches, counts that do
// not add up, values past a column's limit, columns cut short — is rejected
// here; whether the bitmap IDs resolve in the file's dictionary is the
// caller's to check. info, when non-nil, receives the column sizes.
func unpackNodeTable(src []byte, nNodes, nPoints uint32, nA int, info *NodeTableInfo) ([]diskNode, int, error) {
	// Bound the allocations by the section before making them. Every column
	// costs its frame, and a tree of more than one node has both inner nodes
	// and leaves, so its axis column spends at least a bit a node; the other
	// columns may all be of width zero.
	nCols := nodeColIDs + nA
	if nCols*forFrameLen > len(src) {
		return nil, 0, fmt.Errorf("node table truncated: %d column frames need %d bytes, %d remain", nCols, nCols*forFrameLen, len(src))
	}
	if nNodes > math.MaxInt32 || uint64(nNodes) > 8*uint64(len(src)) {
		return nil, 0, fmt.Errorf("node count %d exceeds what a table of %d bytes can hold", nNodes, len(src))
	}
	nodes := make([]diskNode, nNodes)
	idBacking := make([]bitmap.ID, int(nNodes)*nA)
	for i := range nodes {
		nodes[i].ids = idBacking[i*nA : (i+1)*nA : (i+1)*nA]
	}
	vals := make([]uint64, nNodes)
	inner := uint32(0)
	pos := 0
	for col := 0; col < nCols; col++ {
		n := nNodes
		if col == nodeColSplit {
			n = inner
		}
		if len(src)-pos < forFrameLen {
			return nil, 0, fmt.Errorf("node table truncated at column %d of %d", col, nCols)
		}
		fr := forFrame{base: uint64(binary.LittleEndian.Uint32(src[pos:])), width: src[pos+4]}
		colStart := pos
		pos += forFrameLen
		if err := checkBlock(len(src)-pos, n, fr.width, nodeColumnMaxWidth(col)); err != nil {
			return nil, 0, fmt.Errorf("node table column %d: %w", col, err)
		}
		vals := vals[:n]
		unpackBits(vals, src[pos:], 0, fr.width)
		pos += packedLen(int(n), fr.width)
		for i := range vals {
			vals[i] += fr.base
		}
		if info != nil {
			info.Columns = append(info.Columns, NodeColumnInfo{Bytes: pos - colStart, Width: fr.width})
		}
		switch col {
		case nodeColAxis:
			// The k-th inner node in breadth-first order is reached before its
			// children 2k+1 and 2k+2, and both exist.
			for i, v := range vals {
				if v > uint64(leafAxis) {
					return nil, 0, fmt.Errorf("node %d has axis %d", i, v)
				}
				nodes[i].axis = uint8(v)
				if v == uint64(leafAxis) {
					continue
				}
				if uint32(i) > 2*inner || 2*uint64(inner)+2 >= uint64(nNodes) {
					return nil, 0, fmt.Errorf("node %d of %d is inner node number %d: no breadth-first tree has it there", i, nNodes, inner)
				}
				nodes[i].left, nodes[i].right = int32(2*inner+1), int32(2*inner+2)
				inner++
			}
			if nNodes > 0 && nNodes != 2*inner+1 {
				return nil, 0, fmt.Errorf("%d nodes with %d inner ones; a tree has 2 x inner + 1", nNodes, inner)
			}
		case nodeColCount:
			next := uint32(0)
			for i, v := range vals {
				if v > uint64(nPoints-next) {
					return nil, 0, fmt.Errorf("node %d holds %d particles, %d of %d remain", i, v, nPoints-next, nPoints)
				}
				nodes[i].start, nodes[i].count = next, uint32(v)
				next += uint32(v)
			}
			if next != nPoints {
				return nil, 0, fmt.Errorf("node particle counts add up to %d of %d points", next, nPoints)
			}
		case nodeColSplit:
			k := 0
			for i := range nodes {
				if nodes[i].axis == uint8(leafAxis) {
					continue
				}
				key := vals[k]
				if key > math.MaxUint32 {
					return nil, 0, fmt.Errorf("node %d split key %#x overflows its frame of reference (base %#x)", i, key, fr.base)
				}
				nodes[i].pos = float64(math.Float32frombits(f32FromKey(uint32(key))))
				k++
			}
		default:
			for i, v := range vals {
				if v > math.MaxUint16 {
					return nil, 0, fmt.Errorf("node %d bitmap ID %#x overflows 16 bits (base %#x)", i, v, fr.base)
				}
				idBacking[i*nA+col-nodeColIDs] = bitmap.ID(v)
			}
		}
	}
	return nodes, pos, nil
}
