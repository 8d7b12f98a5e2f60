package bat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"libbat/internal/geom"
)

// --- position codec ---
//
// codecSortedCellFOR (8) stores position columns losslessly. Each float32 is
// mapped through f32Key, the order-preserving bijection of float32 bit
// patterns onto uint32 (±0, denormals, ±Inf and NaN payloads round-trip),
// and the payload is only the blocks, bit-contiguous in node order, padded
// with zero bits to a byte. The frames are the nodes' k-d cells, which the
// file already stores: the root's cell on an axis is the treelet's cell in
// its leaf record, [key(lo), key(hi)] of its coordinates, and an inner node
// that splits the axis at s hands [key(lo), key(s)] to its left child and
// [key(s), key(hi)] to its right (the builder sends coordinates below s left,
// and s is one of them); any other node hands its cell down unchanged.
//
// A node's particles are a set — no query, LOD window or route depends on
// their order inside a node — so the builder sorts every node's range by key
// along its sort axis, the axis of its widest cell (kdCells.sortAxis). There
// its n offsets are non-decreasing in [0, span], and its block is Elias–Fano
// offsets wherever that is fewer bits than n·width:
//
//	L = ⌊log2((span+1)/n)⌋, 0 when span+1 < n
//	n·L bits: every offset's low L bits, in order
//	n + (span>>L) + 1 bits: offset j's high part h_j as a one at bit
//	  h_j + j, every other bit zero
//
// Every other block stores key - key(lo_i) in bits.Len(key(hi_i) - key(lo_i))
// bits. n comes from the node table and span from the cells, so nothing is
// stored per node and every block's bit length is a prefix sum over the node
// table. An offset past its cell is a particle where no traversal would look
// for it, and a high part without exactly n ones is corrupt. The encoder
// stores a column as codecRaw when a key escapes its cell (NaN coordinates;
// -0 and +0 on either side of a split at zero) or the stream would not be
// smaller than the raw f32 bytes.

// f32Key maps a float32 bit pattern onto the uint32 whose unsigned order is
// the float's numeric order (negatives complemented, positives get the top
// bit), so a block of nearby coordinates — mixed signs included — spans a
// small key range. It is a bijection on all 2^32 patterns.
func f32Key(b uint32) uint32 { return b ^ (uint32(int32(b)>>31) | 1<<31) }

// f32FromKey inverts f32Key.
func f32FromKey(k uint32) uint32 { return k ^ ((k>>31 - 1) | 1<<31) }

// keyOf is the key of a coordinate.
func keyOf(v float32) uint32 { return f32Key(math.Float32bits(v)) }

// The keys of -Inf and +Inf: every key between them is a number, every key
// outside a NaN, which no k-d cell orders.
const keyNegInf, keyPosInf uint32 = 0x007fffff, 0xff800000

// keyCell is a treelet's extent on one axis in key space: the smallest and
// the largest key among its coordinates that are numbers, lo > hi when it has
// none. The encoder takes it from the keys it packs, the leaf record stores
// it, and the decoder reads it back from there.
type keyCell struct{ lo, hi uint32 }

// cellBounds is the bounding box of a treelet of these cells: exact, a
// float32 widens to float64 unchanged.
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

// cellFrames derives every node's frame on axis ax from the treelet's cell
// there and the split planes of nodes: the rule of codecSortedCellFOR in the
// comment at the top of this file, in one pass in node order. The pass needs
// what a breadth-first table guarantees — every node but the root hangs
// under exactly one earlier node — and what the builder guarantees — an
// inner node's split plane is a number inside the node's own cell — and
// reports a table or bounds that break either.
func cellFrames(frames []blockFrame, nodes []node, root keyCell, ax geom.Axis) error {
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
		n := &nodes[i]
		if n.axis == leafAxis {
			continue
		}
		for _, c := range [2]int32{n.left, n.right} {
			if int(c) <= i || int(c) >= len(frames) || frames[c].width != unset || n.left == n.right {
				return fmt.Errorf("node %d has child %d: not a breadth-first tree of %d nodes", i, c, len(frames))
			}
		}
		lo, hi := frames[i].base, frames[i].base+frames[i].span
		if n.axis != uint8(ax) {
			setCell(int(n.left), lo, hi)
			setCell(int(n.right), lo, hi)
			continue
		}
		s := uint64(keyOf(n.split))
		if n.split != n.split || s < lo || s > hi {
			return fmt.Errorf("node %d splits axis %d at %v, outside its cell", i, ax, n.split)
		}
		setCell(int(n.left), lo, s)
		setCell(int(n.right), s, hi)
	}
	return nil
}

// kdCells is a treelet's k-d cells as the frames of its three position
// sections: frames[ax] holds every node's cell on axis ax (cellFrames), or
// errs[ax] says why the axis has none (a treelet with no number on it, or a
// node table or bounds that break the cell rule). On its sort axis
// (sortAxis) a node's frame is already its Elias–Fano block where efFrame
// chooses one. The builder derives the cells into its arena, once per
// treelet, to sort its nodes and encode its positions; a reader into its
// nodeBlocks' frame slab, once per load, to decode them.
type kdCells struct {
	frames [3][]blockFrame
	errs   [3]error
}

// derive fills kd for nodes under the treelet's cells, reusing kd's frames
// where they are large enough.
func (kd *kdCells) derive(nodes []node, cells [3]keyCell) {
	n := len(nodes)
	for ax := range cells {
		kd.frames[ax] = slices.Grow(kd.frames[ax][:0], n)[:n]
		kd.errs[ax] = cellFrames(kd.frames[ax], nodes, cells[ax], geom.Axis(ax))
	}
	for i := range nodes {
		if sa := kd.sortAxis(i); kd.errs[sa] == nil {
			efFrame(&kd.frames[sa][i], nodes[i].count)
		}
	}
}

// sortAxis is node i's sort axis: the axis on which its cell is widest, ties
// to the lowest, an axis without cells counting as width 0 — axis 0 when no
// cell is wider than 0.
func (kd *kdCells) sortAxis(i int) int {
	sa, w := 0, uint8(0)
	for ax := range kd.frames {
		if kd.errs[ax] == nil && kd.frames[ax][i].width > w {
			sa, w = ax, kd.frames[ax][i].width
		}
	}
	return sa
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

// decodePosSection decodes the section of the position column on axis ax into
// dst. A sorted-cell-for section lays its blocks over nb's k-d cells
// themselves.
func decodePosSection(dst []float32, codec uint8, payload []byte, nb *nodeBlocks, ax geom.Axis, info *SectionInfo) error {
	if codec == codecRaw {
		return decodeRawF32(dst, payload)
	}
	if codec != codecSortedCellFOR {
		return fmt.Errorf("bat: unknown position codec id %d", codec)
	}
	frames, err := nb.kd.frames[ax], nb.kd.errs[ax]
	if err == nil {
		err = nb.layRun(frames, payload, 0)
	}
	if err != nil {
		return fmt.Errorf("bat: %s position stream: %w", CodecName(codec), err)
	}
	if info != nil {
		for i := range frames {
			if fr := &frames[i]; fr.ef {
				info.EF.Nodes++
				info.EF.Particles += int(nb.nodes[i].count)
				info.EF.Bits += fr.bits(nb.nodes[i].count)
			}
		}
		info.addWidths(frames)
	}
	err = nb.unpack(frames, payload, func(ni, at int, offs []uint64) error {
		fr := &frames[ni]
		dst := dst[at : at+len(offs)]
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
		return fmt.Errorf("bat: position %w", err)
	}
	return nil
}

// decodeRawF32 decodes a raw little-endian float32 column into dst.
func decodeRawF32(dst []float32, payload []byte) error {
	if len(payload) != 4*len(dst) {
		return fmt.Errorf("bat: raw position column holds %d bytes, want %d", len(payload), 4*len(dst))
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:]))
	}
	return nil
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
