// Compression codecs for version-3 treelet sections.
//
// A v3 treelet stores each attribute column — and, when the header's
// flagPackedPositions is set, each of the X, Y, Z columns ahead of them — as
// an independent section:
//
//	codec u8, encodedLen u32, payload [encodedLen]byte
//
// so random access stays section-granular — a reader decodes exactly the
// treelets a query touches, nothing else. Every packed column — position keys
// and quantized attribute indices alike — is a run of frame-of-reference
// blocks over the treelet's node particle ranges, written by one pack loop
// (packBlock) and read by one unpack loop (unpackBits). reorderBFS lays the node
// ranges out back to back in node order, and the decoder knows them from the
// node table it parsed just before, so no block index is stored. When the
// header's flagPackedNodes is set that node table is itself a run of the same
// blocks, one per column (see "node table" below). The codecs:
//
//	codecRaw      (0): the version-2 byte layout (f64 or f32 per the schema
//	                  type). Always valid; the fallback when nothing smaller
//	                  can honor the attribute's error bound.
//	codecQuant    (1): read only — what writers before codecQuantFOR
//	                  emitted for lossy attributes. The same grid as
//	                  codecQuantFOR with the steps and two bit widths (leaf
//	                  ranges, LOD ranges) stored in a 26-byte header and the
//	                  indices packed back to back from zero.
//	codecDelta    (2): lossless delta + zigzag + varint for integral-valued
//	                  columns (particle IDs, type tags). Chosen only when
//	                  every value is a small-magnitude integer and the
//	                  stream actually shrinks.
//	codecFOR      (3): lossless, position columns only. Each float32 is
//	                  mapped through f32Key, the order-preserving bijection
//	                  of float32 bit patterns onto uint32 (every bit pattern
//	                  round-trips: ±0, denormals, ±Inf, NaN payloads); a k-d
//	                  leaf's particles and an inner node's LOD samples are
//	                  spatial neighbours, so their keys share high bits. Per
//	                  node range:
//	                    base u32   smallest key of the block
//	                    width u8   bits of the largest (key - base), 0..32
//	                    ceil(count*width/8) bytes of (key - base), LSB-first
//	                  A column whose stream would not be smaller than its raw
//	                  f32 bytes is stored as codecRaw.
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
//	                               1: one frame per node range, in node order
//	                    per frame: base uvarint, width u8 (0..48), then
//	                               ceil(count*width/8) bytes of (index - base)
//	                  The encoder sizes both modes and keeps the shorter
//	                  stream: spatially coherent columns shrink under their
//	                  nodes' own frames, noise keeps the one frame and pays no
//	                  per-node headers.
//
// The encoder guarantees |decoded − stored| ≤ bound for every value, where
// "stored" is the value the lossless layout would keep (Float32 attributes
// are first rounded to float32, exactly as codecRaw stores them). The
// guarantee is enforced value-by-value at encode time — after rounding to
// the grid the reconstruction is checked and the grid index nudged by one
// when floating-point rounding pushed it over — so no combination of
// magnitudes and bounds can break it; sections where even that fails (e.g.
// bound far below one ulp) fall back to codecRaw. Every choice is a pure
// function of the input values, keeping builds byte-deterministic across
// worker counts.
package bat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"libbat/internal/bitmap"
	"libbat/internal/particles"
)

// Codec identifiers stored in v3 section headers and the footer. The footer
// declares an attribute's codec class only — codecQuant for every lossy
// attribute, whichever of the two quant streams its sections hold, codecDelta
// for a lossless one — so codecFOR and codecQuantFOR never appear there.
const (
	codecRaw      uint8 = 0
	codecQuant    uint8 = 1
	codecDelta    uint8 = 2
	codecFOR      uint8 = 3
	codecQuantFOR uint8 = 4
)

// CodecName returns the human-readable name of a codec id (batinspect).
func CodecName(c uint8) string {
	switch c {
	case codecRaw:
		return "raw"
	case codecQuant:
		return "quant"
	case codecDelta:
		return "delta"
	case codecFOR:
		return "for"
	case codecQuantFOR:
		return "quant-for"
	}
	return fmt.Sprintf("unknown(%d)", c)
}

// maxQuantBits caps the packed bit width and the grid indices themselves:
// they stay well inside float64's 53-bit integer range, and a width plus the
// packer's 7-bit carry stays inside a 64-bit accumulator.
const maxQuantBits = 48

// encodedAttr is one encoded section (an attribute, or a position column
// with typ Float32) for a treelet being built. data is nil for codecRaw:
// the compactor streams the v2 byte layout directly from the particle set
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

// frameOf returns the frame of blk (the zero frame for an empty block).
func frameOf(blk []uint64) forFrame {
	if len(blk) == 0 {
		return forFrame{}
	}
	lo, hi := blk[0], blk[0]
	for _, v := range blk[1:] {
		if v < lo {
			lo = v
		} else if v > hi {
			hi = v
		}
	}
	return forFrame{base: lo, width: uint8(bits.Len64(hi - lo))}
}

// nodeFrames computes one frame per node range of t over vals (the treelet's
// column in layout order) into the arena, and the total byte length of the
// blocks packed under them, frames excluded.
func nodeFrames(vals []uint64, t *treelet, a *buildArena) (frames []forFrame, blockBytes int) {
	frames = a.frames[:0]
	for i := range t.nodes {
		n := &t.nodes[i]
		fr := frameOf(vals[n.start : n.start+n.count])
		frames = append(frames, fr)
		blockBytes += packedLen(int(n.count), fr.width)
	}
	a.frames = frames[:0] // keep the (possibly grown) backing array
	return frames, blockBytes
}

// packedLen is the byte length of a block of n width-bit values.
func packedLen(n int, width uint8) int { return (n*int(width) + 7) / 8 }

// packSlack is how far past a stream's end packBlock may store: it drains its
// accumulator with eight-byte stores, whose upper bytes are zero or rewritten
// by the next store.
const packSlack = 8

// packBlock writes vals as fr.width-bit offsets from fr.base, LSB-first, at
// buf[pos:] and returns the position after the block's last (partial) byte.
// The accumulator is drained of its whole bytes whenever the next value would
// not fit, which leaves at most seven bits: any width up to maxQuantBits does.
func packBlock(buf []byte, pos int, vals []uint64, fr forFrame) int {
	var acc uint64
	var nb uint
	lim := 64 - uint(fr.width)
	for _, v := range vals {
		if nb > lim {
			binary.LittleEndian.PutUint64(buf[pos:], acc)
			pos += int(nb >> 3)
			acc >>= nb &^ 7
			nb &= 7
		}
		acc |= (v - fr.base) << nb
		nb += uint(fr.width)
	}
	binary.LittleEndian.PutUint64(buf[pos:], acc)
	return pos + int(nb+7)>>3
}

// unpackBits reads len(dst) width-bit values from src, LSB-first, starting
// bit bits in. The caller has checked that those bits are inside src, which
// runs on to the end of the section, so each value is one 64-bit load, shift
// and mask; only loads within eight bytes of the section's end take the
// copying path. Not inlined: inside a decoder the loop's five live values
// spill to the stack (positions 4.2 ns/value against 3.2 on its own).
//
//go:noinline
func unpackBits(dst []uint64, src []byte, bit int, width uint8) {
	mask := uint64(1)<<width - 1
	for i := range dst {
		p := uint(bit) >> 3
		var w uint64
		if p+8 <= uint(len(src)) {
			w = binary.LittleEndian.Uint64(src[p : p+8])
		} else {
			var tail [8]byte
			copy(tail[:], src[p:])
			w = binary.LittleEndian.Uint64(tail[:])
		}
		dst[i] = w >> (uint(bit) & 7) & mask
		bit += int(width)
	}
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

// checkBlockRanges validates what every packed column relies on: the node
// particle ranges, taken in node order, tile [0, nPoints) back to back. The
// builder lays them out that way; a file whose node table says otherwise has
// no block list to decode against.
func checkBlockRanges(nodes []diskNode, nPoints uint32) error {
	next := uint32(0)
	for i := range nodes {
		n := &nodes[i]
		if n.start != next || n.count > nPoints-next {
			return fmt.Errorf("bat: node %d particle range [%d,+%d) does not continue at %d of %d (packed sections need consecutive node ranges)",
				i, n.start, n.count, next, nPoints)
		}
		next += n.count
	}
	if next != nPoints {
		return fmt.Errorf("bat: node particle ranges cover %d of %d points", next, nPoints)
	}
	return nil
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
		return encodedAttr{codec: codecRaw}
	}
	if data, ok := encodeDelta(ref, rawLen); ok {
		return encodedAttr{codec: codecDelta, data: data}
	}
	return encodedAttr{codec: codecRaw}
}

// quantFORHeaderLen is the fixed prefix of a codecQuantFOR payload: grid
// minimum f64, mode u8.
const quantFORHeaderLen = 8 + 1

// The frame modes of a codecQuantFOR section.
const (
	quantOneFrame uint8 = 0
	quantPerNode  uint8 = 1
)

// quantSteps returns the grid steps of a lossy attribute's leaf and LOD
// ranges. Encoder and decoder both call it — one with the build's bound and
// scale, the other with the footer's copy of them — so a section stores no
// step.
func quantSteps(bound, lodScale float64) (fineStep, lodStep float64) {
	return 2 * bound, 2 * (bound * lodScale)
}

// uvarintLen is the encoded length of binary.PutUvarint(v).
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

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

	one := frameOf(qs)
	size := uvarintLen(one.base) + 1 + packedLen(len(qs), one.width)
	frames, perNode := nodeFrames(qs, t, a)
	perNode += len(frames)
	for _, fr := range frames {
		perNode += uvarintLen(fr.base)
	}
	mode := quantOneFrame
	if perNode < size {
		mode, size = quantPerNode, perNode
	}
	size += quantFORHeaderLen
	if size >= rawLen {
		return nil, false
	}

	out := make([]byte, size+packSlack)
	binary.LittleEndian.PutUint64(out, math.Float64bits(vmin))
	out[8] = mode
	pos := quantFORHeaderLen
	putFrame := func(fr forFrame) {
		pos += binary.PutUvarint(out[pos:], fr.base)
		out[pos] = fr.width
		pos++
	}
	if mode == quantOneFrame {
		putFrame(one)
		pos = packBlock(out, pos, qs, one)
	} else {
		for i, fr := range frames {
			n := &t.nodes[i]
			putFrame(fr)
			pos = packBlock(out, pos, qs[n.start:n.start+n.count], fr)
		}
	}
	if pos != size {
		return nil, false // defensive: the size pass and the packer must agree
	}
	return out[:size], true
}

// integralMagnitude is the largest magnitude codecDelta accepts: integers
// up to 2^52 survive float64 round-trips and int64 deltas without loss.
const integralMagnitude = 1 << 52

// encodeDelta encodes ref as zigzag-varint first differences when every
// value is an exactly representable integer and the stream shrinks.
func encodeDelta(ref []float64, rawLen int) ([]byte, bool) {
	for _, v := range ref {
		if v != math.Trunc(v) || math.IsNaN(v) || v > integralMagnitude || v < -integralMagnitude {
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

// decodeAttrSection decodes one v3 attribute section payload into a fresh
// []float64 column. nodes must have passed checkBlockRanges for nPoints.
// declaredBound/lodScale come from the file footer: a quant-for section takes
// its grid steps from them, and a quant section whose stored steps exceed
// them is corrupt (error-bound mismatch). info, when non-nil, receives the
// section's frame mode and block widths (batinspect).
func decodeAttrSection(codec uint8, payload []byte, nodes []diskNode, nPoints int,
	typ particles.AttrType, declaredBound, lodScale float64, info *SectionInfo) ([]float64, error) {

	switch codec {
	case codecRaw:
		return decodeRaw(payload, nPoints, typ)
	case codecQuant:
		return decodeQuant(payload, nodes, nPoints, declaredBound, lodScale, info)
	case codecDelta:
		return decodeDelta(payload, nPoints)
	case codecQuantFOR:
		return decodeQuantFOR(payload, nodes, nPoints, declaredBound, lodScale, info)
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

// dequantBlock reconstructs one run of grid indices — len(dst) values of
// fr.width bits starting bit bits into src, offsets from fr.base — as
// vmin + index·step. An index at or past 2^maxQuantBits is corrupt: the
// encoder never writes one.
func dequantBlock(dst []float64, src []byte, bit int, fr forFrame, vmin, step float64, q *unpackScratch) error {
	for len(dst) > 0 {
		n := min(len(dst), len(q))
		unpackBits(q[:n], src, bit, fr.width)
		for i, off := range q[:n] {
			idx := fr.base + off
			if idx>>maxQuantBits != 0 {
				return fmt.Errorf("grid index %#x overflows %d bits (base %#x)", idx, maxQuantBits, fr.base)
			}
			dst[i] = vmin + float64(idx)*step
		}
		dst = dst[n:]
		bit += n * int(fr.width)
	}
	return nil
}

// quantStep picks a node range's grid step: LOD samples of inner nodes use
// the coarser one.
func quantStep(n *diskNode, fineStep, lodStep float64) float64 {
	if n.axis != uint8(leafAxis) {
		return lodStep
	}
	return fineStep
}

func decodeQuantFOR(payload []byte, nodes []diskNode, nPoints int,
	declaredBound, lodScale float64, info *SectionInfo) ([]float64, error) {

	if len(payload) < quantFORHeaderLen {
		return nil, fmt.Errorf("bat: quant-for section truncated: %d bytes, header needs %d", len(payload), quantFORHeaderLen)
	}
	vmin := math.Float64frombits(binary.LittleEndian.Uint64(payload))
	mode := payload[8]
	if math.IsNaN(vmin) || math.IsInf(vmin, 0) {
		return nil, fmt.Errorf("bat: quant-for section has invalid grid minimum %g", vmin)
	}
	// The grid steps come from the footer's bound: there is none to take
	// them from when the footer declares the attribute lossless.
	if declaredBound <= 0 {
		return nil, fmt.Errorf("bat: quant-for section in attribute declared lossless (error-bound mismatch)")
	}
	if mode > quantPerNode {
		return nil, fmt.Errorf("bat: quant-for section has unknown frame mode %d", mode)
	}
	if info != nil {
		info.Mode = [...]string{"one-frame", "per-node"}[mode]
	}
	fineStep, lodStep := quantSteps(declaredBound, lodScale)
	out := make([]float64, nPoints)
	var q unpackScratch
	var fr forFrame
	bit := 8 * quantFORHeaderLen
	for i := range nodes {
		n := &nodes[i]
		if mode == quantPerNode || i == 0 {
			// A frame starts on the byte after the previous block.
			pos := (bit + 7) >> 3
			base, k := binary.Uvarint(payload[pos:])
			if k <= 0 || pos+k >= len(payload) {
				return nil, fmt.Errorf("bat: quant-for stream truncated at frame %d of %d", i, len(nodes))
			}
			if base>>maxQuantBits != 0 {
				return nil, fmt.Errorf("bat: quant-for frame %d base %#x overflows %d bits", i, base, maxQuantBits)
			}
			fr = forFrame{base: base, width: payload[pos+k]}
			pos += k + 1
			count := n.count
			if mode == quantOneFrame {
				count = uint32(nPoints)
			}
			if err := checkBlock(len(payload)-pos, count, fr.width, maxQuantBits); err != nil {
				return nil, fmt.Errorf("bat: quant-for block %d: %w", i, err)
			}
			if info != nil {
				info.Widths = append(info.Widths, fr.width)
			}
			bit = 8 * pos
		}
		if err := dequantBlock(out[n.start:n.start+n.count], payload, bit, fr, vmin, quantStep(n, fineStep, lodStep), &q); err != nil {
			return nil, fmt.Errorf("bat: quant-for block %d: %w", i, err)
		}
		bit += int(n.count) * int(fr.width)
	}
	if pos := (bit + 7) >> 3; pos != len(payload) {
		return nil, fmt.Errorf("bat: quant-for section has %d trailing bytes", len(payload)-pos)
	}
	return out, nil
}

// quantHeaderLen is the fixed prefix of a codecQuant payload: grid minimum
// f64, fine step f64, LOD step f64, fine bit width u8, LOD bit width u8.
const quantHeaderLen = 8 + 8 + 8 + 1 + 1

// decodeQuant reads the flat quant stream of earlier writers: every index is
// an offset from zero, leaf ranges at the section's fine width and step,
// inner-node ranges at its LOD width and step, packed back to back.
func decodeQuant(payload []byte, nodes []diskNode, nPoints int,
	declaredBound, lodScale float64, info *SectionInfo) ([]float64, error) {

	if len(payload) < quantHeaderLen {
		return nil, fmt.Errorf("bat: quant section truncated: %d bytes, header needs %d", len(payload), quantHeaderLen)
	}
	vmin := math.Float64frombits(binary.LittleEndian.Uint64(payload[0:]))
	fineStep := math.Float64frombits(binary.LittleEndian.Uint64(payload[8:]))
	lodStep := math.Float64frombits(binary.LittleEndian.Uint64(payload[16:]))
	fineBits := payload[24]
	lodBits := payload[25]
	if math.IsNaN(vmin) || math.IsInf(vmin, 0) ||
		!(fineStep > 0) || math.IsInf(fineStep, 0) ||
		!(lodStep > 0) || math.IsInf(lodStep, 0) {
		return nil, fmt.Errorf("bat: quant section has invalid grid (min %g, steps %g/%g)", vmin, fineStep, lodStep)
	}
	if fineBits > maxQuantBits || lodBits > maxQuantBits {
		return nil, fmt.Errorf("bat: quant section bit widths %d/%d exceed %d", fineBits, lodBits, maxQuantBits)
	}
	// The footer's declared bound is a format invariant: a section whose
	// grid is coarser than the declaration would silently exceed the error
	// the file promises. The 1e-9 slack only absorbs the f64 arithmetic
	// here; the encoder wrote steps of exactly 2·bound.
	if declaredBound <= 0 {
		return nil, fmt.Errorf("bat: quant section in attribute declared lossless (error-bound mismatch)")
	}
	if fineStep > 2*declaredBound*(1+1e-9) {
		return nil, fmt.Errorf("bat: quant fine step %g exceeds declared error bound %g (error-bound mismatch)", fineStep, declaredBound)
	}
	if lodStep > 2*declaredBound*lodScale*(1+1e-9) {
		return nil, fmt.Errorf("bat: quant LOD step %g exceeds declared error bound %g x scale %g (error-bound mismatch)", lodStep, declaredBound, lodScale)
	}
	if info != nil {
		info.Widths = []uint8{fineBits, lodBits}
	}
	width := func(n *diskNode) uint8 {
		if n.axis != uint8(leafAxis) {
			return lodBits
		}
		return fineBits
	}
	var totalBits uint64
	for i := range nodes {
		totalBits += uint64(nodes[i].count) * uint64(width(&nodes[i]))
	}
	if want := uint64(quantHeaderLen) + (totalBits+7)/8; uint64(len(payload)) != want {
		return nil, fmt.Errorf("bat: quant section holds %d bytes, bit widths require %d (truncated codec stream)", len(payload), want)
	}
	out := make([]float64, nPoints)
	var q unpackScratch
	bit := 8 * quantHeaderLen
	for i := range nodes {
		n := &nodes[i]
		fr := forFrame{width: width(n)}
		if err := dequantBlock(out[n.start:n.start+n.count], payload, bit, fr, vmin, quantStep(n, fineStep, lodStep), &q); err != nil {
			return nil, fmt.Errorf("bat: quant block %d: %w", i, err)
		}
		bit += int(n.count) * int(fr.width)
	}
	return out, nil
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

// forFrameLen is the per-block prefix of a codecFOR stream: base u32,
// width u8.
const forFrameLen = 4 + 1

// encodeTreeletPositions encodes the three position columns of a freshly
// built treelet, next to encodeTreeletAttrs in the fused treelet worker.
func encodeTreeletPositions(set *particles.Set, t *treelet, a *buildArena) {
	for ax, col := range [3][]float32{set.X, set.Y, set.Z} {
		t.posEnc[ax] = encodeFOR(col, t, a)
	}
}

// encodeFOR encodes one position column of a treelet as a codecFOR stream,
// one block per node in node order. It returns a codecRaw section when the
// stream would not be smaller than the column's 4 bytes per value. The
// stream is a pure function of the values, so builds stay byte-identical for
// any worker count.
func encodeFOR(col []float32, t *treelet, a *buildArena) encodedAttr {
	keys := a.qbuf[:0]
	for _, p := range t.order {
		keys = append(keys, uint64(f32Key(math.Float32bits(col[p]))))
	}
	a.qbuf = keys[:0] // keep the (possibly grown) backing array
	frames, size := nodeFrames(keys, t, a)
	size += forFrameLen * len(frames)
	if size >= 4*len(keys) {
		return encodedAttr{codec: codecRaw}
	}
	buf := make([]byte, size+packSlack)
	pos := 0
	for i, fr := range frames {
		n := &t.nodes[i]
		binary.LittleEndian.PutUint64(buf[pos:], fr.base) // a key: the upper four bytes are zero, and overwritten next
		buf[pos+4] = fr.width
		pos = packBlock(buf, pos+forFrameLen, keys[n.start:n.start+n.count], fr)
	}
	return encodedAttr{codec: codecFOR, data: buf[:size]}
}

// decodePosSection decodes one framed position section into a fresh float32
// column. nodes must have passed checkBlockRanges for nPoints.
func decodePosSection(codec uint8, payload []byte, nodes []diskNode, nPoints int, info *SectionInfo) ([]float32, error) {
	switch codec {
	case codecRaw:
		return decodeRawF32(payload, nPoints)
	case codecFOR:
		return decodeFOR(payload, nodes, nPoints, info)
	}
	return nil, fmt.Errorf("bat: unknown position codec id %d", codec)
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

func decodeFOR(payload []byte, nodes []diskNode, nPoints int, info *SectionInfo) ([]float32, error) {
	out := make([]float32, nPoints)
	var q unpackScratch
	pos := 0
	for i := range nodes {
		n := &nodes[i]
		if len(payload)-pos < forFrameLen {
			return nil, fmt.Errorf("bat: position stream truncated at block %d of %d", i, len(nodes))
		}
		fr := forFrame{base: uint64(binary.LittleEndian.Uint32(payload[pos:])), width: payload[pos+4]}
		pos += forFrameLen
		if err := checkBlock(len(payload)-pos, n.count, fr.width, 32); err != nil {
			return nil, fmt.Errorf("bat: position block %d: %w", i, err)
		}
		if info != nil {
			info.Widths = append(info.Widths, fr.width)
		}
		if err := unkeyBlock(out[n.start:n.start+n.count], payload[pos:], fr, &q); err != nil {
			return nil, fmt.Errorf("bat: position block %d: %w", i, err)
		}
		pos += packedLen(int(n.count), fr.width)
	}
	if pos != len(payload) {
		return nil, fmt.Errorf("bat: position section has %d trailing bytes", len(payload)-pos)
	}
	return out, nil
}

// unkeyBlock decodes one position block into dst. A key past the uint32
// range (base + offset wrapped) is corrupt: the encoder's base is the block
// minimum, so it never produces one.
func unkeyBlock(dst []float32, src []byte, fr forFrame, q *unpackScratch) error {
	for bit := 0; len(dst) > 0; {
		n := min(len(dst), len(q))
		unpackBits(q[:n], src, bit, fr.width)
		for i, off := range q[:n] {
			k := fr.base + off
			if k > math.MaxUint32 {
				return fmt.Errorf("value overflows its frame of reference (base %#x)", fr.base)
			}
			dst[i] = math.Float32frombits(f32FromKey(uint32(k)))
		}
		dst = dst[n:]
		bit += n * int(fr.width)
	}
	return nil
}

// --- node table ---

// A packed node table (flagPackedNodes) stores a treelet's nodes as 3 + nA
// columns in node order, each one block in codecFOR's block format (base u32,
// width u8, offsets): axis, count, the f32Key of every inner node's split
// plane, then each attribute's bitmap IDs. reorderBFS makes the rest of a node
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
