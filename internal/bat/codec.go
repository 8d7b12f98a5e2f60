// Compression codecs for version-3 treelet sections.
//
// A v3 treelet stores each attribute column — and, when the header's
// flagPackedPositions is set, each of the X, Y, Z columns ahead of them — as
// an independent section:
//
//	codec u8, encodedLen u32, payload [encodedLen]byte
//
// so random access stays section-granular — a reader decodes exactly the
// treelets a query touches, nothing else. Three attribute codecs exist, and
// one position codec:
//
//	codecRaw   (0): the version-2 byte layout (f64 or f32 per the schema
//	               type). Always valid; the fallback when nothing smaller
//	               can honor the attribute's error bound.
//	codecQuant (1): error-bounded uniform quantization (the bit-adaptive
//	               scheme of Ren et al., arXiv:2404.02826). Values are
//	               snapped to a grid of step 2·bound anchored at the
//	               section minimum and bit-packed at the narrowest width
//	               that covers the section's value range, so smooth
//	               columns cost ~log2(range/step) bits per value instead
//	               of 64. Two grids per section exploit the
//	               multiresolution layout: indices inside inner-node (LOD
//	               sample) ranges may use a coarser step (bound ×
//	               LODErrorScale), since progressive previews tolerate
//	               more error than leaf-level reads.
//	codecDelta (2): lossless delta + zigzag + varint for integral-valued
//	               columns (particle IDs, type tags). Chosen only when
//	               every value is a small-magnitude integer and the
//	               stream actually shrinks.
//	codecFOR   (3): lossless block frame-of-reference for position columns
//	               only. Each float32 is mapped through f32Key, the
//	               order-preserving bijection of float32 bit patterns onto
//	               uint32 (every bit pattern round-trips: ±0, denormals,
//	               ±Inf, NaN payloads). The blocks are the treelet's node
//	               particle ranges in node order — each k-d leaf's particles
//	               and each inner node's LOD samples are spatial neighbours,
//	               so their keys share high bits — and the decoder knows
//	               them from the node table it parsed just before, so no
//	               block index is stored. Per block:
//	                 base u32   smallest key of the block
//	                 width u8   bits of the largest (key - base), 0..32
//	                 ceil(count*width/8) bytes of (key - base), LSB-first
//	               A column whose stream would not be smaller than its raw
//	               f32 bytes is stored as codecRaw.
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

	"libbat/internal/particles"
)

// Codec identifiers stored in v3 section headers and the footer. The footer
// declares attribute codecs only, so codecFOR never appears there.
const (
	codecRaw   uint8 = 0
	codecQuant uint8 = 1
	codecDelta uint8 = 2
	codecFOR   uint8 = 3
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
	}
	return fmt.Sprintf("unknown(%d)", c)
}

// quantHeaderLen is the fixed prefix of a codecQuant payload: grid minimum
// f64, fine step f64, LOD step f64, fine bit width u8, LOD bit width u8.
const quantHeaderLen = 8 + 8 + 8 + 1 + 1

// maxQuantBits caps the packed bit width. Grid indices stay well inside
// float64's 53-bit integer range, and fine+LOD widths plus the packer's
// 7-bit carry stay inside a 64-bit accumulator.
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

// --- bit packing ---

// bitWriter packs values LSB-first into a byte stream.
type bitWriter struct {
	buf []byte
	acc uint64
	n   uint
}

func (w *bitWriter) write(v uint64, nbits uint8) {
	w.acc |= v << w.n
	w.n += uint(nbits)
	for w.n >= 8 {
		w.buf = append(w.buf, byte(w.acc)) //batlint:ignore uintcast encoder-side accumulator; emitting the low byte is the point
		w.acc >>= 8
		w.n -= 8
	}
}

func (w *bitWriter) flush() {
	if w.n > 0 {
		w.buf = append(w.buf, byte(w.acc)) //batlint:ignore uintcast encoder-side accumulator; emitting the low byte is the point
		w.acc, w.n = 0, 0
	}
}

// bitReader unpacks an LSB-first stream. ok=false reports exhaustion.
type bitReader struct {
	buf []byte
	pos int
	acc uint64
	n   uint
}

func (r *bitReader) read(nbits uint8) (uint64, bool) {
	for r.n < uint(nbits) {
		if r.pos >= len(r.buf) {
			return 0, false
		}
		r.acc |= uint64(r.buf[r.pos]) << r.n
		r.pos++
		r.n += 8
	}
	v := r.acc & (uint64(1)<<nbits - 1)
	r.acc >>= nbits
	r.n -= uint(nbits)
	return v, true
}

// --- LOD classification ---

// lodMask marks, for each layout index of a treelet, whether the particle
// belongs to an inner node's LOD sample range (true) or a leaf range
// (false). Node particle ranges partition [0, nPoints) in BFS layout, so
// the classification is derivable from the node table alone — encoder and
// decoder compute it identically from their respective node records.
func lodMaskFromBuilt(t *treelet, mask []bool) []bool {
	mask = mask[:0]
	for range t.order {
		mask = append(mask, false)
	}
	for i := range t.nodes {
		n := &t.nodes[i]
		if n.axis == leafAxis {
			continue
		}
		for p := n.start; p < n.start+n.count; p++ {
			mask[p] = true
		}
	}
	return mask
}

// lodMaskFromDisk is lodMaskFromBuilt for a parsed treelet's node records;
// ranges were already bounds-checked against nPoints during the parse.
func lodMaskFromDisk(nodes []diskNode, nPoints int) []bool {
	mask := make([]bool, nPoints)
	for i := range nodes {
		n := &nodes[i]
		if n.axis == uint8(leafAxis) {
			continue
		}
		for p := n.start; p < n.start+n.count; p++ {
			mask[p] = true
		}
	}
	return mask
}

// encodeTreeletAttrs encodes every attribute column of a freshly built
// treelet, running inside the fused treelet worker so encoding parallelizes
// across treelets with the rest of construction.
func encodeTreeletAttrs(set *particles.Set, t *treelet, bounds []float64, lodScale float64, a *buildArena) {
	nA := set.Schema.NumAttrs()
	t.attrEnc = make([]encodedAttr, nA)
	a.lodBuf = lodMaskFromBuilt(t, a.lodBuf)
	for attr := 0; attr < nA; attr++ {
		t.attrEnc[attr] = encodeAttr(set.Attrs[attr], t.order,
			set.Schema.Attrs[attr].Type, bounds[attr], lodScale, a.lodBuf, a)
	}
}

// --- encoding ---

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
// column of one treelet and returns the encoded section. vals is the full
// attribute array; order maps layout index → particle index; lod flags
// layout indices holding LOD samples (which may use bound·lodScale).
// Scratch buffers come from the worker's arena; the returned payload is
// freshly allocated (it outlives the arena).
func encodeAttr(vals []float64, order []int, typ particles.AttrType,
	bound, lodScale float64, lod []bool, a *buildArena) encodedAttr {

	n := len(order)
	if n == 0 {
		return encodedAttr{codec: codecRaw}
	}
	rawLen := n * typ.Size()

	// Materialize the type-rounded reference values once.
	ref := a.refVals[:0]
	for _, p := range order {
		ref = append(ref, typedValue(vals[p], typ))
	}
	a.refVals = ref[:0] // keep the (possibly grown) backing array

	if bound > 0 {
		if data, ok := encodeQuant(ref, bound, bound*lodScale, lod, rawLen, a); ok {
			return encodedAttr{codec: codecQuant, data: data}
		}
		return encodedAttr{codec: codecRaw}
	}
	if data, ok := encodeDelta(ref, rawLen); ok {
		return encodedAttr{codec: codecDelta, data: data}
	}
	return encodedAttr{codec: codecRaw}
}

// encodeQuant quantizes ref onto the two-grid layout. ok=false means the
// section cannot be represented within the bounds (non-finite values, grid
// indices too wide, or rounding that one nudge cannot fix) or would not
// shrink below rawLen.
func encodeQuant(ref []float64, bound, lodBound float64, lod []bool,
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
	fineStep, lodStep := 2*bound, 2*lodBound

	qs := a.qbuf[:0]
	var maxFine, maxLOD uint64
	nFine, nLOD := 0, 0
	for i, v := range ref {
		step, b := fineStep, bound
		if lod[i] {
			step, b = lodStep, lodBound
		}
		q := math.Round((v - vmin) / step)
		if math.IsNaN(q) || q < 0 || q > float64(uint64(1)<<maxQuantBits) {
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
		if diff := rec - v; diff > b || -diff > b {
			return nil, false
		}
		if lod[i] {
			nLOD++
			if qi > maxLOD {
				maxLOD = qi
			}
		} else {
			nFine++
			if qi > maxFine {
				maxFine = qi
			}
		}
		qs = append(qs, qi)
	}
	a.qbuf = qs[:0] // keep the (possibly grown) backing array

	fineBits := uint8(bits.Len64(maxFine))
	lodBits := uint8(bits.Len64(maxLOD))
	if fineBits > maxQuantBits || lodBits > maxQuantBits {
		return nil, false
	}
	packedBits := uint64(nFine)*uint64(fineBits) + uint64(nLOD)*uint64(lodBits)
	packedBytes := (packedBits + 7) / 8
	if rawLen <= quantHeaderLen || packedBytes >= uint64(rawLen-quantHeaderLen) {
		return nil, false // not smaller than raw (also bounds the narrowing below)
	}
	encLen := quantHeaderLen + int(packedBytes)

	out := make([]byte, quantHeaderLen, encLen)
	binary.LittleEndian.PutUint64(out[0:], math.Float64bits(vmin))
	binary.LittleEndian.PutUint64(out[8:], math.Float64bits(fineStep))
	binary.LittleEndian.PutUint64(out[16:], math.Float64bits(lodStep))
	out[24] = fineBits
	out[25] = lodBits
	bw := bitWriter{buf: out}
	for i, qi := range qs[:len(ref)] {
		if lod[i] {
			bw.write(qi, lodBits)
		} else {
			bw.write(qi, fineBits)
		}
	}
	bw.flush()
	if len(bw.buf) != encLen {
		// Defensive: the size formula and the packer must agree.
		return nil, false
	}
	return bw.buf, true
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

// --- decoding ---

// decodeAttrSection decodes one v3 attribute section payload into a fresh
// []float64 column. declaredBound/lodScale come from the file footer; a
// quant section whose grid steps exceed what the footer declares is
// corrupt (error-bound mismatch) and rejected. lodMask is computed lazily
// by the caller — only quant sections need it.
func decodeAttrSection(codec uint8, payload []byte, nPoints int,
	typ particles.AttrType, declaredBound, lodScale float64,
	lodMask func() []bool) ([]float64, error) {

	switch codec {
	case codecRaw:
		return decodeRaw(payload, nPoints, typ)
	case codecQuant:
		return decodeQuant(payload, nPoints, declaredBound, lodScale, lodMask())
	case codecDelta:
		return decodeDelta(payload, nPoints)
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

func decodeQuant(payload []byte, nPoints int, declaredBound, lodScale float64, lod []bool) ([]float64, error) {
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
	// here; the encoder writes steps of exactly 2·bound.
	if declaredBound <= 0 {
		return nil, fmt.Errorf("bat: quant section in attribute declared lossless (error-bound mismatch)")
	}
	if fineStep > 2*declaredBound*(1+1e-9) {
		return nil, fmt.Errorf("bat: quant fine step %g exceeds declared error bound %g (error-bound mismatch)", fineStep, declaredBound)
	}
	if lodStep > 2*declaredBound*lodScale*(1+1e-9) {
		return nil, fmt.Errorf("bat: quant LOD step %g exceeds declared error bound %g x scale %g (error-bound mismatch)", lodStep, declaredBound, lodScale)
	}
	var totalBits uint64
	for i := 0; i < nPoints; i++ {
		if lod[i] {
			totalBits += uint64(lodBits)
		} else {
			totalBits += uint64(fineBits)
		}
	}
	if want := uint64(quantHeaderLen) + (totalBits+7)/8; uint64(len(payload)) != want {
		return nil, fmt.Errorf("bat: quant section holds %d bytes, bit widths require %d (truncated codec stream)", len(payload), want)
	}
	out := make([]float64, nPoints)
	br := bitReader{buf: payload[quantHeaderLen:]}
	for i := range out {
		step, nb := fineStep, fineBits
		if lod[i] {
			step, nb = lodStep, lodBits
		}
		q, ok := br.read(nb)
		if !ok {
			return nil, fmt.Errorf("bat: quant stream exhausted at value %d of %d", i, nPoints)
		}
		out[i] = vmin + float64(q)*step
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

// forFrame is one block's frame of reference.
type forFrame struct {
	base  uint32
	width uint8
}

// encodeTreeletPositions encodes the three position columns of a freshly
// built treelet, next to encodeTreeletAttrs in the fused treelet worker.
func encodeTreeletPositions(set *particles.Set, t *treelet, a *buildArena) {
	for ax, col := range [3][]float32{set.X, set.Y, set.Z} {
		t.posEnc[ax] = encodeFOR(col, t, a)
	}
}

// encodeFOR encodes one position column of a treelet as a codecFOR stream,
// one block per node in node order (reorderBFS lays the node ranges out
// back to back, which is what lets the decoder find the blocks without an
// index). It returns a codecRaw section when the stream would not be
// smaller than the column's 4 bytes per value. The stream is a pure
// function of the values, so builds stay byte-identical for any worker
// count.
func encodeFOR(col []float32, t *treelet, a *buildArena) encodedAttr {
	keys := a.keys[:0]
	for _, p := range t.order {
		keys = append(keys, f32Key(math.Float32bits(col[p])))
	}
	a.keys = keys[:0] // keep the (possibly grown) backing arrays
	frames := a.frames[:0]
	size := 0
	for i := range t.nodes {
		n := &t.nodes[i]
		var fr forFrame
		if blk := keys[n.start : n.start+n.count]; len(blk) > 0 {
			lo, hi := blk[0], blk[0]
			for _, k := range blk[1:] {
				if k < lo {
					lo = k
				} else if k > hi {
					hi = k
				}
			}
			fr = forFrame{base: lo, width: uint8(bits.Len32(hi - lo))}
		}
		frames = append(frames, fr)
		size += forFrameLen + (int(n.count)*int(fr.width)+7)/8
	}
	a.frames = frames[:0]
	if size >= 4*len(keys) {
		return encodedAttr{codec: codecRaw}
	}

	// Pack through a 64-bit accumulator drained four bytes at a time. Each
	// drain stores all eight accumulator bytes (the upper ones are rewritten
	// by the next store), hence the eight bytes of slack past the stream.
	buf := make([]byte, size+8)
	pos := 0
	for i, fr := range frames {
		n := &t.nodes[i]
		binary.LittleEndian.PutUint32(buf[pos:], fr.base)
		buf[pos+4] = fr.width
		pos += forFrameLen
		var acc uint64
		var nb uint
		for _, k := range keys[n.start : n.start+n.count] {
			acc |= uint64(k-fr.base) << nb
			if nb += uint(fr.width); nb >= 32 {
				binary.LittleEndian.PutUint64(buf[pos:], acc)
				pos += 4
				acc >>= 32
				nb -= 32
			}
		}
		binary.LittleEndian.PutUint64(buf[pos:], acc)
		pos += int(nb+7) / 8
	}
	return encodedAttr{codec: codecFOR, data: buf[:size]}
}

// checkBlockRanges validates what codecFOR relies on: the node particle
// ranges, taken in node order, tile [0, nPoints) back to back. The builder
// lays them out that way; a file whose node table says otherwise has no
// block list to decode against.
func checkBlockRanges(nodes []diskNode, nPoints uint32) error {
	next := uint32(0)
	for i := range nodes {
		n := &nodes[i]
		if n.start != next || n.count > nPoints-next {
			return fmt.Errorf("bat: node %d particle range [%d,+%d) does not continue at %d of %d (packed positions need consecutive node ranges)",
				i, n.start, n.count, next, nPoints)
		}
		next += n.count
	}
	if next != nPoints {
		return fmt.Errorf("bat: node particle ranges cover %d of %d points", next, nPoints)
	}
	return nil
}

// decodePosSection decodes one framed position section into a fresh float32
// column. nodes must have passed checkBlockRanges for nPoints.
func decodePosSection(codec uint8, payload []byte, nodes []diskNode, nPoints int) ([]float32, error) {
	switch codec {
	case codecRaw:
		return decodeRawF32(payload, nPoints)
	case codecFOR:
		return decodeFOR(payload, nodes, nPoints)
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

func decodeFOR(payload []byte, nodes []diskNode, nPoints int) ([]float32, error) {
	out := make([]float32, nPoints)
	pos := 0
	for i := range nodes {
		n := &nodes[i]
		if len(payload)-pos < forFrameLen {
			return nil, fmt.Errorf("bat: position stream truncated at block %d of %d", i, len(nodes))
		}
		base := binary.LittleEndian.Uint32(payload[pos:])
		width := payload[pos+4]
		pos += forFrameLen
		if width > 32 {
			return nil, fmt.Errorf("bat: position block %d bit width %d exceeds 32", i, width)
		}
		blockBytes := (uint64(n.count)*uint64(width) + 7) / 8
		if blockBytes > uint64(len(payload)-pos) {
			return nil, fmt.Errorf("bat: position block %d truncated: %d values of %d bits need %d bytes, %d remain",
				i, n.count, width, blockBytes, len(payload)-pos)
		}
		if err := unpackFOR(out[n.start:n.start+n.count], payload[pos:], base, width); err != nil {
			return nil, fmt.Errorf("bat: position block %d: %w", i, err)
		}
		pos += int(blockBytes)
	}
	if pos != len(payload) {
		return nil, fmt.Errorf("bat: position section has %d trailing bytes", len(payload)-pos)
	}
	return out, nil
}

// unpackFOR decodes one block into dst. src starts at the block's packed
// values and runs to the end of the section (the caller has checked that the
// block's own bytes are there), so each value is one 64-bit load, shift and
// mask; only loads within eight bytes of the section's end take the copying
// path. A key past the uint32 range (base + offset wrapped) is corrupt: the
// encoder's base is the block minimum, so it never produces one.
func unpackFOR(dst []float32, src []byte, base uint32, width uint8) error {
	mask := uint64(1)<<width - 1
	bit := 0
	for i := range dst {
		p := bit >> 3
		var w uint64
		if p+8 <= len(src) {
			w = binary.LittleEndian.Uint64(src[p:])
		} else {
			var tail [8]byte
			copy(tail[:], src[p:])
			w = binary.LittleEndian.Uint64(tail[:])
		}
		k := uint64(base) + w>>(bit&7)&mask
		if k > math.MaxUint32 {
			return fmt.Errorf("value %d overflows its frame of reference (base %#x)", i, base)
		}
		dst[i] = math.Float32frombits(f32FromKey(uint32(k)))
		bit += int(width)
	}
	return nil
}
