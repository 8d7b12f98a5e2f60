// Per-attribute compression codecs for version-3 treelet sections.
//
// A v3 treelet stores each attribute column as an independent section:
//
//	codec u8, encodedLen u32, payload [encodedLen]byte
//
// so random access stays section-granular — a reader decodes exactly the
// treelets a query touches, nothing else. Three codecs exist:
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

// Codec identifiers stored in v3 attribute section headers and the footer.
const (
	codecRaw   uint8 = 0
	codecQuant uint8 = 1
	codecDelta uint8 = 2
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

// encodedAttr is one attribute's encoded section for a treelet being
// built. data is nil for codecRaw: the compactor streams the v2 byte
// layout directly from the particle set instead of materializing a copy.
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
