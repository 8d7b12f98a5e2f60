package bat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"libbat/internal/particles"
)

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
	} else if integral(ref...) {
		if data, ok := encodeQuantFOR(ref, intFORBound, 1, t, rawLen, a); ok {
			// The shortest of int-for and the key streams; int-for on a tie.
			if keys := encodeKeys(ref, typ, t, len(data), a); keys.codec != codecRaw {
				return keys
			}
			return encodedAttr{codec: codecIntFOR, data: data}
		}
	}
	return encodeKeys(ref, typ, t, rawLen, a)
}

// quantFORHeaderLen is the fixed prefix of a codecQuantFOR payload: grid
// minimum f64, mode u8.
const quantFORHeaderLen = 8 + 1

// keyFORHeaderLen is the fixed prefix of a codecKeyFOR or codecSignKeyFOR
// payload: mode u8.
const keyFORHeaderLen = 1

// quantSteps returns the grid steps of a lossy attribute's leaf and LOD
// ranges. Encoder and decoder both call it — one with the build's bound and
// scale, the other with the footer's copy of them — so a section stores no
// step.
func quantSteps(bound, lodScale float64) (fineStep, lodStep float64) {
	return 2 * bound, 2 * (bound * lodScale)
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

// intFORBound is the bound an int-for section is quantized and decoded under,
// with LOD scale 1: grid step 1 in every node range (quantSteps).
const intFORBound = 0.5

// integralMagnitude is the largest magnitude an int-for section holds:
// integers up to 2^52 and their differences survive float64 arithmetic
// without loss.
const integralMagnitude = 1 << 52

// integral reports whether ref may be stored as an int-for section: every
// value an integer within ±integralMagnitude and none -0, which the grid would
// decode as +0. NaN fails the first test, ±Inf the second.
func integral(ref ...float64) bool {
	for _, v := range ref {
		if v != math.Trunc(v) || v > integralMagnitude || v < -integralMagnitude || v == 0 && math.Signbit(v) {
			return false
		}
	}
	return true
}

// --- attribute decoding ---

// decodeAttrSection decodes one attribute section payload into dst, a column
// of nb.nPoints values. declaredBound/lodScale come from the file footer: a
// quant-for section takes its grid steps from them. info, when non-nil,
// receives the section's frame mode, frame bytes and block widths
// (batinspect).
func decodeAttrSection(dst []float64, codec uint8, payload []byte, nb *nodeBlocks,
	typ particles.AttrType, declaredBound, lodScale float64, info *SectionInfo) error {

	switch codec {
	case codecRaw:
		return decodeRaw(dst, payload, typ)
	case codecQuantFOR:
		return decodeQuantFOR(dst, codec, payload, nb, declaredBound, lodScale, info)
	case codecIntFOR:
		return decodeQuantFOR(dst, codec, payload, nb, intFORBound, 1, info)
	case codecKeyFOR, codecSignKeyFOR:
		return decodeKeyFOR(dst, codec, payload, nb, typ, info)
	}
	return fmt.Errorf("bat: unknown attribute codec id %d", codec)
}

func decodeRaw(dst []float64, payload []byte, typ particles.AttrType) error {
	sz := typ.Size()
	if len(payload) != len(dst)*sz {
		return fmt.Errorf("bat: raw section holds %d bytes, want %d", len(payload), len(dst)*sz)
	}
	if typ == particles.Float32 {
		for i := range dst {
			dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:])))
		}
	} else {
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
		}
	}
	return nil
}

// dequant runs the block loop over a quant section whose frames are laid:
// every offset becomes vmin + (base + offset)·step in dst, at its node range's
// step. An index past maxQuantIndex is corrupt: the encoder never writes one.
func (nb *nodeBlocks) dequant(dst []float64, payload []byte, vmin, fineStep, lodStep float64) error {
	return nb.unpack(nb.frames, payload, func(ni, at int, offs []uint64) error {
		fr := nb.frames[ni]
		step := fineStep
		if nb.nodes[ni].axis != leafAxis {
			step = lodStep // LOD samples of inner nodes use the coarser grid
		}
		dst := dst[at : at+len(offs)]
		for i, off := range offs {
			if off > fr.span {
				return fmt.Errorf("grid index %#x overflows %d bits (base %#x)", fr.base+off, maxQuantBits, fr.base)
			}
			dst[i] = vmin + float64(fr.base+off)*step
		}
		return nil
	})
}

// decodeQuantFOR decodes a quant-for or int-for section (codec) into dst
// under the grid of bound and lodScale: the footer's declaration for
// quant-for, intFORBound and 1 for int-for, whose anchor must be an integer
// within ±integralMagnitude, as every value the encoder accepts is.
func decodeQuantFOR(dst []float64, codec uint8, payload []byte, nb *nodeBlocks,
	bound, lodScale float64, info *SectionInfo) error {

	name := CodecName(codec)
	if len(payload) < quantFORHeaderLen {
		return fmt.Errorf("bat: %s section truncated: %d bytes, header needs %d", name, len(payload), quantFORHeaderLen)
	}
	vmin := math.Float64frombits(binary.LittleEndian.Uint64(payload))
	if math.IsNaN(vmin) || math.IsInf(vmin, 0) {
		return fmt.Errorf("bat: %s section has invalid grid minimum %g", name, vmin)
	}
	if codec == codecIntFOR && !integral(vmin) {
		return fmt.Errorf("bat: int-for section has grid minimum %g, not an integer within ±2^52", vmin)
	}
	// The grid steps come from the footer's bound: there is none to take
	// them from when the footer declares the attribute lossless.
	if bound <= 0 {
		return fmt.Errorf("bat: %s section in attribute declared lossless (error-bound mismatch)", name)
	}
	if err := nb.layFramed(payload, quantFORHeaderLen, maxQuantIndex, info); err != nil {
		return fmt.Errorf("bat: %s %w", name, err)
	}
	fineStep, lodStep := quantSteps(bound, lodScale)
	if err := nb.dequant(dst, payload, vmin, fineStep, lodStep); err != nil {
		return fmt.Errorf("bat: %s %w", name, err)
	}
	return nil
}

// decodeKeyFOR decodes a key-for or sign-key-for section (codec) of an
// attribute of type typ into dst. It is lossless, so it is valid whatever
// bound the footer declares: a lossless attribute's column, or a lossy one's
// that could not be quantized.
func decodeKeyFOR(dst []float64, codec uint8, payload []byte, nb *nodeBlocks, typ particles.AttrType, info *SectionInfo) error {
	name := CodecName(codec)
	if len(payload) < keyFORHeaderLen {
		return fmt.Errorf("bat: %s section truncated: no frame mode", name)
	}
	if err := nb.layFramed(payload, keyFORHeaderLen, keyLimit(typ), info); err != nil {
		return fmt.Errorf("bat: %s %w", name, err)
	}
	if err := nb.unkey(dst, payload, fromKeys(codec, typ)); err != nil {
		return fmt.Errorf("bat: %s %w", name, err)
	}
	return nil
}

// unkey runs the block loop over a key-for or sign-key-for section whose
// frames are laid: every offset becomes, in dst, the float whose key is base
// + offset, under the section's inverse key map (fromKeys). A key past
// keyLimit(typ) is corrupt: the encoder never writes one.
func (nb *nodeBlocks) unkey(dst []float64, payload []byte, fromKeys keyDecoder) error {
	return nb.unpack(nb.frames, payload, func(ni, at int, offs []uint64) error {
		fr := &nb.frames[ni]
		if i := fromKeys(dst[at:at+len(offs)], fr, offs); i < len(offs) {
			return fmt.Errorf("key offset %#x overflows its frame (base %#x, at most %#x)", offs[i], fr.base, fr.span)
		}
		return nil
	})
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
