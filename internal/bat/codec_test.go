package bat

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"libbat/internal/geom"
	"libbat/internal/particles"
)

// cosmoSchema is a cosmology-shaped attribute mix: smooth float64 fields,
// a float32 field, and an integral identifier.
func cosmoSchema() particles.Schema {
	return particles.Schema{Attrs: []particles.AttrDesc{
		{Name: "mass", Type: particles.Float64},
		{Name: "vx", Type: particles.Float64},
		{Name: "phi", Type: particles.Float32},
		{Name: "id", Type: particles.Float64},
	}}
}

// cosmoSet builds a clustered set over cosmoSchema: lognormal mass,
// gaussian velocity, a smooth potential, and a unique integral id (the
// join key the error checks below use to match decoded values to their
// originals).
func cosmoSet(n int, seed int64) (*particles.Set, geom.Box) {
	r := rand.New(rand.NewSource(seed))
	s := particles.NewSet(cosmoSchema(), n)
	for i := 0; i < n; i++ {
		var p geom.Vec3
		if i%4 != 0 {
			c := geom.V3(float64(i%3)*0.3+0.1, float64((i/3)%3)*0.3+0.1, 0.5)
			p = geom.V3(c.X+r.NormFloat64()*0.02, c.Y+r.NormFloat64()*0.02, c.Z+r.NormFloat64()*0.02)
		} else {
			p = geom.V3(r.Float64(), r.Float64(), r.Float64())
		}
		s.Append(p, []float64{
			math.Exp(r.NormFloat64()), // mass: lognormal
			r.NormFloat64() * 300,     // vx: gaussian
			math.Sin(p.X*7) + p.Y*0.5, // phi: smooth in space
			float64(i),                // id: unique, integral
		})
	}
	return s, geom.NewBox(geom.V3(-1, -1, -1), geom.V3(2, 2, 2))
}

func compressedConfig(bounds []float64) BuildConfig {
	cfg := DefaultBuildConfig()
	cfg.MaxLeafSize = 64
	cfg.LODPerNode = 4
	cfg.Compress = true
	cfg.AttrErrorBounds = bounds
	return cfg
}

// TestCompressedMaxErrorProperty is the codec's central guarantee: for
// random datasets and random per-attribute absolute bounds, every decoded
// value is within the stated bound of the original (measured against the
// type-rounded value the lossless layout would store), and bound-0
// attributes round-trip bit-exact. scripts/check.sh runs this under -race.
func TestCompressedMaxErrorProperty(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed * 977))
		s, domain := cosmoSet(4000, seed)
		bounds := []float64{
			math.Pow(10, -1-3*r.Float64()), // mass
			math.Pow(10, 1-4*r.Float64()),  // vx
			math.Pow(10, -2-3*r.Float64()), // phi
			0,                              // id: lossless
		}
		if seed == 2 {
			bounds[0] = 0 // exercise lossless fallback on a float field too
		}
		f, _ := buildAndOpen(t, s, domain, compressedConfig(bounds))
		if f.Version != 3 {
			t.Fatalf("compressed build wrote version %d, want 3", f.Version)
		}
		got, err := f.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != s.Len() {
			t.Fatalf("ReadAll returned %d of %d particles", got.Len(), s.Len())
		}
		// Join decoded rows to originals on the lossless id attribute.
		byID := make(map[float64]int, s.Len())
		for i := 0; i < s.Len(); i++ {
			byID[s.Attrs[3][i]] = i
		}
		for i := 0; i < got.Len(); i++ {
			oi, ok := byID[got.Attrs[3][i]]
			if !ok {
				t.Fatalf("seed %d: decoded id %v not in original set", seed, got.Attrs[3][i])
			}
			for a, b := range bounds {
				want := typedValue(s.Attrs[a][oi], s.Schema.Attrs[a].Type)
				gotV := got.Attrs[a][i]
				if b == 0 {
					if gotV != want {
						t.Fatalf("seed %d attr %d: lossless value %v != %v", seed, a, gotV, want)
					}
				} else if math.Abs(gotV-want) > b {
					t.Fatalf("seed %d attr %d: |%v - %v| = %v exceeds bound %v",
						seed, a, gotV, want, math.Abs(gotV-want), b)
				}
			}
		}
	}
}

// TestCompressedLosslessBitExact pins the all-bounds-zero configuration:
// the file is version 3 (framed sections) but every value round-trips
// bit-exact through the delta/raw fallbacks.
func TestCompressedLosslessBitExact(t *testing.T) {
	s, domain := cosmoSet(3000, 11)
	cfg := compressedConfig(nil)
	cfg.ErrorBound = 0
	f, _ := buildAndOpen(t, s, domain, cfg)
	if f.Version != 3 {
		t.Fatalf("version = %d, want 3", f.Version)
	}
	got, err := f.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[float64]int, s.Len())
	for i := 0; i < s.Len(); i++ {
		byID[s.Attrs[3][i]] = i
	}
	if !f.PackedPositions {
		t.Fatal("compressed build did not pack its positions")
	}
	for i := 0; i < got.Len(); i++ {
		oi := byID[got.Attrs[3][i]]
		for a := range s.Schema.Attrs {
			want := typedValue(s.Attrs[a][oi], s.Schema.Attrs[a].Type)
			if got.Attrs[a][i] != want {
				t.Fatalf("attr %d: %v != %v", a, got.Attrs[a][i], want)
			}
		}
		for ax, cols := range [3][2][]float32{{got.X, s.X}, {got.Y, s.Y}, {got.Z, s.Z}} {
			if g, w := math.Float32bits(cols[0][i]), math.Float32bits(cols[1][oi]); g != w {
				t.Fatalf("particle %v axis %d: position bits %#08x != %#08x", got.Attrs[3][i], ax, g, w)
			}
		}
	}
}

// TestCompressedBuildDeterminism extends the byte-identity invariant to
// compressed builds: serial and parallel builds at any worker count must
// produce identical version-3 images.
func TestCompressedBuildDeterminism(t *testing.T) {
	s, domain := cosmoSet(8000, 5)
	base := compressedConfig([]float64{1e-3, 1e-1, 1e-4, 0})
	ref := base
	ref.Workers = 1
	want, err := Build(s, domain, ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 7, 0, runtime.GOMAXPROCS(0)} {
		cfg := base
		cfg.Workers = workers
		got, err := Build(s, domain, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(got.Buf, want.Buf) {
			t.Fatalf("workers=%d: compressed output differs from serial build (%d vs %d bytes)",
				workers, len(got.Buf), len(want.Buf))
		}
	}
}

// TestUncompressedStaysV2 pins the compatibility contract: builds without
// Compress keep writing byte-for-byte version-2 files — the v3 machinery
// must be invisible to them.
func TestUncompressedStaysV2(t *testing.T) {
	s, domain := cosmoSet(2000, 7)
	f, _ := buildAndOpen(t, s, domain, DefaultBuildConfig())
	if f.Version != 2 {
		t.Fatalf("uncompressed build wrote version %d, want 2", f.Version)
	}
	if f.Compression() != nil {
		t.Fatal("uncompressed file reports compression info")
	}
}

// TestCompressedLODScale checks the multiresolution bound split: values
// referenced by LOD samples (inner-node ranges) may err up to
// bound*LODErrorScale, everything else up to bound. The per-index
// classification is recomputed from the parsed node records, exactly as
// the decoder does.
func TestCompressedLODScale(t *testing.T) {
	s, domain := cosmoSet(6000, 9)
	const bound, scale = 1e-3, 16.0
	cfg := compressedConfig([]float64{bound, 0, 0, 0})
	cfg.LODErrorScale = scale
	f, _ := buildAndOpen(t, s, domain, cfg)
	byID := make(map[float64]int, s.Len())
	for i := 0; i < s.Len(); i++ {
		byID[s.Attrs[3][i]] = i
	}
	sawLOD := false
	for ti := 0; ti < f.NumTreelets(); ti++ {
		pt, err := f.loadTreelet(context.Background(), ti)
		if err != nil {
			t.Fatal(err)
		}
		mask := lodMaskFromDisk(pt.nodes, len(pt.attrs[3]))
		for i, id := range pt.attrs[3] {
			oi, ok := byID[id]
			if !ok {
				t.Fatalf("treelet %d: unknown id %v", ti, id)
			}
			tol := bound
			if mask[i] {
				tol = bound * scale
				sawLOD = true
			}
			if diff := math.Abs(pt.attrs[0][i] - s.Attrs[0][oi]); diff > tol {
				t.Fatalf("treelet %d index %d (lod=%v): error %v exceeds %v", ti, i, mask[i], diff, tol)
			}
		}
	}
	if !sawLOD {
		t.Fatal("no LOD-classified values; test is vacuous")
	}
}

// TestCompressionInfoAndSections checks the footer accounting: the
// Compression() totals must equal both the BuildStats payload fields and
// the sum over every TreeletSections frame, and a smooth dataset at a
// loose bound must actually compress.
func TestCompressionInfoAndSections(t *testing.T) {
	s, domain := cosmoSet(5000, 13)
	bounds := []float64{1e-3, 1e-1, 1e-3, 0}
	f, b := buildAndOpen(t, s, domain, compressedConfig(bounds))
	ci := f.Compression()
	if ci == nil {
		t.Fatal("Compression() = nil for a version-3 file")
	}
	for a, want := range bounds {
		if ci.Bounds[a] != want {
			t.Fatalf("attr %d bound %v != %v", a, ci.Bounds[a], want)
		}
	}
	wantCodecs := []uint8{codecQuant, codecQuant, codecQuant, codecDelta}
	for a, want := range wantCodecs {
		if ci.Codecs[a] != want {
			t.Fatalf("attr %d codec %s != %s", a, CodecName(ci.Codecs[a]), CodecName(want))
		}
	}
	if ci.LODScale != 1 {
		t.Fatalf("LOD scale %v != 1", ci.LODScale)
	}
	if int64(ci.RawPayloadBytes) != b.Stats.AttrPayloadRawBytes ||
		int64(ci.EncPayloadBytes) != b.Stats.AttrPayloadEncBytes {
		t.Fatalf("footer payload totals %d/%d != stats %d/%d",
			ci.RawPayloadBytes, ci.EncPayloadBytes,
			b.Stats.AttrPayloadRawBytes, b.Stats.AttrPayloadEncBytes)
	}
	if ci.Ratio() < 2 {
		t.Fatalf("compression ratio %.2f < 2 on a smooth dataset", ci.Ratio())
	}
	// The footer totals stay attribute-only; the position rows add up to
	// the build's position totals.
	var sumRaw, sumEnc, posRaw, posEnc int
	for ti := 0; ti < f.NumTreelets(); ti++ {
		secs, err := f.TreeletSections(context.Background(), ti)
		if err != nil {
			t.Fatal(err)
		}
		for i, sec := range secs {
			if i < PositionSections {
				if sec.Attr != positionNames[i] || (sec.Codec != codecFOR && sec.Codec != codecRaw) {
					t.Fatalf("treelet %d row %d is %q/%s, want a %q position section", ti, i, sec.Attr, CodecName(sec.Codec), positionNames[i])
				}
				posRaw += sec.RawBytes
				posEnc += sec.EncBytes
				continue
			}
			sumRaw += sec.RawBytes
			sumEnc += sec.EncBytes
		}
	}
	if uint64(sumRaw) != ci.RawPayloadBytes || uint64(sumEnc) != ci.EncPayloadBytes {
		t.Fatalf("section sums %d/%d != footer totals %d/%d",
			sumRaw, sumEnc, ci.RawPayloadBytes, ci.EncPayloadBytes)
	}
	if int64(posRaw) != b.Stats.PosPayloadRawBytes || int64(posEnc) != b.Stats.PosPayloadEncBytes {
		t.Fatalf("position section sums %d/%d != stats %d/%d",
			posRaw, posEnc, b.Stats.PosPayloadRawBytes, b.Stats.PosPayloadEncBytes)
	}
	if posRaw != 12*s.Len() || posEnc >= posRaw {
		t.Fatalf("positions %d -> %d bytes for %d particles: want 12 per particle in, fewer out", posRaw, posEnc, s.Len())
	}
}

// TestCompressConfigValidation pins the knob contract for the codec
// configuration.
func TestCompressConfigValidation(t *testing.T) {
	s, domain := cosmoSet(100, 3)
	bad := []BuildConfig{}
	c1 := DefaultBuildConfig()
	c1.Compress = true
	c1.ErrorBound = -1
	bad = append(bad, c1)
	c2 := DefaultBuildConfig()
	c2.Compress = true
	c2.ErrorBound = math.Inf(1)
	bad = append(bad, c2)
	c3 := DefaultBuildConfig()
	c3.Compress = true
	c3.AttrErrorBounds = []float64{1e-3} // wrong length for 4 attrs
	bad = append(bad, c3)
	c4 := DefaultBuildConfig()
	c4.Compress = true
	c4.LODErrorScale = 0.5
	bad = append(bad, c4)
	c5 := DefaultBuildConfig()
	c5.Compress = true
	c5.AttrErrorBounds = []float64{1e-3, 1e-3, math.NaN(), 0}
	bad = append(bad, c5)
	for i, cfg := range bad {
		if _, err := Build(s, domain, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestDeltaCodec unit-tests the lossless integral codec directly:
// round-trip for integral streams, rejection of non-integral and
// out-of-range values.
func TestDeltaCodec(t *testing.T) {
	vals := []float64{0, 1, -1, 1000, -999, 1 << 40, -(1 << 40), 42}
	enc, ok := encodeDelta(vals, len(vals)*8)
	if !ok {
		t.Fatal("integral stream rejected")
	}
	dec, err := decodeDelta(enc, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if dec[i] != vals[i] {
			t.Fatalf("index %d: %v != %v", i, dec[i], vals[i])
		}
	}
	if _, ok := encodeDelta([]float64{1.5, 2}, 16); ok {
		t.Fatal("non-integral stream accepted")
	}
	if _, ok := encodeDelta([]float64{float64(uint64(1) << 53)}, 8); ok {
		t.Fatal("out-of-range magnitude accepted")
	}
}

// TestBitPackRoundTrip fuzzes the bit packer against its reader across
// random widths.
func TestBitPackRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		nbits := uint8(r.Intn(maxQuantBits) + 1)
		n := r.Intn(100) + 1
		vals := make([]uint64, n)
		w := &bitWriter{}
		for i := range vals {
			vals[i] = r.Uint64() & ((1 << nbits) - 1)
			w.write(vals[i], nbits)
		}
		w.flush()
		rd := &bitReader{buf: w.buf}
		for i := range vals {
			got, ok := rd.read(nbits)
			if !ok {
				t.Fatalf("trial %d: stream ended at %d of %d", trial, i, n)
			}
			if got != vals[i] {
				t.Fatalf("trial %d index %d: %d != %d", trial, i, got, vals[i])
			}
		}
	}
}

// forTreelet lays col out as a treelet whose node ranges hold counts[i]
// values each, in order — the shape encodeFOR and decodeFOR agree on.
func forTreelet(counts []int) (*treelet, []diskNode) {
	t := &treelet{}
	var nodes []diskNode
	for _, c := range counts {
		start := uint32(len(t.order))
		t.nodes = append(t.nodes, treeletNode{start: start, count: uint32(c)})
		nodes = append(nodes, diskNode{start: start, count: uint32(c)})
		for i := 0; i < c; i++ {
			t.order = append(t.order, len(t.order))
		}
	}
	return t, nodes
}

// forRoundTrip encodes col blocked by counts and, when the encoder chose
// codecFOR, requires the decoder to return every bit pattern unchanged.
func forRoundTrip(t *testing.T, col []float32, counts []int) encodedAttr {
	t.Helper()
	tr, nodes := forTreelet(counts)
	if len(tr.order) != len(col) {
		t.Fatalf("counts cover %d of %d values", len(tr.order), len(col))
	}
	if err := checkBlockRanges(nodes, uint32(len(col))); err != nil {
		t.Fatal(err)
	}
	var a buildArena
	enc := encodeFOR(col, tr, &a)
	if enc.codec == codecRaw {
		return enc
	}
	got, err := decodePosSection(enc.codec, enc.data, nodes, len(col))
	if err != nil {
		t.Fatalf("decoding %d values in blocks %v: %v", len(col), counts, err)
	}
	for i := range col {
		if g, w := math.Float32bits(got[i]), math.Float32bits(col[i]); g != w {
			t.Fatalf("value %d of blocks %v: %#08x != %#08x", i, counts, g, w)
		}
	}
	return enc
}

// TestF32KeyOrderAndInverse: the key map is a bijection whose unsigned order
// is the numeric order of the floats.
func TestF32KeyOrderAndInverse(t *testing.T) {
	ordered := []float32{float32(math.Inf(-1)), -math.MaxFloat32, -1, -math.SmallestNonzeroFloat32,
		float32(math.Copysign(0, -1)), 0, math.SmallestNonzeroFloat32, 1, math.MaxFloat32, float32(math.Inf(1))}
	for i := 1; i < len(ordered); i++ {
		if lo, hi := f32Key(math.Float32bits(ordered[i-1])), f32Key(math.Float32bits(ordered[i])); lo >= hi {
			t.Fatalf("key(%v) = %#x is not below key(%v) = %#x", ordered[i-1], lo, ordered[i], hi)
		}
	}
	r := rand.New(rand.NewSource(3))
	for _, b := range []uint32{0, 1, 1 << 31, 1<<31 | 1, 0x7fc00001, 0xffc12345, math.MaxUint32} {
		if got := f32FromKey(f32Key(b)); got != b {
			t.Fatalf("bits %#08x came back as %#08x", b, got)
		}
	}
	for i := 0; i < 10000; i++ {
		if b := r.Uint32(); f32FromKey(f32Key(b)) != b || f32Key(f32FromKey(b)) != b {
			t.Fatalf("bits %#08x do not round-trip", b)
		}
	}
}

// TestFORRoundTripProperty is the position codec's guarantee: for random
// block shapes (empty and single-element ranges included) over coordinates
// of random magnitude, sign and spread, every float32 bit pattern survives.
func TestFORRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	sawFOR := 0
	for trial := 0; trial < 300; trial++ {
		var counts []int
		var col []float32
		for b, nb := 0, r.Intn(12); b < nb; b++ {
			c := r.Intn(200)
			if r.Intn(4) == 0 {
				c = r.Intn(2) // empty or single-element range
			}
			counts = append(counts, c)
			center := (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(12)-6))
			spread := math.Abs(center) * math.Pow(2, -float64(r.Intn(24)))
			if r.Intn(8) == 0 {
				center, spread = 0, math.Pow(10, float64(r.Intn(40)-45)) // straddles zero, down into denormals
			}
			for i := 0; i < c; i++ {
				col = append(col, float32(center+spread*(r.Float64()-0.5)))
			}
		}
		if forRoundTrip(t, col, counts).codec == codecFOR {
			sawFOR++
		}
	}
	if sawFOR < 100 {
		t.Fatalf("only %d of 300 trials chose codecFOR; the property is near vacuous", sawFOR)
	}
}

// TestFORSpecialValues pins the bit patterns a numeric codec would lose and
// the two ends of the width range.
func TestFORSpecialValues(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	nan := func(payload uint32) float32 { return math.Float32frombits(0x7f800000 | payload) }
	filler := make([]float32, 64) // one compressible block, so the section stays codecFOR
	for i := range filler {
		filler[i] = 0.5 + float32(i)*1e-6
	}
	cases := []struct {
		name   string
		col    []float32
		counts []int
	}{
		{"signed zeros", []float32{0, negZero, 0, negZero}, []int{4}},
		{"denormals", []float32{math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
			math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff)}, []int{4}},
		{"infinities apart", []float32{float32(math.Inf(1)), float32(math.Inf(-1))}, []int{1, 1}},
		{"NaN payloads", []float32{nan(1), nan(0x400000), nan(0x7fffff), -nan(0x123456)}, []int{3, 1}},
		{"empty and single ranges", []float32{3, -7}, []int{0, 1, 0, 0, 1, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			col := append(append([]float32(nil), tc.col...), filler...)
			enc := forRoundTrip(t, col, append(append([]int(nil), tc.counts...), len(filler)))
			if enc.codec != codecFOR {
				t.Fatalf("section fell back to %s; the case was not exercised", CodecName(enc.codec))
			}
		})
	}

	t.Run("all-equal block is width 0", func(t *testing.T) {
		col := make([]float32, 100)
		for i := range col {
			col[i] = -2.5
		}
		enc := forRoundTrip(t, col, []int{100})
		if enc.codec != codecFOR || len(enc.data) != forFrameLen || enc.data[4] != 0 {
			t.Fatalf("100 equal values encoded as %s, % x; want one 5-byte frame of width 0", CodecName(enc.codec), enc.data)
		}
	})
	t.Run("full-range block falls back to raw", func(t *testing.T) {
		col := []float32{float32(math.Inf(-1)), float32(math.Inf(1)), 0, 1, -1, 2, -2, 3}
		if enc := forRoundTrip(t, col, []int{len(col)}); enc.codec != codecRaw || enc.data != nil {
			t.Fatalf("a 32-bit-wide block encoded as %s (%d bytes), want the raw fallback", CodecName(enc.codec), len(enc.data))
		}
	})
	t.Run("empty treelet", func(t *testing.T) {
		if enc := forRoundTrip(t, nil, nil); enc.codec != codecRaw {
			t.Fatalf("no values encoded as %s, want raw", CodecName(enc.codec))
		}
	})
}

// TestFORDecodeRejects drives decodeFOR with streams the encoder cannot
// produce: each must be an error, none a panic.
func TestFORDecodeRejects(t *testing.T) {
	col := make([]float32, 40)
	for i := range col {
		col[i] = 1 + float32(i)/64
	}
	counts := []int{8, 32}
	tr, nodes := forTreelet(counts)
	var a buildArena
	enc := encodeFOR(col, tr, &a)
	if enc.codec != codecFOR {
		t.Fatal("sample column did not encode as codecFOR")
	}
	valid := enc.data
	mut := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), valid...)) }
	cases := []struct {
		name    string
		payload []byte
		nodes   []diskNode
		want    string
	}{
		{"width 33", mut(func(b []byte) []byte { b[4] = 33; return b }), nodes, "exceeds 32"},
		{"width 255", mut(func(b []byte) []byte { b[4] = 255; return b }), nodes, "exceeds 32"},
		{"truncated block", valid[:len(valid)-1], nodes, "truncated"},
		{"truncated frame", valid[:forFrameLen+3], nodes, "truncated"},
		{"empty stream", nil, nodes, "truncated"},
		{"trailing bytes", mut(func(b []byte) []byte { return append(b, 0) }), nodes, "trailing bytes"},
		{"narrower last block", mut(func(b []byte) []byte {
			b[forFrameLen+int(b[4])+4]-- // second block's width: 8 values of b[4] bits fill b[4] bytes
			return b
		}), nodes, "trailing bytes"},
		{"base overflow", mut(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b, math.MaxUint32)
			return b
		}), nodes, "overflows"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeFOR(tc.payload, tc.nodes, len(col))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one containing %q", err, tc.want)
			}
		})
	}
	for name, bad := range map[string][]diskNode{
		"gap":       {{start: 0, count: 8}, {start: 9, count: 31}},
		"overlap":   {{start: 0, count: 8}, {start: 7, count: 33}},
		"reordered": {{start: 8, count: 32}, {start: 0, count: 8}},
		"short":     {{start: 0, count: 8}, {start: 8, count: 31}},
		"long":      {{start: 0, count: 8}, {start: 8, count: 33}},
		"wrapping":  {{start: 0, count: 8}, {start: 8, count: math.MaxUint32}},
	} {
		if err := checkBlockRanges(bad, uint32(len(col))); err == nil {
			t.Errorf("node table %q accepted as a block list", name)
		}
	}
}

// TestPackedCoincidentReadsBack: thousands of particles on eight positions
// pack to width-0 blocks, so a treelet holds fewer than the 6 bytes a point
// that bound the point count of every other layout; such a file must open
// and return every position bit-exact.
func TestPackedCoincidentReadsBack(t *testing.T) {
	c := determinismCorpora()[2] // coincident
	cfg := DefaultBuildConfig()
	cfg.Compress = true
	cfg.ErrorBound = 1e-2
	f, _ := buildAndOpen(t, c.set, c.domain, cfg)
	dense := false
	for _, l := range f.leaves {
		dense = dense || int64(l.byteLen) < 6*int64(l.numPoints)
	}
	if !dense {
		t.Fatal("no treelet is under 6 bytes a point; the case is not exercised")
	}
	got, err := f.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	count := func(s *particles.Set) map[[3]uint32]int {
		m := make(map[[3]uint32]int)
		for i := 0; i < s.Len(); i++ {
			m[[3]uint32{math.Float32bits(s.X[i]), math.Float32bits(s.Y[i]), math.Float32bits(s.Z[i])}]++
		}
		return m
	}
	want, have := count(c.set), count(got)
	if len(have) != len(want) {
		t.Fatalf("read back %d distinct positions, wrote %d", len(have), len(want))
	}
	for p, n := range want {
		if have[p] != n {
			t.Fatalf("position %v: read back %d particles, wrote %d", p, have[p], n)
		}
	}
}
