package bat

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"runtime"
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
	for i := 0; i < got.Len(); i++ {
		oi := byID[got.Attrs[3][i]]
		for a := range s.Schema.Attrs {
			want := typedValue(s.Attrs[a][oi], s.Schema.Attrs[a].Type)
			if got.Attrs[a][i] != want {
				t.Fatalf("attr %d: %v != %v", a, got.Attrs[a][i], want)
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
	var sumRaw, sumEnc int
	for ti := 0; ti < f.NumTreelets(); ti++ {
		secs, err := f.TreeletSections(context.Background(), ti)
		if err != nil {
			t.Fatal(err)
		}
		for _, sec := range secs {
			sumRaw += sec.RawBytes
			sumEnc += sec.EncBytes
		}
	}
	if uint64(sumRaw) != ci.RawPayloadBytes || uint64(sumEnc) != ci.EncPayloadBytes {
		t.Fatalf("section sums %d/%d != footer totals %d/%d",
			sumRaw, sumEnc, ci.RawPayloadBytes, ci.EncPayloadBytes)
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
