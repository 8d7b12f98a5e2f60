package bat

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"libbat/internal/geom"
	"libbat/internal/particles"
)

// decodeAttr decodes an attribute section into a fresh column of nb.nPoints
// values, as a treelet load decodes it into its slab; nil on an error.
func decodeAttr(codec uint8, payload []byte, nb *nodeBlocks, typ particles.AttrType, bound, lodScale float64, info *SectionInfo) ([]float64, error) {
	dst := make([]float64, nb.nPoints)
	if err := decodeAttrSection(dst, codec, payload, nb, typ, bound, lodScale, info); err != nil {
		return nil, err
	}
	return dst, nil
}

// decodePos decodes a position section into a fresh column of nb.nPoints
// values; nil on an error.
func decodePos(codec uint8, payload []byte, nb *nodeBlocks, ax geom.Axis, info *SectionInfo) ([]float32, error) {
	dst := make([]float32, nb.nPoints)
	if err := decodePosSection(dst, codec, payload, nb, ax, info); err != nil {
		return nil, err
	}
	return dst, nil
}

// testBlocks is newNodeBlocks with a column scratch of its own, where no
// node table was unpacked to hand one over.
func testBlocks(nodes []node, nPoints int, cells [3]keyCell) *nodeBlocks {
	return newNodeBlocks(nodes, nPoints, cells, make([]uint64, len(nodes)))
}

// noCells are the cells of a treelet with no number on any axis, for the
// attribute decoders, which need no k-d cells.
var noCells = [3]keyCell{{lo: 1}, {lo: 1}, {lo: 1}}

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
// every value round-trips bit-exact through the lossless int-for, key-for and
// raw sections.
func TestCompressedLosslessBitExact(t *testing.T) {
	s, domain := cosmoSet(3000, 11)
	cfg := compressedConfig(nil)
	f, _ := buildAndOpen(t, s, domain, cfg)
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

// TestDefaultBuildLosslessV4 pins what a build that declares no error bound
// writes: version 4, a footer that declares every attribute lossless with
// bound 0, and positions and attributes that read back bit for bit — NaN
// payloads, ±0, denormals and infinities included, through key-for and
// sign-key-for sections of both float types; an integral column that holds
// -0 keeps it too, in a key-for, sign-key-for or raw section (int-for would
// drop the sign).
// Bounds or a LOD scale set without Compress, or
// Compress without bounds, change no byte of it.
func TestDefaultBuildLosslessV4(t *testing.T) {
	negZero := math.Copysign(0, -1)
	special := []float64{0, negZero, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), math.Float64frombits(0x7ff8000000000123),
		math.Float64frombits(0xfff0000000000001), math.Inf(1), math.Inf(-1)}
	special32 := []float32{0, float32(negZero), math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), math.Float32frombits(0x7fc12345), math.Float32frombits(0xffc00001)}
	s, domain := cosmoSet(3000, 11)
	for i := range s.Attrs[1] {
		s.Attrs[1][i] = math.Round(s.Attrs[1][i]) // vx: integral, with -0 at resting particles
		if i%9 == 0 {
			s.Attrs[1][i] = negZero
		}
	}
	// The specials go to two corners only, so the nodes elsewhere keep narrow
	// key frames and mass and phi still store key sections. Mass and phi are
	// made negative: their order keys lie in the lower half of the key space,
	// so a node's key frame fits under the key limit whatever specials join
	// it, and the treelets around the corner at the origin, where every
	// particle takes a special, keep key-for. Around the far corner mass and
	// phi take alternating signs, and with a special at every fourth particle
	// there those treelets store sign-key-for. A counter over each corner's
	// particles cycles through every special of both types.
	written64, written32 := map[uint64]bool{}, map[uint32]bool{}
	near, far := 0, 0
	for i := 0; i < s.Len(); i++ {
		s.Attrs[0][i], s.Attrs[2][i] = -s.Attrs[0][i], s.Attrs[2][i]-2
		c := -1
		switch {
		case s.X[i] < 0.2 && s.Y[i] < 0.2:
			c = near
			near++
		case s.X[i] > 0.5 && s.Y[i] > 0.5:
			if i%2 == 0 {
				s.Attrs[0][i], s.Attrs[2][i] = -s.Attrs[0][i], -s.Attrs[2][i]
			}
			if far++; far%4 == 0 {
				c = far / 4
			}
		}
		if c < 0 {
			continue
		}
		v, v32 := special[c%len(special)], special32[c%len(special32)]
		s.Attrs[0][i] = v            // mass, float64
		s.Attrs[2][i] = float64(v32) // phi, float32
		written64[math.Float64bits(v)] = true
		written32[math.Float32bits(v32)] = true
	}
	if len(written64) != len(special) || len(written32) != len(special32) {
		t.Fatalf("the corners took %d of %d float64 and %d of %d float32 specials",
			len(written64), len(special), len(written32), len(special32))
	}
	for i := 0; i < s.Len(); i += 7 {
		k := i / 7
		if i%40 == 0 {
			s.X[i] = special32[k%len(special32)] // NaNs send a column to raw
		}
		if i%21 == 0 {
			s.Y[i] = special32[k%4] // ±0 and denormals stay in sorted-cell-for
		}
	}
	f, b := buildAndOpen(t, s, domain, DefaultBuildConfig())
	ci := f.Compression()
	for a := range s.Schema.Attrs {
		if ci.Bounds[a] != 0 {
			t.Fatalf("attribute %d declared bound %v, want lossless with 0", a, ci.Bounds[a])
		}
	}
	if ci.LODScale != 1 {
		t.Fatalf("LOD scale %v, want 1", ci.LODScale)
	}
	unapplied := DefaultBuildConfig()
	unapplied.AttrErrorBounds = []float64{0.5, 0.5, 0.5, 0}
	unscaled := DefaultBuildConfig()
	unscaled.LODErrorScale = 2
	noBounds := DefaultBuildConfig()
	noBounds.Compress = true
	for name, cfg := range map[string]BuildConfig{"bounds without Compress": unapplied,
		"LOD scale without Compress": unscaled, "Compress without bounds": noBounds} {
		if b2, err := Build(s, domain, cfg); err != nil || !bytes.Equal(b2.Buf, b.Buf) {
			t.Fatalf("%s changed the build (error %v)", name, err)
		}
	}
	byID := make(map[float64]int, s.Len())
	for i := 0; i < s.Len(); i++ {
		byID[s.Attrs[3][i]] = i
	}
	// Read treelet by treelet: a query's box test would skip a NaN coordinate.
	seen, codecs, rawAttr := 0, map[uint8]bool{}, false
	// The specials read back from key-for and from sign-key-for sections.
	keyed64, keyed32 := map[uint8]map[uint64]bool{}, map[uint8]map[uint32]bool{}
	for _, c := range []uint8{codecKeyFOR, codecSignKeyFOR} {
		keyed64[c], keyed32[c] = map[uint64]bool{}, map[uint32]bool{}
	}
	for ti := 0; ti < f.NumTreelets(); ti++ {
		pt, _, err := f.loadTreelet(context.Background(), ti)
		if err != nil {
			t.Fatal(err)
		}
		lay, err := f.TreeletLayout(context.Background(), ti)
		if err != nil {
			t.Fatal(err)
		}
		attrCodec := map[string]uint8{}
		for i, sec := range lay.Sections {
			codecs[sec.Codec] = true
			attrCodec[sec.Attr] = sec.Codec
			rawAttr = rawAttr || i >= PositionSections && sec.Codec == codecRaw
		}
		for i := range pt.attrs[0] {
			if b, c := math.Float64bits(pt.attrs[0][i]), attrCodec["mass"]; keyed64[c] != nil && written64[b] {
				keyed64[c][b] = true
			}
			if b, c := math.Float32bits(float32(pt.attrs[2][i])), attrCodec["phi"]; keyed32[c] != nil && written32[b] {
				keyed32[c][b] = true
			}
		}
		for i, id := range pt.attrs[3] {
			oi, ok := byID[id]
			if !ok {
				t.Fatalf("treelet %d: id %v read twice or never written", ti, id)
			}
			delete(byID, id)
			seen++
			for ax, cols := range [3][2][]float32{{pt.x, s.X}, {pt.y, s.Y}, {pt.z, s.Z}} {
				if g, w := math.Float32bits(cols[0][i]), math.Float32bits(cols[1][oi]); g != w {
					t.Fatalf("particle %v axis %d: position bits %#08x != %#08x", id, ax, g, w)
				}
			}
			for a := range s.Schema.Attrs {
				if g, w := math.Float64bits(pt.attrs[a][i]), math.Float64bits(typedValue(s.Attrs[a][oi], s.Schema.Attrs[a].Type)); g != w {
					t.Fatalf("particle %v attribute %d: bits %#016x != %#016x", id, a, g, w)
				}
			}
		}
	}
	if seen != s.Len() {
		t.Fatalf("read %d of %d particles", seen, s.Len())
	}
	for _, c := range []uint8{codecSortedCellFOR, codecRaw, codecIntFOR, codecKeyFOR, codecSignKeyFOR} {
		if !codecs[c] {
			t.Errorf("no %s section in the build (%v); the case is not exercised", CodecName(c), codecs)
		}
	}
	if !rawAttr {
		t.Error("no raw attribute section in the build; the case is not exercised")
	}
	for _, c := range []uint8{codecKeyFOR, codecSignKeyFOR} {
		if len(keyed64[c]) != len(special) || len(keyed32[c]) != len(special32) {
			t.Errorf("%s sections carried %d of %d float64 and %d of %d float32 specials",
				CodecName(c), len(keyed64[c]), len(special), len(keyed32[c]), len(special32))
		}
	}
}

// TestCompressedLODScale checks the multiresolution bound split: values
// referenced by LOD samples (inner-node ranges) may err up to
// bound*LODErrorScale, everything else up to bound. Which ranges hold LOD
// samples is read off the parsed node records, exactly as the decoder does.
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
		pt, _, err := f.loadTreelet(context.Background(), ti)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range pt.nodes {
			tol, lod := bound, n.axis != leafAxis
			if lod {
				tol = bound * scale
				sawLOD = sawLOD || n.count > 0
			}
			for i := n.start; i < n.start+n.count; i++ {
				oi, ok := byID[pt.attrs[3][i]]
				if !ok {
					t.Fatalf("treelet %d: unknown id %v", ti, pt.attrs[3][i])
				}
				if diff := math.Abs(pt.attrs[0][i] - s.Attrs[0][oi]); diff > tol {
					t.Fatalf("treelet %d index %d (lod=%v): error %v exceeds %v", ti, i, lod, diff, tol)
				}
			}
		}
	}
	if !sawLOD {
		t.Fatal("no LOD-classified values; test is vacuous")
	}
}

// TestCompressionInfoAndSections checks the footer accounting: the
// Compression() totals must equal both the BuildStats payload fields and
// the sum over every TreeletLayout section frame, and a smooth dataset at a
// loose bound must actually compress.
func TestCompressionInfoAndSections(t *testing.T) {
	s, domain := cosmoSet(5000, 13)
	bounds := []float64{1e-3, 1e-1, 1e-3, 0}
	f, b := buildAndOpen(t, s, domain, compressedConfig(bounds))
	ci := f.Compression()
	for a, want := range bounds {
		if ci.Bounds[a] != want {
			t.Fatalf("attr %d bound %v != %v", a, ci.Bounds[a], want)
		}
	}
	if ci.LODScale != 1 {
		t.Fatalf("LOD scale %v != 1", ci.LODScale)
	}
	if int64(ci.RawPayloadBytes) != b.Stats.AttrPayloadRawBytes ||
		int64(ci.EncPayloadBytes) != b.Stats.AttrPayloadEncBytes {
		t.Fatalf("payload totals %d/%d != stats %d/%d",
			ci.RawPayloadBytes, ci.EncPayloadBytes,
			b.Stats.AttrPayloadRawBytes, b.Stats.AttrPayloadEncBytes)
	}
	if ci.Ratio() < 2 {
		t.Fatalf("compression ratio %.2f < 2 on a smooth dataset", ci.Ratio())
	}
	// The payload totals stay attribute-only; the position rows add up to
	// the build's position totals.
	var sumRaw, sumEnc, posRaw, posEnc int
	for ti := 0; ti < f.NumTreelets(); ti++ {
		lay, err := f.TreeletLayout(context.Background(), ti)
		if err != nil {
			t.Fatal(err)
		}
		secs := lay.Sections
		for i, sec := range secs {
			if i < PositionSections {
				if sec.Attr != positionNames[i] || (sec.Codec != codecSortedCellFOR && sec.Codec != codecRaw) {
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
		t.Fatalf("section sums %d/%d != payload totals %d/%d",
			sumRaw, sumEnc, ci.RawPayloadBytes, ci.EncPayloadBytes)
	}
	if int64(posEnc) != b.Stats.PosPayloadEncBytes {
		t.Fatalf("position section sum %d != stats %d", posEnc, b.Stats.PosPayloadEncBytes)
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
	c1.AttrErrorBounds = []float64{-1, 0, 0, 0}
	bad = append(bad, c1)
	c2 := DefaultBuildConfig()
	c2.Compress = true
	c2.AttrErrorBounds = []float64{math.Inf(1), 0, 0, 0}
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

// TestIntFORGate holds the lossless encoder's int-for gate to its edges: a
// column whose type-rounded values are all integers within ±2^52, none -0,
// whose span fits the 48-bit grid, is int-for and reads back bit for bit;
// -0, NaN, a value one past 2^52 and a span of 2^48 each send the column to a
// key codec instead, which reads back bit for bit too.
func TestIntFORGate(t *testing.T) {
	counts := []int{5, 40, 0, 30}
	column := func(v func(i int) float64) []float64 {
		col := make([]float64, 75)
		for i := range col {
			col[i] = v(i)
		}
		return col
	}
	ids := func(i int) float64 { return float64(1000 + i) }
	with := func(at int, x float64) func(i int) float64 {
		return func(i int) float64 {
			if i == at {
				return x
			}
			return ids(i)
		}
	}
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		name string
		typ  particles.AttrType
		col  []float64
		want uint8
	}{
		{"ids", particles.Float64, column(ids), codecIntFOR},
		{"2-bit tags, float32", particles.Float32, column(func(i int) float64 { return float64(i * 7 % 4) }), codecIntFOR},
		{"up to +2^52", particles.Float64, column(func(i int) float64 { return integralMagnitude - float64(i) }), codecIntFOR},
		{"down to -2^52", particles.Float64, column(func(i int) float64 { return -integralMagnitude + float64(i) }), codecIntFOR},
		{"span of 2^48 - 1", particles.Float64, column(with(40, 1000+1<<maxQuantBits-1)), codecIntFOR},
		{"-0", particles.Float64, column(with(40, negZero)), codecKeyFOR},
		{"NaN", particles.Float64, column(with(40, math.NaN())), codecKeyFOR},
		{"one past +2^52", particles.Float64, column(func(i int) float64 { return integralMagnitude + 1 - float64(i) }), codecKeyFOR},
		{"one past -2^52", particles.Float64, column(func(i int) float64 { return -integralMagnitude - 1 + float64(i) }), codecKeyFOR},
		{"span of 2^48", particles.Float64, column(with(40, 1000+1<<maxQuantBits)), codecKeyFOR},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := forTreelet(counts)
			var a buildArena
			enc := encodeAttr(tc.col, tr, tc.typ, 0, 1, &a)
			if enc.codec != tc.want {
				t.Fatalf("stored as %s (%d bytes), want %s", CodecName(enc.codec), len(enc.data), CodecName(tc.want))
			}
			got, err := decodeAttr(enc.codec, enc.data, testBlocks(tr.nodes, len(tc.col), noCells), tc.typ, 0, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range tc.col {
				if g, w := math.Float64bits(got[i]), math.Float64bits(typedValue(v, tc.typ)); g != w {
					t.Fatalf("value %d: bits %#016x, want %#016x", i, g, w)
				}
			}
		})
	}
}

// TestBitPackRoundTrip fuzzes the one pack loop against the one unpack loop
// across every width up to maxQuantBits, random bases and block lengths, with
// blocks packed back to back so most start at a carried bit offset.
func TestBitPackRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		width := uint8(r.Intn(maxQuantBits + 1))
		n := r.Intn(600)
		base := r.Uint64() >> (16 + r.Intn(48))
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = base + r.Uint64()&(1<<width-1)
		}
		fr := forFrame{base: base, width: width}
		if n > 1 {
			vals[0], vals[n-1] = base, base+1<<width-1 // both ends of the frame occur
			if got := frameOf(vals); got != fr {
				t.Fatalf("trial %d: frameOf = %+v, want %+v", trial, got, fr)
			}
		}
		lead := r.Intn(5)
		buf := make([]byte, lead+packedLen(n, width)+packSlack)
		end := packBlock(buf, lead, vals, fr)
		if end != lead+packedLen(n, width) {
			t.Fatalf("trial %d: %d values of %d bits ended at byte %d, want %d", trial, n, width, end, lead+packedLen(n, width))
		}
		// Read it back in two runs, the second from wherever the first ended.
		got := make([]uint64, n)
		cut := 0
		if n > 0 {
			cut = r.Intn(n)
		}
		src := buf[:end]
		unpackBits(got[:cut], src, 8*lead, width)
		unpackBits(got[cut:], src, 8*lead+cut*int(width), width)
		for i := range vals {
			if base+got[i] != vals[i] {
				t.Fatalf("trial %d (width %d) index %d: %d != %d", trial, width, i, base+got[i], vals[i])
			}
		}
	}
}

// TestBitPackEveryWidth packs a block of every width 0..64 from every start
// bit 0..7 and holds the stream to a bit-by-bit LSB-first reference — the
// wide lane above laneBits included — with the bits below the start kept,
// and reads it back whole and one value at a time.
func TestBitPackEveryWidth(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	const n = 13
	for width := uint8(0); width <= 64; width++ {
		for start := 0; start < 8; start++ {
			base := r.Uint64() >> width // 0 at width 64: base + offset never wraps
			vals := make([]uint64, n)
			for i := range vals {
				vals[i] = base + r.Uint64()&(uint64(1)<<width-1)
			}
			vals[n-1] = base + (uint64(1)<<width - 1) // every bit of the widest offset
			lead := byte(r.Intn(256))
			buf := make([]byte, packedLen(n, width)+1+packSlack)
			buf[0] = lead
			end := packBits(buf, start, vals, forFrame{base: base, width: width})
			if want := start + n*int(width); end != want {
				t.Fatalf("width %d start %d: packBits ended at bit %d, want %d", width, start, end, want)
			}
			ref := make([]byte, (end+7)/8+1)
			ref[0] = lead & (1<<start - 1)
			for i, v := range vals {
				for j := 0; j < int(width); j++ {
					if (v-base)>>j&1 == 1 {
						b := start + i*int(width) + j
						ref[b>>3] |= 1 << (b & 7)
					}
				}
			}
			if got := buf[:(end+7)/8]; !bytes.Equal(got, ref[:len(got)]) {
				t.Fatalf("width %d start %d: stream %x, want %x", width, start, got, ref[:len(got)])
			}
			src := buf[:max(1, (end+7)/8)]
			got := make([]uint64, n)
			unpackBits(got, src, start, width)
			for i := range vals {
				var one [1]uint64
				unpackBits(one[:], src, start+i*int(width), width)
				if base+got[i] != vals[i] || base+one[0] != vals[i] {
					t.Fatalf("width %d start %d value %d: read %#x and %#x, want %#x", width, start, i, base+got[i], base+one[0], vals[i])
				}
			}
		}
	}
}

// TestKeyFORRoundTripProperty is the lossless attribute codecs' guarantee at
// the section level: over random treelet shapes whose node ranges are
// coherent, constant, coherent magnitudes under random signs, zero-mean noise
// (order keys 63-64 bits apart) or the float values no arithmetic keeps —
// NaNs with quiet and signalling payloads of either sign, -0 next to +0, ±Inf,
// denormals, ±MaxFloat — in both schema types, a column that key-for or
// sign-key-for shrinks reads back bit for bit, in either frame mode —
// per-node frames 64 bits wide on a base above 0 included —, and every
// special of either type reads back through both key maps.
func TestKeyFORRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	bitsOf, bits32 := math.Float64frombits, func(b uint32) float64 { return float64(math.Float32frombits(b)) }
	specials := map[particles.AttrType][]float64{
		particles.Float64: {bitsOf(0x7ff8000000000001), bitsOf(0x7ff0000000000001), bitsOf(0xfff8000000abcdef),
			bitsOf(0xfff0000000000002), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
			math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, bitsOf(0x000fffffffffffff), bitsOf(0x800fffffffffffff),
			math.MaxFloat64, -math.MaxFloat64, bits32(0x7fc12345), bits32(0x00000001)},
		// Quiet NaNs only: a float32 signalling NaN widened to float64 comes
		// back quiet, so no Float32 column holds one.
		particles.Float32: {bits32(0x7fc12345), bits32(0xffc00001), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
			math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, bits32(0x007fffff), bits32(0x807fffff),
			math.MaxFloat32, -math.MaxFloat32},
	}
	seen := map[string]int{}
	carried := map[string]map[uint64]bool{} // codec and type -> the specials read back from its sections
	for trial := 0; trial < 600; trial++ {
		typ := particles.Float64
		if trial%3 == 0 {
			typ = particles.Float32
		}
		special := specials[typ]
		var counts []int
		var col []float64
		kinds := map[string]bool{}
		for b, nb := 0, 1+r.Intn(10); b < nb; b++ {
			kind := []string{"coherent", "coherent", "coherent", "coherent", "coherent", "constant", "noise", "special", "signed", "signed"}[r.Intn(10)]
			c := r.Intn(120)
			if kind == "noise" || kind == "special" {
				c = r.Intn(12) // a few wide blocks among narrow ones still pay
			}
			counts = append(counts, c)
			mag := math.Pow(10, float64(r.Intn(600)-300))
			centre := (r.Float64() - 0.5) * mag
			for i := 0; i < c; i++ {
				v := centre
				switch kind {
				case "coherent":
					v += r.Float64() * mag * 1e-6
				case "signed":
					v = math.Copysign(math.Abs(centre)+r.Float64()*mag*1e-6, r.Float64()-0.5)
				case "noise":
					v = r.NormFloat64()
				case "special":
					v = special[r.Intn(len(special))]
				}
				col = append(col, v)
			}
			kinds[kind] = kinds[kind] || c > 0
		}
		tr := forTreelet(counts)
		var a buildArena
		enc := encodeAttr(col, tr, typ, 0, 1, &a)
		if enc.codec != codecKeyFOR && enc.codec != codecSignKeyFOR {
			seen["neither key codec"]++
			continue
		}
		name := CodecName(enc.codec)
		if len(enc.data) >= len(col)*typ.Size() {
			t.Fatalf("trial %d: %s section of %d bytes for %d raw ones", trial, name, len(enc.data), len(col)*typ.Size())
		}
		var info SectionInfo
		got, err := decodeAttr(enc.codec, enc.data, testBlocks(tr.nodes, len(col), noCells), typ, 0, 1, &info)
		if err != nil {
			t.Fatalf("trial %d (%s, %v, blocks %v): %v", trial, name, typ, counts, err)
		}
		key := fmt.Sprintf("%s %v", name, typ)
		if carried[key] == nil {
			carried[key] = map[uint64]bool{}
		}
		for i, v := range col {
			g, w := math.Float64bits(got[i]), math.Float64bits(typedValue(v, typ))
			if g != w {
				t.Fatalf("trial %d (%s, %v) value %d: bits %#016x, want %#016x", trial, name, typ, i, g, w)
			}
			for _, sp := range special {
				if math.Float64bits(sp) == w {
					carried[key][w] = true
				}
			}
		}
		seen[fmt.Sprintf("%s %v %s", name, typ, info.Mode)]++
		for kind := range kinds {
			seen[name+" "+kind]++
		}
		for _, w := range info.Widths {
			if w == 0 {
				seen[name+" width 0"]++
			}
			if w >= 63 {
				seen[name+" width 63-64"]++
			}
			if w == 64 && info.Mode == "per-node-cols" {
				seen[name+" per-node width 64"]++ // wider than base + 2^64 - 1 can stay: offsets checked one by one
			}
		}
	}
	for _, codec := range []string{"key-for", "sign-key-for"} {
		for _, want := range []string{"float32 one-frame", "float32 per-node-cols", "float64 one-frame", "float64 per-node-cols",
			"special", "noise", "constant", "width 0", "width 63-64", "per-node width 64"} {
			if seen[codec+" "+want] < 3 {
				t.Errorf("%d %s sections with %q: the property is near vacuous there (%v)", seen[codec+" "+want], codec, want, seen)
			}
		}
		for typ, special := range specials {
			if got := carried[fmt.Sprintf("%s %v", codec, typ)]; len(got) != len(special) {
				t.Errorf("%s sections of %v carried %d of the %d specials", codec, typ, len(got), len(special))
			}
		}
	}
	t.Run("an all-equal column is one frame of width 0", func(t *testing.T) {
		counts := []int{8, 90, 0, 70}
		col := make([]float64, 168)
		for i := range col {
			col[i] = -7.25
		}
		tr := forTreelet(counts)
		var a buildArena
		enc := encodeAttr(col, tr, particles.Float64, 0, 1, &a)
		var info SectionInfo
		if _, err := decodeAttr(enc.codec, enc.data, testBlocks(tr.nodes, len(col), noCells), particles.Float64, 0, 1, &info); err != nil ||
			enc.codec != codecKeyFOR || info.Mode != "one-frame" || len(info.Widths) != 1 || info.Widths[0] != 0 {
			t.Fatalf("encoded as %s %s widths %v (error %v), want key-for one-frame of width 0", CodecName(enc.codec), info.Mode, info.Widths, err)
		}
		if want := keyFORHeaderLen + uvarintLen(f64Key(math.Float64bits(-7.25))) + 1; len(enc.data) != want {
			t.Fatalf("%d equal values in %d bytes, want %d (mode, base, width 0)", len(col), len(enc.data), want)
		}
	})
}

// TestSignKeyChoiceProperty holds the encoder's choice between the two key
// maps to brute force: over random columns of one sign or of both, in both
// schema types, encodeKeys — which sizes the sign-key stream from the
// order-key frames and scans only the nodes that hold both signs — stores
// exactly the shorter of the two streams packed from every value (key-for on
// a tie), or raw when neither is shorter. On a column of one sign every node's
// sign-key frame is its order-key frame one bit wider, or zero bits wide where
// that is: the blocks never get shorter, so such a column can take
// sign-key-for only for shorter frames, and does for a few of them (a constant
// column of positives: its order-key base takes ten uvarint bytes, its
// sign-key base nine). A zero-mean column takes sign-key-for.
func TestSignKeyChoiceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	seen := map[string]int{}
	for trial := 0; trial < 1200; trial++ {
		typ := particles.Float64
		if trial%3 == 0 {
			typ = particles.Float32
		}
		signs := []string{"positive", "negative", "both"}[trial/3%3]
		var counts []int
		var col []float64
		for b, nb := 0, 1+r.Intn(10); b < nb; b++ {
			c := r.Intn(120)
			if r.Intn(4) == 0 {
				c = r.Intn(3)
			}
			counts = append(counts, c)
			mag := math.Pow(10, float64(r.Intn(40)-20))
			centre, kind := r.Float64()*mag, r.Intn(3)
			// The share of the block's values that are negative: in a column
			// of both signs none, half or all, block by block.
			neg := map[string]float64{"positive": 0, "negative": 1, "both": []float64{0, 0.5, 1}[r.Intn(3)]}[signs]
			for i := 0; i < c; i++ {
				v := centre
				switch kind {
				case 0:
					v += r.Float64() * mag * 1e-6
				case 1:
					v = r.Float64() * mag
				}
				if r.Float64() < neg {
					v = -v
				}
				col = append(col, typedValue(v, typ))
			}
		}
		if len(col) == 0 {
			continue
		}
		tr := forTreelet(counts)
		var a buildArena
		rawLen := len(col) * typ.Size()
		enc := encodeKeys(col, typ, tr, rawLen, &a)
		orderKeys, signKeys := orderKeys(nil, col, typ), signKeys(nil, col, typ)
		order, _ := packFramed(orderKeys, tr, keyFORHeaderLen, keyLimit(typ), math.MaxInt, &a)
		sign, _ := packFramed(signKeys, tr, keyFORHeaderLen, keyLimit(typ), math.MaxInt, &a)
		want := encodedAttr{codec: codecRaw}
		switch {
		case min(len(order), len(sign)) >= rawLen:
		case len(order) <= len(sign):
			want = encodedAttr{codec: codecKeyFOR, data: order}
		default:
			want = encodedAttr{codec: codecSignKeyFOR, data: sign}
		}
		if enc.codec != want.codec || !bytes.Equal(enc.data, want.data) {
			t.Fatalf("trial %d (%v %s, blocks %v): stored %s in %d bytes; key-for takes %d, sign-key-for %d, raw %d",
				trial, typ, signs, counts, CodecName(enc.codec), len(enc.data), len(order), len(sign), rawLen)
		}
		seen[signs+" "+CodecName(enc.codec)]++
		if signs == "both" {
			continue
		}
		orderFrames, signFrames := make([]blockFrame, len(counts)), make([]blockFrame, len(counts))
		setFrames(orderFrames, orderKeys, tr)
		setFrames(signFrames, signKeys, tr)
		for i, fr := range orderFrames {
			if w := signFrames[i].width; w != fr.width+1 && !(w == 0 && fr.width == 0) {
				t.Fatalf("trial %d (%v %s) node %d: sign-key frame %d bits wide, order-key frame %d", trial, typ, signs, i, w, fr.width)
			}
		}
	}
	t.Logf("sections stored: %v", seen)
	for _, want := range []string{"positive key-for", "negative key-for", "both sign-key-for", "both key-for"} {
		if seen[want] < 20 {
			t.Errorf("%d columns of %q: the property is near vacuous there (%v)", seen[want], want, seen)
		}
	}

	t.Run("a zero-mean column takes sign-key-for", func(t *testing.T) {
		counts := []int{8, 90, 8, 70, 0, 1, 8, 120}
		for _, typ := range []particles.AttrType{particles.Float32, particles.Float64} {
			var col []float64
			for _, c := range counts {
				for i := 0; i < c; i++ {
					col = append(col, typedValue(r.NormFloat64(), typ))
				}
			}
			tr := forTreelet(counts)
			var a buildArena
			enc := encodeAttr(col, tr, typ, 0, 1, &a)
			got, err := decodeAttr(enc.codec, enc.data, testBlocks(tr.nodes, len(col), noCells), typ, 0, 1, nil)
			if err != nil || enc.codec != codecSignKeyFOR {
				t.Fatalf("%v: encoded as %s (error %v), want sign-key-for", typ, CodecName(enc.codec), err)
			}
			for i, v := range col {
				if math.Float64bits(got[i]) != math.Float64bits(v) {
					t.Fatalf("%v value %d: %v, want %v", typ, i, got[i], v)
				}
			}
		}
	})
}

// TestSignKeyInverse: the sign keys are bijections that move the sign bit to
// the lowest bit, so a value and its negation are neighbours, and signOfOrder
// takes an order key to the same value's sign key.
func TestSignKeyInverse(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 10000; i++ {
		b64, b32 := r.Uint64(), r.Uint32()
		if signFromKey64(signKey64(b64)) != b64 || signKey64(signFromKey64(b64)) != b64 {
			t.Fatalf("bits %#016x do not round-trip", b64)
		}
		if signFromKey32(signKey32(b32)) != b32 || signKey32(signFromKey32(b32)) != b32 {
			t.Fatalf("bits %#08x do not round-trip", b32)
		}
		if got := signOfOrder(f64Key(b64), 1<<63); got != signKey64(b64) {
			t.Fatalf("bits %#016x: signOfOrder gives %#x, signKey64 %#x", b64, got, signKey64(b64))
		}
		if got := signOfOrder(uint64(f32Key(b32)), 1<<31); got != uint64(signKey32(b32)) {
			t.Fatalf("bits %#08x: signOfOrder gives %#x, signKey32 %#x", b32, got, signKey32(b32))
		}
	}
	for _, v := range []float64{0, 1, 2.5, math.SmallestNonzeroFloat64, math.MaxFloat64, math.Inf(1), math.NaN()} {
		if p, n := signKey64(math.Float64bits(v)), signKey64(math.Float64bits(-v)); n != p+1 {
			t.Fatalf("keys of %v and its negation: %#x and %#x, want neighbours", v, p, n)
		}
		if p, n := signKey32(math.Float32bits(float32(v))), signKey32(math.Float32bits(-float32(v))); n != p+1 {
			t.Fatalf("float32 keys of %v and its negation: %#x and %#x, want neighbours", v, p, n)
		}
	}
}

// TestF64KeyOrderAndInverse: f64Key is a bijection whose unsigned order is the
// numeric order of the floats, like f32Key.
func TestF64KeyOrderAndInverse(t *testing.T) {
	ordered := []float64{math.Inf(-1), -math.MaxFloat64, -1, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 1, math.MaxFloat64, math.Inf(1)}
	for i := 1; i < len(ordered); i++ {
		if lo, hi := f64Key(math.Float64bits(ordered[i-1])), f64Key(math.Float64bits(ordered[i])); lo >= hi {
			t.Fatalf("key(%v) = %#x is not below key(%v) = %#x", ordered[i-1], lo, ordered[i], hi)
		}
	}
	r := rand.New(rand.NewSource(5))
	for _, b := range []uint64{0, 1, 1 << 63, 1<<63 | 1, 0x7ff0000000000001, 0xfff8000000000123, math.MaxUint64} {
		if got := f64FromKey(f64Key(b)); got != b {
			t.Fatalf("bits %#016x came back as %#016x", b, got)
		}
	}
	for i := 0; i < 10000; i++ {
		if b := r.Uint64(); f64FromKey(f64Key(b)) != b || f64Key(f64FromKey(b)) != b {
			t.Fatalf("bits %#016x do not round-trip", b)
		}
	}
}

// forTreelet lays a column out as a treelet whose node ranges hold counts[i]
// values each, in order — the shape the block encoders and decoders agree on.
// Even nodes are inner nodes (their ranges hold LOD samples), odd ones leaves.
func forTreelet(counts []int) *treelet {
	t := &treelet{}
	for i, c := range counts {
		nd := node{axis: leafAxis, start: uint32(len(t.order)), count: uint32(c)}
		if i%2 == 0 {
			nd.axis = uint8(geom.X)
		}
		t.nodes = append(t.nodes, nd)
		for i := 0; i < c; i++ {
			t.order = append(t.order, len(t.order))
		}
	}
	return t
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
	if lo, hi := keyOf(float32(math.Inf(-1))), keyOf(float32(math.Inf(1))); lo != keyNegInf || hi != keyPosInf {
		t.Fatalf("keys of the infinities %#x, %#x; the constants say %#x, %#x", lo, hi, keyNegInf, keyPosInf)
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

// TestCellFORRoundTripProperty is the position codec's guarantee, through the
// real k-d builder and the real read path: over random sets cut into random
// treelets — scatter around the origin (negative and positive keys), a clump
// of coincident particles that no plane splits, coordinates snapped to a
// lattice so duplicates lie on the split planes, ±0 and denormals around
// zero, NaN and ±Inf coordinates, empty treelets and treelets of one node —
// every float32 bit pattern comes back unchanged, every section is
// sorted-cell-for or raw, a column with a NaN in it is raw and exact, and the bounds the
// header stores for a treelet are the extremes of its coordinates.
func TestCellFORRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	negZero := float32(math.Copysign(0, -1))
	tiny := []float32{0, negZero, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff), 1e-30, -1e-30, 1, -1}
	odd := []float32{float32(math.NaN()), math.Float32frombits(0xffc12345), float32(math.Inf(1)), float32(math.Inf(-1))}
	kinds := map[string]int{}
	shapes := map[string]int{}
	for trial := 0; trial < 60; trial++ {
		n := 1 + r.Intn(2500)
		shape := []string{"scatter", "clump", "lattice", "around zero", "non-finite"}[trial%5]
		set := particles.NewSet(particles.NewSchema("a"), n)
		coord := func() float32 {
			switch shape {
			case "lattice":
				return float32(r.Intn(9)-4) / 4 // exact multiples of 1/4, negative and positive
			case "around zero":
				return tiny[r.Intn(len(tiny))] * float32(1+r.Intn(3))
			}
			return float32(r.NormFloat64() * 0.2)
		}
		clump := [3]float32{coord(), coord(), coord()}
		for i := 0; i < n; i++ {
			c := [3]float32{coord(), coord(), coord()}
			if shape == "clump" && i%3 != 0 {
				c = clump
			}
			if shape == "non-finite" && r.Intn(40) == 0 {
				c[0] = odd[r.Intn(len(odd))] // x only: y and z keep their cells
			}
			set.X, set.Y, set.Z = append(set.X, c[0]), append(set.Y, c[1]), append(set.Z, c[2])
			set.Attrs[0] = append(set.Attrs[0], float64(i))
		}
		domain := geom.NewBox(geom.V3(-2, -2, -2), geom.V3(2, 2, 2))
		cfg := DefaultBuildConfig()
		cfg.MaxLeafSize = 1 + r.Intn(64)
		cfg.LODPerNode = 1 + r.Intn(min(cfg.MaxLeafSize, 8))
		cfg.Compress = true
		cuts := []int{r.Intn(n + 1), r.Intn(n + 1), r.Intn(n + 1)}
		cuts[2] = cuts[1] // the group between is empty
		sort.Ints(cuts)
		treelets, f := packedTreelets(t, set, domain, cfg, cuts)
		for ti, bt := range treelets {
			pt, _, err := f.loadTreelet(context.Background(), ti)
			if err != nil {
				t.Fatalf("trial %d (%s) treelet %d: %v", trial, shape, ti, err)
			}
			lay, err := f.TreeletLayout(context.Background(), ti)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case len(bt.nodes) == 0:
				shapes["empty"]++
			case len(bt.nodes) == 1 && len(bt.order) > cfg.MaxLeafSize:
				shapes["coincident leaf"]++
			case len(bt.nodes) == 1:
				shapes["one node"]++
			}
			for ax, col := range [3][]float32{set.X, set.Y, set.Z} {
				got := [3][]float32{pt.x, pt.y, pt.z}[ax]
				if len(got) != len(bt.order) {
					t.Fatalf("trial %d (%s) treelet %d: %d of %d points", trial, shape, ti, len(got), len(bt.order))
				}
				lo, hi, hasNaN := float32(math.Inf(1)), float32(math.Inf(-1)), false
				for i, p := range bt.order {
					if g, w := math.Float32bits(got[i]), math.Float32bits(col[p]); g != w {
						t.Fatalf("trial %d (%s) treelet %d axis %d point %d: %#08x != %#08x", trial, shape, ti, ax, i, g, w)
					}
					lo, hi, hasNaN = min(lo, col[p]), max(hi, col[p]), hasNaN || col[p] != col[p]
				}
				sec := lay.Sections[ax]
				if sec.Codec != codecSortedCellFOR && sec.Codec != codecRaw || sec.FrameBytes != 0 || (hasNaN && sec.Codec != codecRaw) {
					t.Fatalf("trial %d (%s) treelet %d axis %d: a %s section with %d frame bytes (NaN in the column: %v)",
						trial, shape, ti, ax, CodecName(sec.Codec), sec.FrameBytes, hasNaN)
				}
				if len(bt.order) > 0 {
					kinds[shape+" "+CodecName(sec.Codec)]++
				}
				// min and max order -0 below +0, as the keys do, and skip nothing
				// but NaN, which they would return: scan those columns by key.
				b := cellBounds(f.leaves[ti].cells)
				if gl, gh := b.Lower.Component(geom.Axis(ax)), b.Upper.Component(geom.Axis(ax)); !hasNaN && len(bt.order) > 0 &&
					(math.Float64bits(gl) != math.Float64bits(float64(lo)) || math.Float64bits(gh) != math.Float64bits(float64(hi))) {
					t.Fatalf("trial %d (%s) treelet %d axis %d: stored bounds [%v, %v], coordinates span [%v, %v]", trial, shape, ti, ax, gl, gh, lo, hi)
				}
			}
		}
	}
	for _, want := range []string{"scatter sorted-cell-for", "clump sorted-cell-for", "lattice sorted-cell-for", "around zero sorted-cell-for", "non-finite sorted-cell-for", "non-finite raw"} {
		if kinds[want] < 5 {
			t.Errorf("%d %q sections: the property is near vacuous there (all: %v)", kinds[want], want, kinds)
		}
	}
	for _, want := range []string{"empty", "coincident leaf", "one node"} {
		if shapes[want] == 0 {
			t.Errorf("no %s treelet among the trials: %v", want, shapes)
		}
	}
}

// TestCellFORBoundsHandOff: the treelet bounds have one source, the key
// extremes sortNodes takes from the keys encodeTreeletPositions packs. A number
// outside the root cell those keys are said to span — a second scan that
// disagrees with the first — fails the build; a NaN, which no scan counts, only
// sends its column to raw.
func TestCellFORBoundsHandOff(t *testing.T) {
	set := particles.NewSet(particles.NewSchema(), 200)
	for i := 0; i < 200; i++ {
		set.Append(geom.V3(float64(i)/200, 0.5, -float64(i%7)), nil)
	}
	idx := make([]int, set.Len())
	for i := range idx {
		idx[i] = i
	}
	var a buildArena
	tr := buildTreelet(set, idx, DefaultBuildConfig(), &a)
	sortNodes(set, tr, &a)
	if err := encodeTreeletPositions(tr, &a); err != nil {
		t.Fatal(err)
	}
	if want := boxOf(set, tr.order); cellBounds(tr.cells) != want {
		t.Fatalf("cells give bounds %v, a scan of the coordinates %v", cellBounds(tr.cells), want)
	}
	keys := make([]uint64, len(tr.order))
	for i, p := range tr.order {
		keys[i] = uint64(keyOf(set.X[p]))
	}
	if enc, err := encodeCellFOR(keys, tr, &a.kd, geom.X); err != nil || enc.codec != codecSortedCellFOR {
		t.Fatalf("the x column under its own cell: %s, %v", CodecName(enc.codec), err)
	}
	short := tr.cells
	short[0].hi-- // the largest x is now outside the bounds
	var shortKD kdCells
	shortKD.derive(tr.nodes, short)
	if _, err := encodeCellFOR(keys, tr, &shortKD, geom.X); err == nil || !strings.Contains(err.Error(), "outside the treelet bounds") {
		t.Fatalf("a root cell that misses a coordinate: error %v", err)
	}
	keys[len(keys)/2] = uint64(keyOf(float32(math.NaN())))
	if enc, err := encodeCellFOR(keys, tr, &a.kd, geom.X); err != nil || enc.codec != codecRaw {
		t.Fatalf("a NaN in the column: %s, %v; want the raw fallback", CodecName(enc.codec), err)
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
	cfg.AttrErrorBounds = []float64{1e-2, 1e-2}
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

// quantRoundTrip encodes col (blocked by counts, see forTreelet) under bound
// and lodScale and, when the encoder chose codecQuantFOR, decodes it against
// the same declaration and holds every value to its range's bound: bound in
// leaf ranges, bound·lodScale in inner-node ranges. A column it could not
// quantize must fall back to the lossless key-for or sign-key-for, which read
// back bit for bit, or to raw. It returns the section and what the decoder reported about
// its frames.
func quantRoundTrip(t *testing.T, col []float64, counts []int, typ particles.AttrType, bound, lodScale float64) (encodedAttr, SectionInfo) {
	t.Helper()
	tr := forTreelet(counts)
	if len(tr.order) != len(col) {
		t.Fatalf("counts cover %d of %d values", len(tr.order), len(col))
	}
	var a buildArena
	enc := encodeAttr(col, tr, typ, bound, lodScale, &a)
	var info SectionInfo
	switch {
	case enc.codec == codecRaw && enc.data == nil:
		return enc, info
	case enc.codec == codecKeyFOR || enc.codec == codecSignKeyFOR:
		bound = 0
	case enc.codec != codecQuantFOR:
		t.Fatalf("a lossy column encoded as %s (%d bytes); want quant-for or a lossless fallback", CodecName(enc.codec), len(enc.data))
	}
	if len(enc.data) >= len(col)*typ.Size() {
		t.Fatalf("%s section of %d bytes is not smaller than the %d raw ones", CodecName(enc.codec), len(enc.data), len(col)*typ.Size())
	}
	nb := testBlocks(tr.nodes, len(col), noCells)
	got, err := decodeAttr(enc.codec, enc.data, nb, typ, bound, lodScale, &info)
	if err != nil {
		t.Fatalf("decoding %d values in blocks %v: %v", len(col), counts, err)
	}
	if bound == 0 {
		for i, v := range col {
			if g, w := math.Float64bits(got[i]), math.Float64bits(typedValue(v, typ)); g != w {
				t.Fatalf("%s value %d: bits %#016x, want %#016x", CodecName(enc.codec), i, g, w)
			}
		}
		return enc, info
	}
	for _, n := range tr.nodes {
		tol := bound
		if n.axis != leafAxis {
			tol = bound * lodScale
		}
		for i := n.start; i < n.start+n.count; i++ {
			if want := typedValue(col[i], typ); !(math.Abs(got[i]-want) <= tol) {
				t.Fatalf("value %d (blocks %v, bound %g, scale %g): |%v - %v| = %g exceeds %g",
					i, counts, bound, lodScale, got[i], want, math.Abs(got[i]-want), tol)
			}
		}
	}
	return enc, info
}

// TestQuantFORMaxErrorProperty is the attribute codec's guarantee at the
// section level: over random block shapes (empty and single-element ranges
// included), magnitudes from 1e-6 to 1e9, bounds from far below one ulp
// (lossless fallback) up to the whole range (width 0), grids fine enough to
// put the indices near 2^48, both schema types and LODErrorScale 1 and 4, a
// section either decodes within its bounds or falls back to key-for or
// sign-key-for, which read back bit for bit, or to raw.
func TestQuantFORMaxErrorProperty(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	var quant, raw, wide int
	modes := map[string]int{}
	for trial := 0; trial < 400; trial++ {
		var counts []int
		for b, nb := 0, 1+r.Intn(12); b < nb; b++ {
			c := r.Intn(150)
			if r.Intn(4) == 0 {
				c = r.Intn(2)
			}
			counts = append(counts, c)
		}
		mag := math.Pow(10, float64(r.Intn(16)-6))
		centre := (r.Float64() - 0.5) * mag
		coherent := r.Intn(2) == 0
		var col []float64
		for _, c := range counts {
			local := centre
			if coherent {
				local += (r.Float64() - 0.5) * mag // each node range has its own neighbourhood
			}
			spread := mag
			if coherent {
				spread = mag / 256
			}
			for i := 0; i < c; i++ {
				col = append(col, local+(r.Float64()-0.5)*spread)
			}
		}
		typ := particles.Float64
		if r.Intn(3) == 0 {
			typ = particles.Float32
		}
		// 10^-18 .. 10^1 of the magnitude: from below a float64 ulp, through
		// grids of ~2^48 cells, to one cell for everything.
		bound := mag * math.Pow(10, 1-19*r.Float64())
		lodScale := []float64{1, 4}[r.Intn(2)]
		enc, info := quantRoundTrip(t, col, counts, typ, bound, lodScale)
		if enc.codec != codecQuantFOR {
			raw++ // a lossless fallback
			continue
		}
		quant++
		modes[info.Mode]++
		for _, w := range info.Widths {
			if w > 40 {
				wide++
				break
			}
		}
	}
	if quant < 150 || raw < 30 || wide < 5 || modes["one-frame"] < 20 || modes["per-node-cols"] < 20 {
		t.Fatalf("%d quant-for sections (%v, %d with a block over 40 bits), %d lossless fallbacks: the property is near vacuous somewhere", quant, modes, wide, raw)
	}
}

// TestQuantFORModes pins the column shapes that force each frame mode and the
// ends of the width range.
func TestQuantFORModes(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	counts := []int{8, 90, 8, 70, 0, 1, 8, 120, 0}
	n := 0
	for _, c := range counts {
		n += c
	}
	noise := make([]float64, n)
	smooth := make([]float64, 0, n)
	constant := make([]float64, n)
	for i := range noise {
		noise[i] = r.Float64()
		constant[i] = -7.25
	}
	for b, c := range counts {
		for i := 0; i < c; i++ {
			smooth = append(smooth, float64(b)/10+0.01*r.Float64())
		}
	}
	const bound = 1e-3
	for _, tc := range []struct {
		name     string
		col      []float64
		mode     string
		maxWidth uint8
	}{
		{"noise keeps one frame", noise, "one-frame", 9},
		{"node-coherent values take a frame per node", smooth, "per-node-cols", 3},
		{"a constant column is width 0", constant, "one-frame", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			enc, info := quantRoundTrip(t, tc.col, counts, particles.Float64, bound, 1)
			if enc.codec != codecQuantFOR || info.Mode != tc.mode {
				t.Fatalf("encoded as %s %s, want quant-for %s", CodecName(enc.codec), info.Mode, tc.mode)
			}
			for _, w := range info.Widths {
				if w > tc.maxWidth {
					t.Fatalf("block widths %v, want none above %d", info.Widths, tc.maxWidth)
				}
			}
			if tc.mode == "per-node-cols" && len(info.Widths) != len(counts) {
				t.Fatalf("%d frames for %d node ranges", len(info.Widths), len(counts))
			}
		})
	}
	t.Run("constant column is eleven bytes", func(t *testing.T) {
		enc, _ := quantRoundTrip(t, constant, counts, particles.Float64, bound, 1)
		if want := quantFORHeaderLen + 2; len(enc.data) != want {
			t.Fatalf("%d equal values encoded in %d bytes, want %d (vmin, mode, base 0, width 0)", n, len(enc.data), want)
		}
	})
	t.Run("a bound below one ulp falls back to key-for", func(t *testing.T) {
		// ulp(1e15) is 0.125: a grid of step 2e-15 over a range of 3 has more
		// cells than 48 bits index.
		col := []float64{1e15, 1e15 + 1, 1e15 + 2, 1e15 + 3}
		if enc, _ := quantRoundTrip(t, col, []int{4}, particles.Float64, 1e-15, 1); enc.codec != codecKeyFOR {
			t.Fatalf("encoded as %s, want key-for", CodecName(enc.codec))
		}
	})
	t.Run("indices just under 2^48", func(t *testing.T) {
		// 2^47 grid cells between the two clusters: 48-bit indices, one
		// frame too wide to pay, per-node frames of a few bits.
		const step = 2 * bound
		hi := step * (1 << 47)
		var col []float64
		for i := 0; i < 200; i++ {
			col = append(col, float64(i%50)*step)
		}
		for i := 0; i < 200; i++ {
			col = append(col, hi+float64(i%50)*step)
		}
		enc, info := quantRoundTrip(t, col, []int{200, 200}, particles.Float64, bound, 1)
		if enc.codec != codecQuantFOR || info.Mode != "per-node-cols" || info.Widths[1] > 7 {
			t.Fatalf("encoded as %s %s widths %v, want per-node frames of a few bits", CodecName(enc.codec), info.Mode, info.Widths)
		}
		// One more doubling puts an index at 2^48: not representable.
		for i := 200; i < 400; i++ {
			col[i] += hi
		}
		if enc, _ := quantRoundTrip(t, col, []int{200, 200}, particles.Float64, bound, 1); enc.codec != codecKeyFOR {
			t.Fatalf("indices past 2^48 encoded as %s, want key-for", CodecName(enc.codec))
		}
	})
}

// TestQuantFORDecodeRejects drives decodeQuantFOR with streams the encoder
// cannot produce: each must be an error, none a panic.
func TestQuantFORDecodeRejects(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	counts := []int{8, 40, 8, 33}
	tr := forTreelet(counts)
	n := len(tr.order)
	const bound = 1e-3
	sections := map[string][]byte{}
	for name, gen := range map[string]func(b int) float64{
		"one-frame":     func(int) float64 { return 10 + r.Float64() },
		"per-node-cols": func(b int) float64 { return 10 + float64(b) + 0.02*r.Float64() },
	} {
		var col []float64
		for b, c := range counts {
			for i := 0; i < c; i++ {
				col = append(col, gen(b))
			}
		}
		enc, info := quantRoundTrip(t, col, counts, particles.Float64, bound, 1)
		if enc.codec != codecQuantFOR || info.Mode != name {
			t.Fatalf("sample column encoded as %s %s, want quant-for %s", CodecName(enc.codec), info.Mode, name)
		}
		sections[name] = enc.data
	}
	one, cols := sections["one-frame"], sections["per-node-cols"]
	mut := func(valid []byte, f func(b []byte) []byte) []byte { return f(append([]byte(nil), valid...)) }
	// The one-frame sample's frame is `base, width` in one byte each right
	// after the header: the grid is anchored at the section minimum, so the
	// base is 0.
	const frame = quantFORHeaderLen
	// The per-node-cols sample's second frame is the width column's, behind
	// the base column's run.
	baseCol, widthAt, err := readFrame(cols, frame, uint32(len(counts)), maxQuantIndex)
	if err != nil {
		t.Fatal(err)
	}
	widthAt += packedLen(len(counts), baseCol.width)
	_, k := binary.Uvarint(cols[widthAt:])
	widthAt += k
	hugeBase := binary.AppendUvarint(nil, 1<<maxQuantBits-1)
	for _, tc := range []struct {
		name    string
		payload []byte
		bound   float64
		want    string
	}{
		{"empty section", nil, bound, "truncated"},
		{"header only", one[:quantFORHeaderLen], bound, "truncated at frame"},
		{"frame without its width", one[:frame+1], bound, "truncated at frame"},
		{"unknown mode 3", mut(one, func(b []byte) []byte { b[8] = 3; return b }), bound, "unknown frame mode"},
		{"unknown mode 255", mut(cols, func(b []byte) []byte { b[8] = 255; return b }), bound, "unknown frame mode"},
		{"retired mode 1", mut(cols, func(b []byte) []byte { b[8] = 1; return b }), bound, "unknown frame mode 1"},
		{"width 49", mut(one, func(b []byte) []byte { b[frame+1] = 49; return b }), bound, "exceeds 48"},
		{"width 255 in a later frame", mut(cols, func(b []byte) []byte { b[widthAt] = 255; return b }), bound, "bit width 255 exceeds"},
		{"truncated block", one[:len(one)-1], bound, "truncated"},
		{"truncated last block", cols[:len(cols)-1], bound, "truncated"},
		{"trailing byte", mut(one, func(b []byte) []byte { return append(b, 0) }), bound, "trailing bytes"},
		{"trailing byte after the last node's block", mut(cols, func(b []byte) []byte { return append(b, 0) }), bound, "trailing bytes"},
		{"one-frame stream read per node", mut(one, func(b []byte) []byte { b[8] = modePerNodeCols; return b }), bound, ""},
		{"per-node stream read as one frame", mut(cols, func(b []byte) []byte { b[8] = modeOneFrame; return b }), bound, ""},
		{"base of 2^48", mut(one, func(b []byte) []byte {
			return append(append(append([]byte(nil), b[:frame]...), binary.AppendUvarint(nil, 1<<maxQuantBits)...), b[frame+1:]...)
		}), bound, "overflows"},
		{"base + offset past 2^48", mut(one, func(b []byte) []byte {
			return append(append(append([]byte(nil), b[:frame]...), hugeBase...), b[frame+1:]...)
		}), bound, "overflows"},
		{"base uvarint that never ends", mut(one, func(b []byte) []byte {
			return append(append([]byte(nil), b[:frame]...), bytes.Repeat([]byte{0xff}, 12)...)
		}), bound, "frame base overflows 64 bits"},
		{"infinite grid minimum", mut(one, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b, math.Float64bits(math.Inf(-1)))
			return b
		}), bound, "invalid grid minimum"},
		{"footer declares the attribute lossless", one, 0, "error-bound mismatch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := decodeQuantFOR(make([]float64, n), codecQuantFOR, tc.payload, testBlocks(tr.nodes, n, noCells), tc.bound, 1, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestSortedNodesDecodeNonDecreasing: in every build of the determinism
// corpora, lossless and lossy, every node's particles read back in key order
// along the node's sort axis — the axis sortAxis reads off the k-d cells of
// the node table and the bounds alone —, so every Elias–Fano block decodes non-decreasing on
// its axis; and the builds hold Elias–Fano blocks on every axis.
func TestSortedNodesDecodeNonDecreasing(t *testing.T) {
	var efNodes [3]int
	for _, c := range determinismCorpora() {
		for _, compress := range []bool{false, true} {
			cfg := DefaultBuildConfig()
			cfg.MaxLeafSize, cfg.LODPerNode = 64, 4
			cfg.Compress, cfg.AttrErrorBounds = compress, []float64{1e-3, 1e-3}
			b, err := Build(c.set, c.domain, cfg)
			if err != nil {
				t.Fatal(err)
			}
			f, err := FromBuffer(b.Buf)
			if err != nil {
				t.Fatal(err)
			}
			for ti, ref := range f.leaves {
				pt, _, err := f.loadTreelet(context.Background(), ti)
				if err != nil {
					t.Fatal(err)
				}
				lay, err := f.TreeletLayout(context.Background(), ti)
				if err != nil {
					t.Fatal(err)
				}
				cols := [3][]float32{pt.x, pt.y, pt.z}
				nb := testBlocks(pt.nodes, len(pt.x), ref.cells)
				p := int(ref.offset) + lay.NodeTable.Bytes
				for ax, sec := range lay.Sections[:PositionSections] {
					p += sectionFrameLen
					payload := b.Buf[p : p+sec.EncBytes]
					p += sec.EncBytes
					if sec.Codec == codecRaw {
						continue
					}
					if _, err := decodePos(sec.Codec, payload, nb, geom.Axis(ax), nil); err != nil {
						t.Fatal(err)
					}
					for i := range pt.nodes {
						if nb.kd.frames[ax][i].ef {
							if sa := nb.kd.sortAxis(i); sa != ax {
								t.Fatalf("%s treelet %d node %d: an Elias–Fano block on axis %d, its sort axis is %d", c.name, ti, i, ax, sa)
							}
							efNodes[ax]++
						}
					}
				}
				for i, n := range pt.nodes {
					sa := nb.kd.sortAxis(i)
					col := cols[sa][n.start : n.start+n.count]
					for j := 1; j < len(col); j++ {
						if keyOf(col[j]) < keyOf(col[j-1]) {
							t.Fatalf("%s (compress %v) treelet %d node %d: %v after %v on its sort axis %d",
								c.name, compress, ti, i, col[j], col[j-1], sa)
						}
					}
				}
			}
		}
	}
	for ax, n := range efNodes {
		if n == 0 {
			t.Errorf("no Elias–Fano block on axis %d among the builds (%v)", ax, efNodes)
		}
	}
}

// TestSortAxis pins the sort-axis rule over hand-made cells: the axis of the
// widest cell, ties to the lowest, an axis whose cellFrames failed counting
// as width 0, and axis 0 when no cell is wider than 0. derive makes an
// Elias–Fano block only on an axis that has cells, also over a frame that a
// reused kdCells (the build arena's) left on an axis that now has none.
func TestSortAxis(t *testing.T) {
	for _, tc := range []struct {
		name   string
		widths [3]uint8
		failed [3]bool
		want   int
	}{
		{"widest", [3]uint8{3, 9, 5}, [3]bool{}, 1},
		{"tie to the lowest", [3]uint8{4, 7, 7}, [3]bool{}, 1},
		{"three-way tie", [3]uint8{6, 6, 6}, [3]bool{}, 0},
		{"a failed axis counts as width 0", [3]uint8{12, 2, 2}, [3]bool{true, false, false}, 1},
		{"only z has cells", [3]uint8{9, 9, 1}, [3]bool{true, true, false}, 2},
		{"all widths 0", [3]uint8{}, [3]bool{}, 0},
		{"width 0 beside failed axes", [3]uint8{5, 0, 5}, [3]bool{true, false, true}, 0},
		{"every axis failed", [3]uint8{8, 8, 8}, [3]bool{true, true, true}, 0},
	} {
		var kd kdCells
		for ax := range kd.frames {
			kd.frames[ax] = []blockFrame{{forFrame: forFrame{width: tc.widths[ax]}}}
			if tc.failed[ax] {
				kd.errs[ax] = fmt.Errorf("no cells on axis %d", ax)
			}
		}
		if got := kd.sortAxis(0); got != tc.want {
			t.Errorf("%s: widths %v, failed %v: sort axis %d, want %d", tc.name, tc.widths, tc.failed, got, tc.want)
		}
	}

	// A leaf of 10 particles whose y and z are one key each (width 0): its
	// sort axis is x, whose stale frame would be an Elias–Fano block.
	leaf := []node{{axis: leafAxis, count: 10}}
	var kd kdCells
	kd.frames[geom.X] = []blockFrame{{forFrame: forFrame{width: 20}, span: 1<<20 - 1}}
	kd.derive(leaf, [3]keyCell{{lo: 1}, {lo: 5, hi: 5}, {lo: 5, hi: 5}})
	if kd.errs[geom.X] == nil || kd.sortAxis(0) != 0 || kd.frames[geom.X][0].ef {
		t.Fatalf("x without cells: error %v, sort axis %d, Elias–Fano %v; want an error, axis 0 and no block",
			kd.errs[geom.X], kd.sortAxis(0), kd.frames[geom.X][0].ef)
	}
	kd.derive(leaf, [3]keyCell{{lo: 0, hi: 1<<20 - 1}, {lo: 5, hi: 5}, {lo: 5, hi: 5}})
	if kd.errs[geom.X] != nil || kd.sortAxis(0) != 0 || !kd.frames[geom.X][0].ef {
		t.Fatalf("x with a cell of 20 bits: error %v, sort axis %d, Elias–Fano %v; want axis 0 and a block",
			kd.errs[geom.X], kd.sortAxis(0), kd.frames[geom.X][0].ef)
	}
}

// nodeAddressable decodes every section of every treelet of the image buf
// twice — whole, as a treelet load does, and node by node — and requires
// each node's values, bit for bit, to be its slice of the whole column. It
// returns how many sections of each codec it checked.
func nodeAddressable(buf []byte) (map[string]int, error) {
	f, err := FromBuffer(buf)
	if err != nil {
		return nil, err
	}
	checked := map[string]int{}
	for ti, ref := range f.leaves {
		pt, _, err := f.loadTreelet(context.Background(), ti)
		if err != nil {
			return nil, err
		}
		lay, err := f.TreeletLayout(context.Background(), ti)
		if err != nil {
			return nil, err
		}
		nb := testBlocks(pt.nodes, int(ref.numPoints), ref.cells)
		p := int(ref.offset) + lay.NodeTable.Bytes
		for si, sec := range lay.Sections {
			p += sectionFrameLen
			payload := buf[p : p+sec.EncBytes]
			p += sec.EncBytes
			var whole []uint64
			typ, bound := particles.Float32, 0.0
			if si < PositionSections {
				for _, v := range [PositionSections][]float32{pt.x, pt.y, pt.z}[si] {
					whole = append(whole, uint64(math.Float32bits(v)))
				}
			} else {
				a := si - PositionSections
				typ, bound = f.Schema.Attrs[a].Type, f.attrBounds[a]
				for _, v := range pt.attrs[a] {
					whole = append(whole, math.Float64bits(v))
				}
			}
			for ni, n := range pt.nodes {
				got, err := decodeNodeBlock(sec.Codec, payload, nb, si, typ, bound, f.lodScale, ni)
				if err != nil {
					return nil, fmt.Errorf("treelet %d section %s node %d: %w", ti, sec.Attr, ni, err)
				}
				if want := whole[n.start : n.start+n.count]; !slices.Equal(got, want) {
					return nil, fmt.Errorf("treelet %d %s section %s node %d decodes alone to %#x, in the whole column to %#x",
						ti, CodecName(sec.Codec), sec.Attr, ni, got, want)
				}
			}
			checked[CodecName(sec.Codec)]++
		}
	}
	return checked, nil
}

// decodeNodeBlock decodes node ni's values of one section of a treelet (si
// its row in TreeletLayout) from the node's block alone, as bit patterns: a
// position's float32 bits, an attribute's float64 ones. A raw node is
// count values from its particle range's start on. A packed node's block
// starts where the section's block run does, plus the bits of the nodes
// ahead of it under their frames — the k-d cells of a sorted-cell-for
// section, the frames a framed attribute section stores ahead of its run.
func decodeNodeBlock(codec uint8, payload []byte, nb *nodeBlocks, si int, typ particles.AttrType,
	bound, lodScale float64, ni int) ([]uint64, error) {

	n := nb.nodes[ni]
	position := si < PositionSections
	var out []uint64
	if codec == codecRaw {
		size := typ.Size()
		lo, hi := int(n.start)*size, int(n.start+n.count)*size
		if hi > len(payload) {
			return nil, fmt.Errorf("raw node range ends at byte %d of %d", hi, len(payload))
		}
		if position {
			for p := lo; p < hi; p += size {
				out = append(out, uint64(binary.LittleEndian.Uint32(payload[p:])))
			}
			return out, nil
		}
		vals := make([]float64, n.count)
		err := decodeRaw(vals, payload[lo:hi], typ)
		for _, v := range vals {
			out = append(out, math.Float64bits(v))
		}
		return out, err
	}
	var frames []blockFrame
	var err error
	switch {
	case position && codec == codecSortedCellFOR:
		frames, err = nb.kd.frames[si], nb.kd.errs[si]
	case !position && (codec == codecQuantFOR || codec == codecIntFOR):
		err = nb.layFramed(payload, quantFORHeaderLen, maxQuantIndex, nil)
		frames = nb.frames
	case !position && (codec == codecKeyFOR || codec == codecSignKeyFOR):
		err = nb.layFramed(payload, keyFORHeaderLen, keyLimit(typ), nil)
		frames = nb.frames
	default:
		return nil, fmt.Errorf("%s sections hold no block per node", CodecName(codec))
	}
	if err != nil {
		return nil, err
	}
	fr := frames[ni]
	fr.bit = frames[0].bit
	for j := range ni {
		fr.bit += frames[j].bits(nb.nodes[j].count)
	}
	one := &nodeBlocks{nodes: []node{{axis: n.axis, count: n.count}}, nPoints: int(n.count), frames: []blockFrame{fr}}
	vals := make([]float64, n.count)
	switch codec {
	case codecSortedCellFOR:
		return out, one.unpack(one.frames, payload, func(_, _ int, offs []uint64) error {
			for _, off := range offs {
				out = append(out, uint64(f32FromKey(uint32(fr.base+off))))
			}
			return nil
		})
	case codecQuantFOR, codecIntFOR:
		if codec == codecIntFOR {
			bound, lodScale = intFORBound, 1
		}
		fineStep, lodStep := quantSteps(bound, lodScale)
		err = one.dequant(vals, payload, math.Float64frombits(binary.LittleEndian.Uint64(payload)), fineStep, lodStep)
	default:
		err = one.unkey(vals, payload, fromKeys(codec, typ))
	}
	for _, v := range vals {
		out = append(out, math.Float64bits(v))
	}
	return out, err
}
