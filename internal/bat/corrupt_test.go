package bat

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"

	"libbat/internal/checksum"
	"libbat/internal/geom"
)

// builtSample returns a deterministic multi-treelet file image.
func builtSample(t *testing.T) []byte {
	t.Helper()
	s, domain := randomSet(600, 2)
	b, err := Build(s, domain, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	return b.Buf
}

// collect runs a full unfiltered query and returns the visited particles
// as a flat float slice (positions then attributes, traversal order).
func collect(t *testing.T, f *File) []float64 {
	t.Helper()
	var out []float64
	_, err := f.QueryWithConfig(Query{}, QueryConfig{}, func(p geom.Vec3, attrs []float64) error {
		out = append(out, p.X, p.Y, p.Z)
		out = append(out, attrs...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDecodeTruncatedNeverPanics: every proper prefix of a v2 file must
// fail to open (the footer is gone or mangled), never panic.
func TestDecodeTruncatedNeverPanics(t *testing.T) {
	buf := builtSample(t)
	for l := 0; l < len(buf); l += 7 {
		if _, err := FromBuffer(buf[:l]); err == nil {
			t.Fatalf("truncation to %d of %d bytes opened", l, len(buf))
		}
	}
	if _, err := FromBuffer(buf[:len(buf)-1]); err == nil {
		t.Error("file short by one byte opened")
	}
}

// TestBitFlipNoSilentCorruption flips single bits across the file and
// requires each one to be caught at open, by Verify, or at query time —
// or, if it landed in inter-section padding, to leave the query results
// bit-identical to the original. A silently different result is the one
// outcome the checksums exist to prevent.
func TestBitFlipNoSilentCorruption(t *testing.T) {
	bitFlipMatrix(t, builtSample(t))
}

// TestBitFlipNoSilentCorruptionV3 runs the same matrix over a compressed
// (version 3) image: the codec sections are checksummed like any other
// treelet bytes, so flips there must be detected too.
func TestBitFlipNoSilentCorruptionV3(t *testing.T) {
	bitFlipMatrix(t, compressedSample(t))
}

func bitFlipMatrix(t *testing.T, buf []byte) {
	t.Helper()
	orig, err := FromBuffer(buf)
	if err != nil {
		t.Fatal(err)
	}
	want := collect(t, orig)

	detected := 0
	offsets := []int{0, 4, 8, len(buf) / 2, len(buf) - 1, len(buf) - 6}
	for off := 13; off < len(buf); off += 97 {
		offsets = append(offsets, off)
	}
	for _, off := range offsets {
		mut := append([]byte(nil), buf...)
		mut[off] ^= 1 << (off % 8)
		f, err := FromBuffer(mut)
		if err != nil {
			detected++
			continue
		}
		if err := f.Verify(); err != nil {
			detected++
			continue
		}
		var got []float64
		_, qerr := f.QueryWithConfig(Query{}, QueryConfig{}, func(p geom.Vec3, attrs []float64) error {
			got = append(got, p.X, p.Y, p.Z)
			got = append(got, attrs...)
			return nil
		})
		if qerr != nil {
			detected++
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("flip at %d silently changed result count: %d vs %d", off, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("flip at %d silently changed value %d", off, i)
			}
		}
	}
	if detected == 0 {
		t.Error("no flip was detected at all")
	}
}

// TestHeaderFlipIsChecksumError: damage inside the checksummed header must
// surface as ErrChecksum at open time.
func TestHeaderFlipIsChecksumError(t *testing.T) {
	buf := builtSample(t)
	mut := append([]byte(nil), buf...)
	mut[9] ^= 0x40 // inside the flags field, past magic+version
	if _, err := FromBuffer(mut); !errors.Is(err, ErrChecksum) {
		t.Errorf("header flip: want ErrChecksum, got %v", err)
	}
}

// stripToV1 converts a v2 image into its version-1 equivalent: footer
// removed, version field patched.
func stripToV1(t *testing.T, buf []byte) []byte {
	t.Helper()
	footerLen := binary.LittleEndian.Uint32(buf[len(buf)-8:])
	if int(footerLen) >= len(buf) {
		t.Fatalf("implausible footer length %d", footerLen)
	}
	v1 := append([]byte(nil), buf[:len(buf)-int(footerLen)]...)
	binary.LittleEndian.PutUint32(v1[4:], 1)
	return v1
}

// TestV1FileStillReads: pre-checksum files must parse and query as
// before; they report as un-checksummed and Verify is a no-op.
func TestV1FileStillReads(t *testing.T) {
	buf := builtSample(t)
	v2, err := FromBuffer(buf)
	if err != nil {
		t.Fatal(err)
	}
	want := collect(t, v2)

	v1buf := stripToV1(t, buf)
	v1, err := FromBuffer(v1buf)
	if err != nil {
		t.Fatalf("v1 file rejected: %v", err)
	}
	if v1.Version != 1 || v1.Checksummed() {
		t.Errorf("Version=%d Checksummed=%v, want 1/false", v1.Version, v1.Checksummed())
	}
	if err := v1.Verify(); err != nil {
		t.Errorf("Verify on v1: %v", err)
	}
	got := collect(t, v1)
	if len(got) != len(want) {
		t.Fatalf("v1 query returned %d values, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("v1 query differs at value %d", i)
		}
	}
	if !v2.Checksummed() || v2.Version != 2 {
		t.Errorf("v2 file reports Version=%d Checksummed=%v", v2.Version, v2.Checksummed())
	}
}

// compressedSample returns a deterministic multi-treelet version-3 image
// with one lossy and one lossless attribute.
func compressedSample(t *testing.T) []byte {
	t.Helper()
	s, domain := cosmoSet(600, 2)
	b, err := Build(s, domain, compressedConfig([]float64{1e-3, 1e-1, 1e-3, 0}))
	if err != nil {
		t.Fatal(err)
	}
	return b.Buf
}

// mutateTreelet applies a targeted mutation to treelet ti's bytes and then
// re-fixes the treelet CRC and the footer CRC, so the corrupted bytes reach
// the codec-layer validation instead of being caught by the checksums.
func mutateTreelet(t *testing.T, buf []byte, ti int, mutate func(tre []byte)) []byte {
	t.Helper()
	orig, err := FromBuffer(buf)
	if err != nil {
		t.Fatal(err)
	}
	ref := orig.leaves[ti]
	mut := append([]byte(nil), buf...)
	tre := mut[ref.offset : ref.offset+uint64(ref.byteLen)]
	mutate(tre)
	footerLen := binary.LittleEndian.Uint32(mut[len(mut)-8:])
	footerStart := len(mut) - int(footerLen)
	binary.LittleEndian.PutUint32(mut[footerStart+8+4*ti:], checksum.CRC32C(tre))
	binary.LittleEndian.PutUint32(mut[len(mut)-12:], checksum.CRC32C(mut[footerStart:len(mut)-12]))
	return mut
}

// mutateFooter applies a targeted mutation to the footer's v3 extension and
// re-fixes the footer CRC. The callback receives the footer bytes starting
// at headerCRC.
func mutateFooter(t *testing.T, buf []byte, mutate func(foot []byte)) []byte {
	t.Helper()
	mut := append([]byte(nil), buf...)
	footerLen := binary.LittleEndian.Uint32(mut[len(mut)-8:])
	footerStart := len(mut) - int(footerLen)
	mutate(mut[footerStart:])
	binary.LittleEndian.PutUint32(mut[len(mut)-12:], checksum.CRC32C(mut[footerStart:len(mut)-12]))
	return mut
}

// firstSectionOffset locates treelet ti's first attribute section within
// its byte range (after the node records and position columns).
func firstSectionOffset(t *testing.T, buf []byte, ti int) (treeletOff uint64, secOff int) {
	t.Helper()
	f, err := FromBuffer(buf)
	if err != nil {
		t.Fatal(err)
	}
	ref := f.leaves[ti]
	nA := f.Schema.NumAttrs()
	posBytes := 12
	if f.Quantized {
		posBytes = 6
	}
	return ref.offset, 8 + int(ref.numNodes)*(treeletNodeBytes+2*nA) + int(ref.numPoints)*posBytes
}

// expectLoadError asserts that treelet 0 of the image fails to load with an
// error containing want — a clean error, never a panic or silent success.
func expectLoadError(t *testing.T, buf []byte, want string) {
	t.Helper()
	f, err := FromBuffer(buf)
	if err != nil {
		t.Fatalf("open failed before the codec layer was reached: %v", err)
	}
	if _, err := f.loadTreelet(context.Background(), 0); err == nil {
		t.Fatalf("corrupted section loaded cleanly, want error containing %q", want)
	} else if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not contain %q", err, want)
	}
}

// TestV3BadCodecID: an unknown codec id in a section frame must produce a
// clean error at load time.
func TestV3BadCodecID(t *testing.T) {
	buf := compressedSample(t)
	_, secOff := firstSectionOffset(t, buf, 0)
	mut := mutateTreelet(t, buf, 0, func(tre []byte) {
		tre[secOff] = 7
	})
	expectLoadError(t, mut, "unknown attribute codec")
}

// TestV3TruncatedCodecStream: a section declaring more payload bytes than
// the treelet holds must error cleanly, as must one declaring fewer than
// its codec needs.
func TestV3TruncatedCodecStream(t *testing.T) {
	buf := compressedSample(t)
	_, secOff := firstSectionOffset(t, buf, 0)
	overrun := mutateTreelet(t, buf, 0, func(tre []byte) {
		binary.LittleEndian.PutUint32(tre[secOff+1:], uint32(len(tre)))
	})
	expectLoadError(t, overrun, "truncated codec stream")

	undersized := mutateTreelet(t, buf, 0, func(tre []byte) {
		binary.LittleEndian.PutUint32(tre[secOff+1:], 3)
	})
	f, err := FromBuffer(undersized)
	if err != nil {
		t.Fatalf("open failed before the codec layer: %v", err)
	}
	if _, err := f.loadTreelet(context.Background(), 0); err == nil {
		t.Fatal("undersized section loaded cleanly")
	}
}

// TestV3ErrorBoundMismatch: a quant section whose stored grid step exceeds
// the footer's declared bound is corrupt and must be rejected, as must a
// quant section inside a file whose footer claims the attribute lossless.
func TestV3ErrorBoundMismatch(t *testing.T) {
	buf := compressedSample(t)
	_, secOff := firstSectionOffset(t, buf, 0)
	f, err := FromBuffer(buf)
	if err != nil {
		t.Fatal(err)
	}
	nT := f.NumTreelets()
	secs, err := f.TreeletSections(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if secs[0].Codec != codecQuant {
		t.Fatalf("attribute 0 section is %s, want quant; pick different sample data", CodecName(secs[0].Codec))
	}

	// Inflate the stored fine step 10x beyond the declared bound. The
	// fine step sits 8 bytes into the quant header, after the codec byte
	// and encLen frame.
	stepOff := secOff + 5 + 8
	inflated := mutateTreelet(t, buf, 0, func(tre []byte) {
		step := math.Float64frombits(binary.LittleEndian.Uint64(tre[stepOff:]))
		binary.LittleEndian.PutUint64(tre[stepOff:], math.Float64bits(step*10))
	})
	expectLoadError(t, inflated, "error-bound mismatch")

	// Rewrite the footer to declare attribute 0 lossless while its
	// sections are still quant-coded.
	declaredLossless := mutateFooter(t, buf, func(foot []byte) {
		p := 8 + 4*nT + 4 // numAttrs, then attr 0's codec byte
		foot[p] = codecDelta
		binary.LittleEndian.PutUint64(foot[p+1:], math.Float64bits(0))
	})
	expectLoadError(t, declaredLossless, "error-bound mismatch")
}

// TestV3FooterValidation: out-of-range declarations in the footer's v3
// extension are rejected at open even with a valid CRC.
func TestV3FooterValidation(t *testing.T) {
	buf := compressedSample(t)
	f, err := FromBuffer(buf)
	if err != nil {
		t.Fatal(err)
	}
	nT := f.NumTreelets()
	nA := f.Schema.NumAttrs()
	cases := []struct {
		name   string
		mutate func(foot []byte)
	}{
		{"bad codec id", func(foot []byte) { foot[8+4*nT+4] = 9 }},
		{"negative bound", func(foot []byte) {
			binary.LittleEndian.PutUint64(foot[8+4*nT+4+1:], math.Float64bits(-1))
		}},
		{"NaN bound", func(foot []byte) {
			binary.LittleEndian.PutUint64(foot[8+4*nT+4+1:], math.Float64bits(math.NaN()))
		}},
		{"LOD scale below 1", func(foot []byte) {
			binary.LittleEndian.PutUint64(foot[8+4*nT+4+9*nA:], math.Float64bits(0.25))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := FromBuffer(mutateFooter(t, buf, tc.mutate)); err == nil {
				t.Fatal("invalid footer declaration accepted")
			}
		})
	}
}

// TestV3TruncatedNeverPanics is TestDecodeTruncatedNeverPanics over a
// compressed image.
func TestV3TruncatedNeverPanics(t *testing.T) {
	buf := compressedSample(t)
	for l := 0; l < len(buf); l += 13 {
		if _, err := FromBuffer(buf[:l]); err == nil {
			t.Fatalf("truncation to %d of %d bytes opened", l, len(buf))
		}
	}
}

func TestZeroAndTinyInputs(t *testing.T) {
	for _, data := range [][]byte{nil, {}, []byte("B"), []byte("BAT1"), []byte("BAT1\x02\x00\x00\x00")} {
		if _, err := FromBuffer(data); err == nil {
			t.Errorf("%d-byte input opened", len(data))
		}
	}
}

var errStopFuzz = errors.New("fuzz visit cap")

// FuzzDecode feeds arbitrary bytes to the reader: errors are fine,
// panics are not. Inputs that open are also verified and queried.
func FuzzDecode(f *testing.F) {
	s, domain := randomSet(60, 1)
	if b, err := Build(s, domain, DefaultBuildConfig()); err == nil {
		f.Add(b.Buf)
		if len(b.Buf) > 16 {
			f.Add(b.Buf[:len(b.Buf)/2])
			footerLen := binary.LittleEndian.Uint32(b.Buf[len(b.Buf)-8:])
			if int(footerLen) < len(b.Buf) {
				v1 := append([]byte(nil), b.Buf[:len(b.Buf)-int(footerLen)]...)
				binary.LittleEndian.PutUint32(v1[4:], 1)
				f.Add(v1) // reaches the unchecksummed parse path
			}
		}
	}
	// A compressed (version 3) seed so mutations reach the codec layer.
	cs, cdomain := cosmoSet(60, 3)
	ccfg := DefaultBuildConfig()
	ccfg.Compress = true
	ccfg.AttrErrorBounds = []float64{1e-3, 1e-1, 1e-3, 0}
	if b, err := Build(cs, cdomain, ccfg); err == nil {
		f.Add(b.Buf)
	}
	f.Add([]byte{})
	f.Add([]byte("BAT1\x01\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := FromBuffer(data)
		if err != nil {
			return
		}
		file.Verify()
		// Cap the visit count: garbage that passes the structural checks
		// may still describe a large (bounded) point soup, and unbounded
		// iteration would drown the fuzzer without exercising new paths.
		visits := 0
		file.QueryWithConfig(Query{}, QueryConfig{}, func(p geom.Vec3, attrs []float64) error {
			if visits++; visits > 10000 {
				return errStopFuzz
			}
			return nil
		})
	})
}
