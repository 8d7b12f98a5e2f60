package meta

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"libbat/internal/binfmt"
	"libbat/internal/checksum"
)

func encodedFixture(t *testing.T) []byte {
	t.Helper()
	return fixtureMeta(t).Encode()
}

// goldenFile reads a checked-in metadata image.
func goldenFile(t testing.TB, name string) []byte {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("%v (golden_v2.batm is frozen; rewrite golden_v4.batm with BATM_REGEN_GOLDEN=1 go test -run TestGoldenV4Pinned)", err)
	}
	return buf
}

// TestGoldenV4Pinned: the fixture encodes to testdata/golden_v4.batm byte
// for byte, and the file decodes to the fixture. Run with BATM_REGEN_GOLDEN=1
// to rewrite the file when the format legitimately changes.
func TestGoldenV4Pinned(t *testing.T) {
	buf := encodedFixture(t)
	if os.Getenv("BATM_REGEN_GOLDEN") != "" {
		if err := os.WriteFile(filepath.Join("testdata", "golden_v4.batm"), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if golden := goldenFile(t, "golden_v4.batm"); !bytes.Equal(buf, golden) {
		t.Fatalf("the fixture encodes to %d bytes that are not golden_v4.batm's %d", len(buf), len(golden))
	}
	m, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if want := fixtureMeta(t); !reflect.DeepEqual(m, want) {
		t.Fatalf("golden_v4.batm decodes to %+v, want %+v", m, want)
	}
}

// stripV2 rewrites a version-2 image as version 4: the same attributes and
// leaf records, without the domain, the inner-node records and the leaves'
// local ranges.
func stripV2(t *testing.T, v2 []byte) []byte {
	t.Helper()
	r, w := binfmt.NewReader(v2[8:]), &binfmt.Writer{}
	w.Bytes([]byte(magic))
	w.U32(version)
	nA := int(r.U32())
	w.U32(uint32(nA))
	for a := 0; a < nA; a++ {
		w.Str(r.Str())
		w.U8(r.U8())
		w.Range(r.Range())
	}
	r.Box()
	nNodes, nLeaves := int(r.U32()), r.U32()
	r.Bytes(nNodes * (65 + 4*nA)) // axis u8, pos f64, bounds, two i32 children, bitmaps
	w.U32(nLeaves)
	for i := 0; i < int(nLeaves); i++ {
		w.Str(r.Str())
		w.Box(r.Box())
		w.U64(r.U64())
		r.Bytes(16 * nA) // local ranges
		w.Bitmaps(r.Bitmaps(nA))
	}
	if r.Err() != nil || r.Remaining() != trailerLen {
		t.Fatalf("version-2 image does not parse: %v, %d bytes left", r.Err(), r.Remaining())
	}
	return seal(w.Buf)
}

// TestV2Retired: golden_v2.batm is the fixture as the last version-2 writer
// (commit 6a2422b) encoded it — the same leaf records behind the domain and
// the Aggregation Tree's three inner nodes, each leaf with its local
// attribute ranges — and is refused by name, pointing at that checkout to
// re-write the dataset. Without what version 4 no longer stores, it is the
// version-4 image byte for byte.
func TestV2Retired(t *testing.T) {
	v2 := goldenFile(t, "golden_v2.batm")
	if !bytes.Equal(stripV2(t, v2), encodedFixture(t)) {
		t.Fatal("golden_v2.batm without its domain, inner nodes and local ranges is not the version-4 image")
	}
	if _, err := Decode(v2); err == nil || !strings.Contains(err.Error(), "retired version 2") || !strings.Contains(err.Error(), "6a2422b") {
		t.Fatalf("Decode error %v, want the retired version 2 and its checkout", err)
	}
}

// TestDecodeDetectsEveryBitFlip: the trailer checksums the whole
// buffer, so any single flipped bit — including in the trailer itself —
// must fail Decode.
func TestDecodeDetectsEveryBitFlip(t *testing.T) {
	buf := encodedFixture(t)
	for i := range buf {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 1 << (i % 8)
		if _, err := Decode(mut); err == nil {
			t.Fatalf("flip at byte %d went undetected", i)
		}
	}
}

func TestDecodeChecksumError(t *testing.T) {
	buf := encodedFixture(t)
	mut := append([]byte(nil), buf...)
	mut[len(mut)/2] ^= 0x10
	if _, err := Decode(mut); !errors.Is(err, ErrChecksum) {
		t.Errorf("mid-buffer flip: want ErrChecksum, got %v", err)
	}
}

// TestDecodeTruncated: every proper prefix must error, never panic.
func TestDecodeTruncated(t *testing.T) {
	buf := encodedFixture(t)
	for l := 0; l < len(buf); l++ {
		if _, err := Decode(buf[:l]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", l)
		}
	}
}

func TestDecodeBadVersion(t *testing.T) {
	buf := encodedFixture(t)
	mut := append([]byte(nil), buf...)
	mut[4] = 99 // version field follows the 4-byte magic
	if _, err := Decode(mut); err == nil {
		t.Error("future version accepted")
	}
}

// TestV1Rejected: a pre-checksum (version 1) buffer — the v4 image minus its
// trailer, version field patched — carries nothing Decode can verify and is
// refused.
func TestV1Rejected(t *testing.T) {
	buf := encodedFixture(t)
	v1buf := append([]byte(nil), buf[:len(buf)-trailerLen]...)
	v1buf[4] = 1
	if _, err := Decode(v1buf); err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("Decode error %v, want unsupported version 1", err)
	}
}

// TestVersionFieldFlipsRejected: no single flipped bit of the version field
// decodes. While version 1 was readable it skipped the CRC, and a one-bit
// flip of version 3 made one: the rest of the buffer was parsed unverified.
func TestVersionFieldFlipsRejected(t *testing.T) {
	buf := encodedFixture(t)
	for bit := 0; bit < 32; bit++ {
		mut := append([]byte(nil), buf...)
		mut[4+bit/8] ^= 1 << (bit % 8)
		if _, err := Decode(mut); err == nil {
			t.Errorf("version field bit %d flipped still decodes", bit)
		}
	}
}

// retiredV3Image is the version-3 image of the fixture as the writers that
// declared error bounds in the metadata wrote it: the version-2 body, each
// attribute's bound and the LOD error scale as f64s, the version field 3
// and a fresh CRC trailer.
func retiredV3Image(t *testing.T) []byte {
	t.Helper()
	buf := goldenFile(t, "golden_v2.batm")
	nA := int(binary.LittleEndian.Uint32(buf[8:]))
	img := append([]byte(nil), buf[:len(buf)-trailerLen]...)
	for a := 0; a < nA; a++ {
		img = binary.LittleEndian.AppendUint64(img, math.Float64bits(1e-3))
	}
	img = binary.LittleEndian.AppendUint64(img, math.Float64bits(4))
	binary.LittleEndian.PutUint32(img[4:], codecVersion)
	return seal(img)
}

// seal appends a CRC32C trailer over body.
func seal(body []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(body, checksum.CRC32C(body)), trailerMagic...)
}

// TestV3Retired: metadata that copies the leaf footers' codec declaration is
// refused by name, and a version-4 image with anything behind its leaf
// records is refused for it: the one writer puts nothing there.
func TestV3Retired(t *testing.T) {
	img := retiredV3Image(t)
	if _, err := Decode(img); err == nil || !strings.Contains(err.Error(), "retired version 3") {
		t.Fatalf("Decode error %v, want the retired version 3", err)
	}
	v4 := encodedFixture(t)
	trailing := append(v4[:len(v4)-trailerLen:len(v4)-trailerLen], make([]byte, 8*(2+1))...)
	if _, err := Decode(seal(trailing)); err == nil || !strings.Contains(err.Error(), "bytes before the trailer") {
		t.Fatalf("Decode error %v, want the bytes behind the leaf records refused", err)
	}
}

func TestEncodeEndsWithTrailer(t *testing.T) {
	buf := encodedFixture(t)
	if !bytes.HasSuffix(buf, []byte(trailerMagic)) {
		t.Errorf("encoded metadata missing trailer magic, tail %q", buf[len(buf)-8:])
	}
}

// countsMeta encodes a flat dataset of one leaf per count.
func countsMeta(counts ...int64) []byte {
	m := &Meta{}
	for i, c := range counts {
		m.Leaves = append(m.Leaves, LeafMeta{FileName: fmt.Sprintf("leaf%04d.bat", i), Count: c})
	}
	return m.Encode()
}

// TestDecodeRejectsCountOverflow: leaf counts whose sum is past int64 are
// refused, so TotalCount never wraps negative. One leaf claiming 2^62 still
// decodes: its count fits, and the leaf file, which must agree with it,
// is what refuses it.
func TestDecodeRejectsCountOverflow(t *testing.T) {
	if m, err := Decode(countsMeta(1 << 62)); err != nil || m.TotalCount() != 1<<62 {
		t.Fatalf("one leaf of 2^62: %v, total %v", err, m)
	}
	for _, counts := range [][]int64{{1 << 62, 1 << 62}, {math.MaxInt64, 1}, {1, 1 << 62, math.MaxInt64 - 1<<62}} {
		if _, err := Decode(countsMeta(counts...)); err == nil || !strings.Contains(err.Error(), "past int64") {
			t.Errorf("counts %v: Decode error %v, want the int64 bound", counts, err)
		}
	}
}

// FuzzDecode throws arbitrary bytes at the parser: it must return an
// error or a usable Meta, never panic.
func FuzzDecode(f *testing.F) {
	valid := func() []byte {
		schema, reports := buildFixture()
		m, err := Build(schema, len(reports), reports)
		if err != nil {
			return nil
		}
		return m.Encode()
	}()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("BATM"))
	if len(valid) > 10 {
		f.Add(valid[:10])
		f.Add(valid[:len(valid)-trailerLen]) // a body: reaches the parser under the fresh trailer below
	}
	// A retired version-2 image, leaf counts past int64 behind a valid CRC,
	// and a dataset of no leaves.
	f.Add(goldenFile(f, "golden_v2.batm"))
	f.Add(countsMeta(1<<62, 1<<62))
	f.Add(countsMeta())
	f.Fuzz(func(t *testing.T, data []byte) {
		// As it is, and again under a trailer computed for it: no mutation
		// gets past the whole-buffer CRC to the body parser otherwise.
		sealed := binary.LittleEndian.AppendUint32(append([]byte(nil), data...), checksum.CRC32C(data))
		for _, buf := range [][]byte{data, append(sealed, trailerMagic...)} {
			m, err := Decode(buf)
			if err != nil {
				continue
			}
			// Whatever decoded must be safe to traverse.
			m.TotalCount()
			m.SelectLeaves(nil, nil)
		}
	})
}
