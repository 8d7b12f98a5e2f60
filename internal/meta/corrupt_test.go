package meta

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"libbat/internal/checksum"
)

func encodedFixture(t *testing.T) []byte {
	t.Helper()
	tr, schema, reports := fixture(t)
	m, err := Build(tr, tr.Leaves, schema, reports)
	if err != nil {
		t.Fatal(err)
	}
	return m.Encode()
}

// TestDecodeDetectsEveryBitFlip: the version-2 trailer checksums the whole
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

// TestV1Rejected: a pre-checksum (version 1) buffer — the v2 image minus its
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
// decodes. 2 -> 3 is one bit, and version 3 is retired; 3 -> 1 was one bit
// too, and while version 1 was readable it skipped the CRC: the rest of the
// buffer was parsed unverified.
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
	buf := encodedFixture(t)
	nA := int(binary.LittleEndian.Uint32(buf[8:]))
	img := append([]byte(nil), buf[:len(buf)-trailerLen]...)
	for a := 0; a < nA; a++ {
		img = binary.LittleEndian.AppendUint64(img, math.Float64bits(1e-3))
	}
	img = binary.LittleEndian.AppendUint64(img, math.Float64bits(4))
	binary.LittleEndian.PutUint32(img[4:], retiredVersion)
	return seal(img)
}

// seal appends a CRC32C trailer over body.
func seal(body []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(body, checksum.CRC32C(body)), trailerMagic...)
}

// TestV3Retired: metadata that copies the leaf footers' codec declaration is
// refused by name, and the same bytes under version 2 are refused for what
// trails the leaf records: the one writer puts nothing there.
func TestV3Retired(t *testing.T) {
	img := retiredV3Image(t)
	if len(img) != len(encodedFixture(t))+8*(2+1) {
		t.Fatalf("retired image is %d bytes, want the version-2 image plus 8 x (2 attributes + 1)", len(img))
	}
	if _, err := Decode(img); err == nil || !strings.Contains(err.Error(), "retired version 3") {
		t.Fatalf("Decode error %v, want the retired version 3", err)
	}
	v2 := append([]byte(nil), img[:len(img)-trailerLen]...)
	binary.LittleEndian.PutUint32(v2[4:], version)
	if _, err := Decode(seal(v2)); err == nil || !strings.Contains(err.Error(), "bytes before the trailer") {
		t.Fatalf("Decode error %v, want the bytes behind the leaf records refused", err)
	}
}

func TestEncodeEndsWithTrailer(t *testing.T) {
	buf := encodedFixture(t)
	if !bytes.HasSuffix(buf, []byte(trailerMagic)) {
		t.Errorf("encoded metadata missing trailer magic, tail %q", buf[len(buf)-8:])
	}
}

// diamondMeta encodes an Aggregation Tree of n inner nodes in which each
// node points both children at the next node, and the last both at leaf 0:
// every node but the root, and the leaf, has two parents, and the leaf sits
// at the end of 2^n root-to-leaf paths.
func diamondMeta(n int) []byte {
	m := &Meta{Leaves: []LeafMeta{{FileName: "leaf0000.bat", Count: 1}}}
	for i := 0; i < n; i++ {
		child := int32(i + 1)
		if i == n-1 {
			child = ^int32(0)
		}
		m.Nodes = append(m.Nodes, Node{Left: child, Right: child})
	}
	return m.Encode()
}

// countsMeta encodes a flat dataset of one leaf per count.
func countsMeta(counts ...int64) []byte {
	m := &Meta{}
	for i, c := range counts {
		m.Leaves = append(m.Leaves, LeafMeta{FileName: fmt.Sprintf("leaf%04d.bat", i), Count: c})
	}
	return m.Encode()
}

// TestDecodeRejectsDiamond: a node or leaf with two parents is refused, as the
// BAT shallow tree refuses one. Decoded, the 64-node diamond would keep
// SelectLeaves walking its 2^64 paths, and the 24-node one returns its leaf
// 16,777,216 times.
func TestDecodeRejectsDiamond(t *testing.T) {
	for _, tc := range []struct {
		nodes int
		want  string
	}{
		{1, "leaf 0 has multiple parents"},
		{24, "node 1 has multiple parents"},
		{64, "node 1 has multiple parents"},
	} {
		if _, err := Decode(diamondMeta(tc.nodes)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%d-node diamond: Decode error %v, want one containing %q", tc.nodes, err, tc.want)
		}
	}
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
		tr, schema, reports, err := buildFixture()
		if err != nil {
			return nil
		}
		m, err := Build(tr, tr.Leaves, schema, reports)
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
	// Structures Decode refuses behind a valid CRC: a diamond-shaped tree and
	// leaf counts past int64.
	f.Add(diamondMeta(24))
	f.Add(countsMeta(1<<62, 1<<62))
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
