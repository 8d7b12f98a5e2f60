package bat

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"libbat/internal/bitmap"
	"libbat/internal/checksum"
	"libbat/internal/geom"
	"libbat/internal/particles"
)

// clusteredSample returns a default (lossless) build of clusteredSet(20000,
// 14): several treelets of deep, skewed k-d trees, which seed the reader's
// fuzzers.
func clusteredSample(t testing.TB) []byte {
	t.Helper()
	s, domain := clusteredSet(20000, 14)
	b, err := Build(s, domain, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	return b.Buf
}

// builtSample returns a deterministic multi-treelet image of a default
// (lossless) build.
func builtSample(t *testing.T) []byte {
	t.Helper()
	s, domain := randomSet(600, 2)
	b, err := Build(s, domain, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	return b.Buf
}

// TestDecodeTruncatedNeverPanics: every proper prefix of a file must fail to
// open (the footer is gone or mangled), never panic.
func TestDecodeTruncatedNeverPanics(t *testing.T) {
	for _, buf := range [][]byte{builtSample(t), compressedSample(t)} {
		for l := 0; l < len(buf); l += 7 {
			if _, err := FromBuffer(buf[:l]); err == nil {
				t.Fatalf("truncation to %d of %d bytes opened", l, len(buf))
			}
		}
		if _, err := FromBuffer(buf[:len(buf)-1]); err == nil {
			t.Error("file short by one byte opened")
		}
	}
}

// TestBitFlipNoSilentCorruption flips single bits across the file and
// requires each one to be caught at open, by Verify, or at query time: the
// treelets tile the bytes between header and footer, so no byte of a readable
// file is outside a checksum, and a flip that went unnoticed could silently
// change a result. The matrix runs over a default build.
func TestBitFlipNoSilentCorruption(t *testing.T) {
	bitFlipMatrix(t, builtSample(t))
}

// TestBitFlipNoSilentCorruptionV3 runs the same matrix over an image with
// lossy attributes: the quant-for sections are checksummed like any other
// treelet bytes, so flips there must be detected too.
func TestBitFlipNoSilentCorruptionV3(t *testing.T) {
	bitFlipMatrix(t, compressedSample(t))
}

func bitFlipMatrix(t *testing.T, buf []byte) {
	t.Helper()
	offsets := []int{0, 4, 8, len(buf) / 2, len(buf) - 1, len(buf) - 6}
	for off := 13; off < len(buf); off += 97 {
		offsets = append(offsets, off)
	}
	for _, off := range offsets {
		mut := append([]byte(nil), buf...)
		mut[off] ^= 1 << (off % 8)
		f, err := FromBuffer(mut)
		if err != nil {
			continue
		}
		if err := f.Verify(); err != nil {
			continue
		}
		if _, err := f.QueryWithConfig(Query{}, QueryConfig{}, func(geom.Vec3, []float64) error { return nil }); err != nil {
			continue
		}
		t.Fatalf("flip at byte %d of %d went unnoticed", off, len(buf))
	}
}

// cutReaderAt serves buf as if the source ended after end bytes.
type cutReaderAt struct {
	buf []byte
	end int
}

func (r *cutReaderAt) ReadAt(p []byte, off int64) (int, error) {
	return bytes.NewReader(r.buf[:r.end]).ReadAt(p, off)
}

// TestShortReadIsNotChecksumError: a storage read that comes back short is
// reported as a truncation (io.ErrUnexpectedEOF), not as a CRC mismatch over
// the zeros the read did not fill — at open, where the footer is cut, and
// in Verify, over a source that shrinks after the file opened.
func TestShortReadIsNotChecksumError(t *testing.T) {
	buf := clusteredSample(t)
	if len(buf) < 2*(1<<16) {
		t.Fatalf("image of %d bytes: the header read would reach the footer", len(buf))
	}
	src := &cutReaderAt{buf: buf, end: len(buf) - 3}
	_, err := DecodeCtx(context.Background(), src, int64(len(buf)))
	if !errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, ErrChecksum) {
		t.Errorf("open over a cut footer = %v, want io.ErrUnexpectedEOF and not ErrChecksum", err)
	}

	src.end = len(buf)
	f, err := DecodeCtx(context.Background(), src, int64(len(buf)))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Verify(); err != nil {
		t.Fatalf("Verify of the whole image: %v", err)
	}
	src.end = len(buf) / 2
	if err := f.Verify(); !errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, ErrChecksum) {
		t.Errorf("Verify over a shrunken source = %v, want io.ErrUnexpectedEOF and not ErrChecksum", err)
	}
}

// TestHeaderFlipIsChecksumError: damage inside the checksummed header must
// surface as ErrChecksum at open time.
func TestHeaderFlipIsChecksumError(t *testing.T) {
	buf := builtSample(t)
	mut := append([]byte(nil), buf...)
	mut[9] ^= 0x40 // inside the domain bounds, past magic+version
	if _, err := FromBuffer(mut); !errors.Is(err, ErrChecksum) {
		t.Errorf("header flip: want ErrChecksum, got %v", err)
	}
}

// stripToV1 cuts an image to the shape version-1 writers produced: footer
// removed, version field patched to 1.
func stripToV1(t testing.TB, buf []byte) []byte {
	t.Helper()
	f, err := FromBuffer(buf)
	if err != nil {
		t.Fatal(err)
	}
	v1 := append([]byte(nil), buf[:f.size-f.footerLen()]...)
	binary.LittleEndian.PutUint32(v1[4:], 1)
	return v1
}

// TestV1FileRejected: a version-1 file — no checksum footer — carries
// nothing a reader can verify and is refused at open.
func TestV1FileRejected(t *testing.T) {
	if _, err := FromBuffer(stripToV1(t, builtSample(t))); err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("open error %v, want unsupported version 1", err)
	}
}

// TestVersionFieldFlipsRejected: no single flipped bit of the version field
// opens. The reader reads one version, so a flipped one is a version it
// refuses, and a reader that read another — version 1 switched every
// checksum off — would read this layout's bytes as that one's.
func TestVersionFieldFlipsRejected(t *testing.T) {
	for name, buf := range map[string][]byte{"lossless": builtSample(t), "lossy": compressedSample(t),
		"golden": goldenFile(t, "golden_v5.bat")} {
		for bit := 0; bit < 32; bit++ {
			mut := append([]byte(nil), buf...)
			mut[4+bit/8] ^= 1 << (bit % 8)
			if _, err := FromBuffer(mut); err == nil {
				t.Errorf("%s: version field bit %d flipped still opens", name, bit)
			}
		}
	}
}

// compressedSample returns a deterministic multi-treelet image with lossy
// attributes and one lossless one.
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
func mutateTreelet(t testing.TB, buf []byte, ti int, mutate func(tre []byte)) []byte {
	t.Helper()
	orig, err := FromBuffer(buf)
	if err != nil {
		t.Fatal(err)
	}
	ref := orig.leaves[ti]
	mut := append([]byte(nil), buf...)
	tre := mut[ref.offset : ref.offset+int64(ref.byteLen)]
	mutate(tre)
	foot := mut[orig.size-orig.footerLen():]
	binary.LittleEndian.PutUint32(foot[4+4*ti:], checksum.CRC32C(tre))
	resealFooter(foot)
	return mut
}

// mutateFooter applies a targeted mutation to the footer and re-fixes the
// footer CRC. The callback receives the footer bytes starting at headerCRC.
func mutateFooter(t *testing.T, buf []byte, mutate func(foot []byte)) []byte {
	t.Helper()
	orig, err := FromBuffer(buf)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), buf...)
	foot := mut[orig.size-orig.footerLen():]
	mutate(foot)
	resealFooter(foot)
	return mut
}

// resealFooter rewrites the CRC of footer foot — the footer's bytes from
// headerCRC to the magic — over the bytes ahead of it.
func resealFooter(foot []byte) {
	binary.LittleEndian.PutUint32(foot[len(foot)-8:], checksum.CRC32C(foot[:len(foot)-8]))
}

// positionOffset locates treelet ti's position data within its byte range,
// after the node table: the x section's frame.
func positionOffset(t testing.TB, buf []byte, ti int) int {
	t.Helper()
	f, err := FromBuffer(buf)
	if err != nil {
		t.Fatal(err)
	}
	lay, err := f.TreeletLayout(context.Background(), ti)
	if err != nil {
		t.Fatal(err)
	}
	return lay.NodeTable.Bytes
}

// addU32 adds d to the little-endian u32 at b.
func addU32(b []byte, d int) {
	binary.LittleEndian.PutUint32(b, uint32(int(binary.LittleEndian.Uint32(b))+d))
}

// leafRecordOffset is where treelet ti's leaf record — byteLen u32, numNodes
// u32, numPoints u32, code u64, cells 6 x u32, bitmap IDs — starts in f's
// header: the leaf records end just before the dictionary.
func leafRecordOffset(f *File, ti int) int {
	recLen := leafRecordBytes + 2*f.Schema.NumAttrs()
	return f.headerSize - (4 + 4*f.dict.Len()) - (len(f.leaves)-ti)*recLen
}

// rewriteUvarint replaces the uvarint at the start of b by f of its value,
// written in the same number of bytes — a value that needs fewer is padded
// with continuation bytes, which binary.Uvarint reads —, so a mutation moves
// nothing behind it.
func rewriteUvarint(t testing.TB, b []byte, f func(uint64) uint64) {
	t.Helper()
	v, k := binary.Uvarint(b)
	if k <= 0 {
		t.Fatalf("no uvarint at the mutation's offset")
	}
	v = f(v)
	if uvarintLen(v) > k {
		t.Fatalf("%#x does not fit the %d bytes of the uvarint it replaces", v, k)
	}
	for i := 0; i < k-1; i++ {
		b[i] = byte(v) | 0x80
		v >>= 7
	}
	b[k-1] = byte(v)
}

// goldenFile reads a checked-in golden image.
func goldenFile(t testing.TB, name string) []byte {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// firstSectionOffset locates treelet ti's first attribute section within
// the treelet's byte range (after the node table and the three position
// sections).
func firstSectionOffset(t *testing.T, buf []byte, ti int) (treeletOff int64, secOff int) {
	t.Helper()
	f, err := FromBuffer(buf)
	if err != nil {
		t.Fatal(err)
	}
	lay, err := f.TreeletLayout(context.Background(), ti)
	if err != nil {
		t.Fatal(err)
	}
	secs := lay.Sections
	secOff = positionOffset(t, buf, ti)
	for _, sec := range secs[:PositionSections] {
		secOff += sectionFrameLen + sec.EncBytes
	}
	return f.leaves[ti].offset, secOff
}

// expectLoadError asserts that treelet 0 of the image fails to load with an
// error containing want — a clean error, never a panic or silent success.
func expectLoadError(t *testing.T, buf []byte, want string) {
	t.Helper()
	f, err := FromBuffer(buf)
	if err != nil {
		t.Fatalf("open failed before the codec layer was reached: %v", err)
	}
	if _, _, err := f.loadTreelet(context.Background(), 0); err == nil {
		t.Fatalf("corrupted section loaded cleanly, want error containing %q", want)
	} else if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not contain %q", err, want)
	}
}

// TestV3BadCodecID: an unknown codec id in a section frame — 8, the first
// unassigned one — must produce a clean error at load time.
func TestV3BadCodecID(t *testing.T) {
	buf := compressedSample(t)
	_, secOff := firstSectionOffset(t, buf, 0)
	mut := mutateTreelet(t, buf, 0, func(tre []byte) {
		tre[secOff] = 8
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
	if _, _, err := f.loadTreelet(context.Background(), 0); err == nil {
		t.Fatal("undersized section loaded cleanly")
	}
}

// TestV3ErrorBoundMismatch: a quant-for section takes its grid steps from the
// footer, so one inside a file whose footer claims the attribute lossless is
// corrupt.
func TestV3ErrorBoundMismatch(t *testing.T) {
	t.Run("quant-for", func(t *testing.T) {
		buf := compressedSample(t)
		f, err := FromBuffer(buf)
		if err != nil {
			t.Fatal(err)
		}
		nT := f.NumTreelets()
		lay, err := f.TreeletLayout(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if c := lay.Sections[PositionSections].Codec; c != codecQuantFOR {
			t.Fatalf("attribute 0 section is %s, want quant-for; pick different sample data", CodecName(c))
		}
		// Rewrite the footer to declare attribute 0 lossless while its
		// sections are still quantized.
		declaredLossless := mutateFooter(t, buf, func(foot []byte) {
			binary.LittleEndian.PutUint64(foot[4+4*nT:], math.Float64bits(0)) // attr 0's bound
		})
		expectLoadError(t, declaredLossless, "error-bound mismatch")
	})
}

// TestV3FooterValidation: out-of-range declarations in the footer are
// rejected at open even with a valid CRC.
func TestV3FooterValidation(t *testing.T) {
	buf := compressedSample(t)
	f, err := FromBuffer(buf)
	if err != nil {
		t.Fatal(err)
	}
	nT := f.NumTreelets()
	nA := f.Schema.NumAttrs()
	bound0 := 4 + 4*nT // attribute 0's bound, after the header and treelet CRCs
	putBound := func(foot []byte, b float64) { binary.LittleEndian.PutUint64(foot[bound0:], math.Float64bits(b)) }
	cases := []struct {
		name   string
		mutate func(foot []byte)
		want   string
	}{
		{"negative bound", func(foot []byte) { putBound(foot, -1) }, "invalid error bound"},
		{"NaN bound", func(foot []byte) { putBound(foot, math.NaN()) }, "invalid error bound"},
		{"LOD scale below 1", func(foot []byte) {
			binary.LittleEndian.PutUint64(foot[bound0+8*nA:], math.Float64bits(0.25))
		}, "invalid LOD error scale"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := FromBuffer(mutateFooter(t, buf, tc.mutate)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("open error %v, want one containing %q", err, tc.want)
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

// mutateHeader applies a targeted mutation to the header bytes and re-fixes
// the header CRC and the footer CRC over it, so the mutated fields reach the
// header validation instead of the checksum.
func mutateHeader(t *testing.T, buf []byte, mutate func(head []byte)) []byte {
	t.Helper()
	orig, err := FromBuffer(buf)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), buf...)
	mutate(mut[:orig.headerSize])
	foot := mut[orig.size-orig.footerLen():]
	binary.LittleEndian.PutUint32(foot, checksum.CRC32C(mut[:orig.headerSize]))
	resealFooter(foot)
	return mut
}

// TestUnpaddedTreeletsTile: the treelets lie back to back from the end of
// the header, so a leaf table whose byte lengths do not end where the footer
// starts is rejected at open, checksums right or not: no byte is outside a
// checksum.
func TestUnpaddedTreeletsTile(t *testing.T) {
	buf := compressedSample(t)
	f, err := FromBuffer(buf)
	if err != nil {
		t.Fatal(err)
	}
	if first, last := f.leaves[0], f.leaves[len(f.leaves)-1]; first.offset != int64(f.headerSize) ||
		last.offset+int64(last.byteLen)+f.footerLen() != f.size {
		t.Fatalf("treelets span [%d,%d) of a %d-byte file with a %d-byte header and a %d-byte footer",
			first.offset, last.offset+int64(last.byteLen), f.size, f.headerSize, f.footerLen())
	}
	for _, tc := range []struct {
		name string
		d    int
	}{
		{"stops short of the footer", -1},
		{"runs into the footer", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mut := mutateHeader(t, buf, func(head []byte) { addU32(head[leafRecordOffset(f, 0):], tc.d) })
			if _, err := FromBuffer(mut); err == nil || !strings.Contains(err.Error(), "the checksum footer starts at") {
				t.Fatalf("open error %v, want one containing %q", err, "the checksum footer starts at")
			}
		})
	}
}

// TestLeafRecordValidation is the corruption matrix of the leaf records the
// shallow tree is derived from, checksums resealed: the radix tree over the
// codes is a tree only if they rise strictly, and its cells lie in the domain
// only if they stay below 2^SubprefixBits, itself in [1, 63]. Each case is
// refused at open with a named error, and so is a file cut inside its leaf
// records.
func TestLeafRecordValidation(t *testing.T) {
	buf := clusteredSample(t)
	f, err := FromBuffer(buf)
	if err != nil {
		t.Fatal(err)
	}
	last := len(f.leaves) - 1
	if last < 2 {
		t.Fatalf("%d treelets; pick different sample data", len(f.leaves))
	}
	const subprefixAt = 4 + 4 + 48 // magic, version, domain
	codeOf := func(ti int) int { return leafRecordOffset(f, ti) + 4 + 4 + 4 }
	code := func(ti int) uint64 { return binary.LittleEndian.Uint64(buf[codeOf(ti):]) }
	putCode := func(head []byte, ti int, c uint64) { binary.LittleEndian.PutUint64(head[codeOf(ti):], c) }
	for _, tc := range []struct {
		name   string
		mutate func(head []byte)
		want   string
	}{
		{"a repeated code", func(head []byte) { putCode(head, 1, code(0)) }, "treelet 1 code"},
		{"a decreasing code", func(head []byte) {
			putCode(head, 1, code(2))
			putCode(head, 2, code(1))
		}, "treelet 2 code"},
		{"a code past the subprefix bits", func(head []byte) { putCode(head, last, 1<<f.SubprefixBits) }, "subprefix bits"},
		{"subprefix bits 0", func(head []byte) { binary.LittleEndian.PutUint32(head[subprefixAt:], 0) }, "subprefix bits 0 out of range"},
		{"subprefix bits 64", func(head []byte) { binary.LittleEndian.PutUint32(head[subprefixAt:], 64) }, "subprefix bits 64 out of range"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := FromBuffer(mutateHeader(t, buf, tc.mutate)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("open error %v, want one containing %q", err, tc.want)
			}
		})
	}
	t.Run("a truncated leaf record", func(t *testing.T) {
		if _, err := FromBuffer(buf[:codeOf(last)+3]); err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("open error %v, want a truncation", err)
		}
	})
}

// TestTreeletDeeperThanHeader: the header's treelet depth bounds every
// progressive read, so a treelet whose nodes lie deeper than the header says
// would lose the particles below that depth even at quality 1. A file whose
// header declares one level less than its deepest treelet opens — the header
// alone cannot tell — but that treelet's load refuses it, and ReadAll returns
// the error. A header that declares more than maxSaneDepth is refused at
// open.
func TestTreeletDeeperThanHeader(t *testing.T) {
	buf := clusteredSample(t)
	f, err := FromBuffer(buf)
	if err != nil {
		t.Fatal(err)
	}
	// magic, version, domain, subprefixBits, lodPerNode, maxLeafSize
	const depthAt = 4 + 4 + 48 + 4 + 4 + 4
	setDepth := func(d int) []byte {
		return mutateHeader(t, buf, func(head []byte) { binary.LittleEndian.PutUint32(head[depthAt:], uint32(d)) })
	}
	g, err := FromBuffer(setDepth(f.MaxTreeletDepth - 1))
	if err != nil {
		t.Fatalf("a header one level short failed to open: %v", err)
	}
	if got, err := g.ReadAll(); err == nil || !strings.Contains(err.Error(), "deeper than the header's") {
		t.Fatalf("ReadAll returned %d of %d rows, error %v; want the depth refusal", got.Len(), f.NumParticles, err)
	}
	if _, err := FromBuffer(setDepth(maxSaneDepth + 1)); err == nil || !strings.Contains(err.Error(), "treelet depth 65 exceeds 64") {
		t.Fatalf("open error %v, want the depth limit", err)
	}
}

// TestLeafPointCountBound: a leaf record claiming more points than its
// treelet has bytes is rejected at open: the bound keeps the treelet's
// column allocations within bytes the file holds.
func TestLeafPointCountBound(t *testing.T) {
	buf := compressedSample(t)
	f, err := FromBuffer(buf)
	if err != nil {
		t.Fatal(err)
	}
	mut := mutateHeader(t, buf, func(head []byte) {
		binary.LittleEndian.PutUint32(head[leafRecordOffset(f, 0)+4+4:], f.leaves[0].byteLen+1)
	})
	if _, err := FromBuffer(mut); err == nil || !strings.Contains(err.Error(), "treelet 0 claims") {
		t.Fatalf("open error %v, want the point-count bound", err)
	}
}

// TestPackedPositionCorruption is the corruption matrix for the framing of a
// version-3 treelet's position sections: every case must fail the treelet
// load with a clean error, and so must every retired position codec id over
// a sorted-cell-for run — flat quant (1), inline frames (3) and cell-for
// (5). What a sorted-cell-for stream inside its frame can say wrong is
// TestCellFORCorruption's (its blocks of width bits a value) and
// TestSortedCellFORCorruption's (its Elias–Fano blocks).
func TestPackedPositionCorruption(t *testing.T) {
	buf := compressedSample(t)
	f, err := FromBuffer(buf)
	if err != nil {
		t.Fatal(err)
	}
	lay, err := f.TreeletLayout(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	secs := lay.Sections
	if secs[0].Codec != codecSortedCellFOR || secs[1].Codec != codecSortedCellFOR {
		t.Fatalf("treelet 0's x/y sections are %s/%s; pick different sample data", CodecName(secs[0].Codec), CodecName(secs[1].Codec))
	}
	xOff := positionOffset(t, buf, 0) // x section frame: codec u8, encLen u32
	for _, tc := range []struct {
		name   string
		mutate func(tre []byte)
		want   string
	}{
		{"section one byte short", func(tre []byte) { addU32(tre[xOff+1:], -1) }, "truncated"},
		{"section swallows the next one", func(tre []byte) { addU32(tre[xOff+1:], sectionFrameLen+secs[1].EncBytes) }, "trailing bytes"},
		{"section longer than the treelet", func(tre []byte) {
			binary.LittleEndian.PutUint32(tre[xOff+1:], uint32(len(tre)))
		}, "truncated codec stream"},
		{"attribute codec on a position", func(tre []byte) { tre[xOff] = codecQuantFOR }, "unknown position codec"},
		{"sign-key-for on a position", func(tre []byte) { tre[xOff] = codecSignKeyFOR }, "unknown position codec id 7"},
		{"flat quant on a position", func(tre []byte) { tre[xOff] = 1 }, "unknown position codec id 1"},
		{"inline-frame codec over the run", func(tre []byte) { tre[xOff] = 3 }, "unknown position codec id 3"},
		{"cell-for over Elias–Fano blocks", func(tre []byte) { tre[xOff] = 5 }, "unknown position codec id 5"},
		{"raw codec over a packed stream", func(tre []byte) { tre[xOff] = codecRaw }, "raw position column"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			expectLoadError(t, mutateTreelet(t, buf, 0, tc.mutate), tc.want)
		})
	}
}

// TestCellFORCorruption is the corruption matrix for the blocks of width bits
// a value of a sorted-cell-for position section in a real file, the frames of
// the k-d cells as they are, and for the cells: the stream holds no
// frame to get wrong, so what a CRC-valid hostile file can still say is an
// offset outside its node's k-d cell — a particle where no traversal would
// look for it —, a block run that is short, long or padded with something,
// and bounds or a node table the cells cannot be derived from. Every case
// must fail the treelet load with a clean error.
func TestCellFORCorruption(t *testing.T) {
	buf := compressedSample(t)
	f, err := FromBuffer(buf)
	if err != nil {
		t.Fatal(err)
	}
	pt, _, err := f.loadTreelet(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	lay, err := f.TreeletLayout(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := f.leaves[0]
	// The x section's frame (codec u8, encLen u32) and payload, and the frames
	// its blocks decode under.
	xOff := positionOffset(t, buf, 0)
	xLen := lay.Sections[0].EncBytes
	if lay.Sections[0].Codec != codecSortedCellFOR || lay.Sections[0].FrameBytes != 0 || ref.numNodes < 3 {
		t.Fatalf("treelet 0's x section is %s with %d frame bytes over %d nodes; pick different sample data",
			CodecName(lay.Sections[0].Codec), lay.Sections[0].FrameBytes, ref.numNodes)
	}
	nb := newNodeBlocks(pt.nodes, len(pt.x))
	kd := nb.kdCells(ref.cells)
	if _, err := decodePos(codecSortedCellFOR, buf[int(ref.offset)+xOff+5:][:xLen], nb, kd, geom.X, nil); err != nil {
		t.Fatal(err)
	}
	// A block of width bits a value whose cell is not a whole power of two
	// wide has offsets its width can spell and its cell does not hold.
	xFrames := kd.frames[geom.X]
	loose, padBits := -1, 0
	for i, fr := range xFrames {
		if loose < 0 && !fr.ef && pt.nodes[i].count > 0 && fr.span != 1<<fr.width-1 {
			loose = i
		}
		padBits = (padBits + fr.bits(pt.nodes[i].count)) % 8
	}
	firstXSplit := -1
	for i, n := range pt.nodes {
		if n.axis == uint8(geom.X) {
			firstXSplit = i
			break
		}
	}
	if loose < 0 || padBits == 0 || firstXSplit < 0 {
		t.Fatalf("x section: loose block %d, %d padding bits, first x split at node %d; pick different sample data", loose, padBits, firstXSplit)
	}
	// Treelet 0's cells in its leaf record: lower x, y, z then upper x, y, z
	// after byteLen, the two counts and the code.
	cells0 := leafRecordOffset(f, 0) + 4 + 4 + 4 + 8
	putKey := func(b []byte, v float32) { binary.LittleEndian.PutUint32(b, keyOf(v)) }
	for _, tc := range []struct {
		name   string
		header func(head []byte)
		mutate func(tre []byte)
		want   string
	}{
		{"offset past the cell", nil, func(tre []byte) {
			fr := xFrames[loose]
			for b := fr.bit; b < fr.bit+int(fr.width); b++ {
				tre[xOff+5+b>>3] |= 1 << (b & 7)
			}
		}, "particle outside its k-d cell"},
		{"run one byte short", nil, func(tre []byte) { addU32(tre[xOff+1:], -1) }, "truncated"},
		{"run one byte long", nil, func(tre []byte) { addU32(tre[xOff+1:], 1) }, "trailing bytes"},
		{"bits in the padding", nil, func(tre []byte) { tre[xOff+5+xLen-1] |= 0x80 }, "non-zero padding bits"},
		{"cell-for on an attribute", nil, func(tre []byte) {
			_, secOff := firstSectionOffset(t, buf, 0)
			tre[secOff] = 5 // retired
		}, "unknown attribute codec id 5"},
		{"sorted-cell-for on an attribute", nil, func(tre []byte) {
			_, secOff := firstSectionOffset(t, buf, 0)
			tre[secOff] = codecSortedCellFOR
		}, "unknown attribute codec id 8"},
		{"bounds that end below a split plane", func(head []byte) {
			putKey(head[cells0+12:], pt.nodes[firstXSplit].split-1) // upper x
			putKey(head[cells0:], pt.nodes[firstXSplit].split-2)    // lower x
		}, nil, "outside its cell"},
		{"empty bounds", func(head []byte) {
			putKey(head[cells0:], 1)
			putKey(head[cells0+12:], -1)
		}, nil, "bounds are empty"},
		{"a split plane moved out of its cell", nil, func(tre []byte) {
			// The split column's base: every split key moves by 2^31.
			base := tre[lay.NodeTable.Columns[0].Bytes+lay.NodeTable.Columns[1].Bytes:]
			rewriteUvarint(t, base, func(v uint64) uint64 { return v ^ 1<<31 })
		}, "outside its cell"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mut := buf
			if tc.header != nil {
				mut = mutateHeader(t, mut, tc.header)
			}
			if tc.mutate != nil {
				mut = mutateTreelet(t, mut, 0, tc.mutate)
			}
			expectLoadError(t, mut, tc.want)
		})
	}
}

// TestSortedCellFORCorruption is the corruption matrix for the Elias–Fano
// blocks of sorted-cell-for position sections in a real file: the reader
// sizes every block from the node table and the cells alone, so what a
// CRC-valid hostile file can still say is a high part with a one missing or
// one too many, an offset above its cell's span, a high part that runs past
// the section and bits in the padding behind it. Every case must fail the
// treelet load with a clean error.
func TestSortedCellFORCorruption(t *testing.T) {
	buf := compressedSample(t)
	f, err := FromBuffer(buf)
	if err != nil {
		t.Fatal(err)
	}
	pt, _, err := f.loadTreelet(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	lay, err := f.TreeletLayout(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := f.leaves[0]
	// The first position section of treelet 0 whose last block is an
	// Elias–Fano one: its frame's offset in the treelet and its frames.
	secOff, off := -1, positionOffset(t, buf, 0)
	var frames []blockFrame
	nb := newNodeBlocks(pt.nodes, len(pt.x))
	kd := nb.kdCells(ref.cells)
	for ax, sec := range lay.Sections[:PositionSections] {
		if _, err := decodePos(sec.Codec, buf[int(ref.offset)+off+sectionFrameLen:][:sec.EncBytes], nb, kd, geom.Axis(ax), nil); err != nil {
			t.Fatal(err)
		}
		if fr := kd.frames[ax]; sec.Codec == codecSortedCellFOR && fr[len(fr)-1].ef {
			secOff, frames = off, fr
			break
		}
		off += sectionFrameLen + sec.EncBytes
	}
	if secOff < 0 {
		t.Fatal("no position section of treelet 0 ends in an Elias–Fano block; pick different sample data")
	}
	last := len(frames) - 1
	fr, n := frames[last], int(pt.nodes[last].count)
	high := fr.bit + n*int(fr.low)
	end := high + n + int(fr.span>>fr.low) + 1
	payload := buf[int(ref.offset)+secOff+sectionFrameLen:]
	firstOne, firstZero, lastOne := -1, -1, -1
	for b := high; b < end; b++ {
		if payload[b>>3]>>(b&7)&1 != 0 {
			if firstOne < 0 {
				firstOne = b
			}
			lastOne = b
		} else if firstZero < 0 {
			firstZero = b
		}
	}
	if firstOne < 0 || firstZero < 0 || lastOne == end-1 || end%8 == 0 {
		t.Fatalf("last block: ones from bit %d to %d, first zero %d, ends at bit %d; pick different sample data", firstOne, lastOne, firstZero, end)
	}
	flip := func(tre []byte, b int) { tre[secOff+sectionFrameLen+b>>3] ^= 1 << (b & 7) }
	for _, tc := range []struct {
		name   string
		mutate func(tre []byte)
		want   string
	}{
		{"a one missing from the high part", func(tre []byte) { flip(tre, firstOne) }, fmt.Sprintf("holds %d ones, the node %d particles", n-1, n)},
		{"an extra one in the high part", func(tre []byte) { flip(tre, firstZero) }, fmt.Sprintf("holds %d ones, the node %d particles", n+1, n)},
		{"an offset above its cell", func(tre []byte) {
			// The last one moves to the part's last bit: a high part one
			// above span>>low.
			flip(tre, lastOne)
			flip(tre, end-1)
		}, "particle outside its k-d cell"},
		{"a high part past the section", func(tre []byte) { addU32(tre[secOff+1:], -1) }, "truncated: the blocks end at byte"},
		{"bits in the padding", func(tre []byte) { flip(tre, end) }, "non-zero padding bits"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			expectLoadError(t, mutateTreelet(t, buf, 0, tc.mutate), tc.want)
		})
	}
}

// quantColsStream writes a quant-for section in frame mode 2 from whatever
// frames it is given, valid or not: vmin, the mode byte, the bases and the
// widths as two runs, then qs' node ranges under their frames, bit-contiguous.
func quantColsStream(nodes []node, frames []forFrame, qs []uint64) []byte {
	bases, widths := make([]uint64, len(frames)), make([]uint64, len(frames))
	for i, fr := range frames {
		bases[i], widths[i] = fr.base, uint64(fr.width)
	}
	out := make([]byte, quantFORHeaderLen+2*(binary.MaxVarintLen64+1)+16*len(frames)+8*len(qs)+packSlack)
	out[8] = modePerNodeCols
	pos := putRun(out, quantFORHeaderLen, bases, frameOf(bases))
	bit := putRun(out, pos, widths, frameOf(widths)) << 3
	for i, n := range nodes {
		bit = packBits(out, bit, qs[n.start:n.start+n.count], frames[i])
	}
	return out[:(bit+7)>>3]
}

// TestFrameColumnCorruption drives the quant-for decoder with mode-2 sections
// the encoder cannot produce: the two frame columns are checked — against the
// node table's node count, the 48-bit index range and the payload — before
// anything is sized by them or read under them, and the block run has to end
// exactly where the section does. Each must be an error, none a panic; the
// valid stream the cases are cut from decodes.
func TestFrameColumnCorruption(t *testing.T) {
	const bound = 0.5
	nodes := forTreelet([]int{3, 9, 0, 5}).nodes
	qs := []uint64{100, 101, 102, 7, 7, 9, 12, 7, 8, 9, 10, 11, 5000, 5001, 5003, 5002, 5000}
	good := []forFrame{{100, 2}, {7, 3}, {0, 0}, {5000, 2}}
	valid := quantColsStream(nodes, good, qs)
	nb := newNodeBlocks(nodes, len(qs))
	var info SectionInfo
	vals := make([]float64, len(qs))
	err := decodeQuantFOR(vals, codecQuantFOR, valid, nb, bound, 1, &info)
	if err != nil || info.Mode != "per-node-cols" || info.FrameBytes == 0 {
		t.Fatalf("the valid stream: mode %q, %d frame bytes, error %v", info.Mode, info.FrameBytes, err)
	}
	for i, q := range qs {
		if vals[i] != float64(q) { // vmin 0, step 2 x bound = 1
			t.Fatalf("value %d decodes to %v, want %d", i, vals[i], q)
		}
	}
	if padBits := (3*2 + 9*3 + 5*2) % 8; padBits == 0 {
		t.Fatal("the sample run has no padding bits")
	}
	with := func(i int, fr forFrame) []forFrame {
		frames := slices.Clone(good)
		frames[i] = fr
		return frames
	}
	basesEnd := quantFORHeaderLen + runLen(len(good), forFrame{0, 13})
	for _, tc := range []struct {
		name    string
		payload []byte
		nodes   []node
		want    string
	}{
		{"width 49", quantColsStream(nodes, with(2, forFrame{0, 49}), qs), nodes, "exceeds 48"},
		{"width column of 7-bit entries", append(slices.Clone(valid[:basesEnd+1]), 7, 0xff, 0xff, 0xff, 0xff), nodes, "exceeds 6"},
		{"base + 2^width - 1 past 48 bits", quantColsStream(nodes, with(2, forFrame{1<<48 - 4, 3}), qs), nodes, "overflows 48 bits"},
		{"one node more than the columns hold", valid, append(slices.Clone(nodes), node{axis: leafAxis, start: uint32(len(qs))}), ""},
		{"one node fewer than the columns hold", valid, []node{nodes[0], nodes[1], {axis: leafAxis, start: 12, count: 5}}, ""},
		{"cut inside the base column", valid[:quantFORHeaderLen+3], nodes, "truncated"},
		{"cut before the width column", valid[:basesEnd], nodes, "truncated at frame"},
		{"cut inside the width column", valid[:basesEnd+2], nodes, "truncated"},
		{"no block run", valid[:basesEnd+runLen(len(good), forFrame{0, 2})], nodes, "truncated"},
		{"run one byte short", valid[:len(valid)-1], nodes, "truncated"},
		{"run one byte long", append(slices.Clone(valid), 0), nodes, "trailing bytes"},
		{"bits in the padding", append(slices.Clone(valid[:len(valid)-1]), valid[len(valid)-1]|0x80), nodes, "non-zero padding bits"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := 0
			for _, nd := range tc.nodes {
				n += int(nd.count)
			}
			err := decodeQuantFOR(make([]float64, n), codecQuantFOR, tc.payload, newNodeBlocks(tc.nodes, n), bound, 1, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one containing %q", err, tc.want)
			}
		})
	}
	// And in a real file: the first per-node-cols section of treelet 0, its
	// block run one byte short behind valid checksums.
	buf := compressedSample(t)
	f, err := FromBuffer(buf)
	if err != nil {
		t.Fatal(err)
	}
	lay, err := f.TreeletLayout(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	off := positionOffset(t, buf, 0)
	for i, sec := range lay.Sections {
		if i >= PositionSections && sec.Mode == "per-node-cols" {
			expectLoadError(t, mutateTreelet(t, buf, 0, func(tre []byte) {
				binary.LittleEndian.PutUint32(tre[off+1:], uint32(sec.EncBytes-1))
			}), "truncated")
			return
		}
		off += 5 + sec.EncBytes
	}
	t.Fatal("treelet 0 of the sample has no per-node-cols section; pick different sample data")
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
	clustered := clusteredSample(f)
	f.Add(clustered)
	f.Add(clustered[:len(clustered)/2])
	f.Add(stripToV1(f, clustered)) // refused at the version field
	s, domain := randomSet(60, 1)
	if b, err := Build(s, domain, DefaultBuildConfig()); err == nil {
		f.Add(b.Buf)
	}
	// A seed with lossy attributes so mutations reach the quant-for decoder.
	cs, cdomain := cosmoSet(60, 3)
	ccfg := DefaultBuildConfig()
	ccfg.Compress = true
	ccfg.AttrErrorBounds = []float64{1e-3, 1e-1, 1e-3, 0}
	if b, err := Build(cs, cdomain, ccfg); err == nil {
		f.Add(b.Buf)
	}
	f.Add([]byte{})
	f.Add([]byte("BAT1\x01\x00\x00\x00"))
	// The lossy golden file and the one of sign-key-for attributes.
	f.Add(goldenFile(f, "golden_v5.bat"))
	f.Add(goldenFile(f, "golden_v5_signkeys.bat"))
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

// FuzzTreelet feeds arbitrary bytes to parseTreelet as treelet 0 of a
// multi-treelet clustered build, a small default (lossless) build, a build
// with lossy attributes, the lossy golden file and the one of sign-key-for
// attributes — all of them sorted-cell-for positions —, with the checksums
// fixed up after them: every readable file is checksummed, so no mutation
// FuzzDecode makes gets past the treelet CRC to the node-table and section
// parsing.
func FuzzTreelet(f *testing.F) {
	s, domain := randomSet(60, 1)
	lossless, err := Build(s, domain, DefaultBuildConfig())
	if err != nil {
		f.Fatal(err)
	}
	cs, cdomain := cosmoSet(60, 3)
	lossy, err := Build(cs, cdomain, compressedConfig([]float64{1e-3, 1e-1, 1e-3, 0}))
	if err != nil {
		f.Fatal(err)
	}
	files := [][]byte{clusteredSample(f), lossless.Buf, lossy.Buf, goldenFile(f, "golden_v5.bat"), goldenFile(f, "golden_v5_signkeys.bat")}
	for _, buf := range files {
		file, err := FromBuffer(buf)
		if err != nil {
			f.Fatal(err)
		}
		ref := file.leaves[0]
		f.Add(buf[ref.offset : ref.offset+int64(ref.byteLen)])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, buf := range files {
			// Shorter data leaves the treelet's own tail in place.
			mut := mutateTreelet(t, buf, 0, func(tre []byte) { copy(tre, data) })
			file, err := FromBuffer(mut)
			if err != nil {
				t.Fatalf("a file with only treelet bytes changed failed to open: %v", err)
			}
			if pt, _, err := file.loadTreelet(context.Background(), 0); err == nil {
				for a, col := range pt.attrs {
					if len(col) != len(pt.x) {
						t.Fatalf("attribute %d has %d of %d values", a, len(col), len(pt.x))
					}
				}
			}
			visits := 0
			file.QueryWithConfig(Query{}, QueryConfig{}, func(p geom.Vec3, attrs []float64) error {
				if visits++; visits > 10000 {
					return errStopFuzz
				}
				return nil
			})
		}
	})
}

// sectionSeed is one real section — its column name, codec and payload — with
// the node table and point count it decodes against and, for a position
// section, its axis and the treelet's bounds — all three axes: a
// sorted-cell-for section takes its nodes' sort axes from them. A packed node table is a
// seed too (attr nodeTableSeed): its bytes are the payload, its attribute
// count the codec, and the node table's length gives its node count.
type sectionSeed struct {
	attr    string
	codec   uint8
	payload []byte
	table   []byte
	nPoints uint16
	axis    uint8
	lo, hi  [3]float32
}

// modeAt is where a framed (quant-for, int-for, key-for or sign-key-for)
// seed keeps its frame mode.
func (s sectionSeed) modeAt() int {
	if s.codec == codecKeyFOR || s.codec == codecSignKeyFOR {
		return keyFORHeaderLen - 1
	}
	return quantFORHeaderLen - 1
}

// cells are the treelet cells a position seed decodes against.
func (s sectionSeed) cells() [3]keyCell { return fuzzCells(s.lo, s.hi) }

// fuzzCells are the cells of a treelet whose coordinates span [lo, hi].
func fuzzCells(lo, hi [3]float32) [3]keyCell {
	var cells [3]keyCell
	for ax := range cells {
		cells[ax] = keyCell{keyOf(lo[ax]), keyOf(hi[ax])}
	}
	return cells
}

// fuzzNodeBytes is FuzzDecodeSections' node record: start u16, count u16,
// axis u8, split plane f32. Children are implicit, as in a packed node table:
// the k-th record that is not a leaf has records 2k+1 and 2k+2.
const fuzzNodeBytes = 9

const nodeTableSeed = "(node table)"

// rangesTile reports whether the node particle ranges, taken in node order,
// tile [0, nPoints) back to back: what unpackNodeTable guarantees and every
// block decoder relies on.
func rangesTile(nodes []node, nPoints uint32) bool {
	next := uint32(0)
	for _, n := range nodes {
		if n.start != next || n.count > nPoints-next {
			return false
		}
		next += n.count
	}
	return next == nPoints
}

// checkUnpackedNodes holds the nodes and bitmaps unpackNodeTable returned
// to what the traversal and the block decoders rely on: nA bitmaps per node,
// children in range, one parent each — with the children behind their
// parent, so no cycle —, none deeper than maxDepth, and ranges that tile the
// points.
func checkUnpackedNodes(nodes []node, bms []bitmap.Bitmap, nPoints uint32, nA, maxDepth int) error {
	if len(bms) != len(nodes)*nA {
		return fmt.Errorf("%d bitmaps for %d nodes of %d attributes", len(bms), len(nodes), nA)
	}
	seen := make([]bool, len(nodes))
	depth := make([]int, len(nodes))
	for i := range nodes {
		n := &nodes[i]
		if n.axis > leafAxis {
			return fmt.Errorf("node %d has axis %d", i, n.axis)
		}
		if n.axis == leafAxis {
			continue
		}
		for _, ref := range [2]int32{n.left, n.right} {
			if int(ref) <= i || int(ref) >= len(nodes) {
				return fmt.Errorf("node %d of %d has child %d", i, len(nodes), ref)
			}
			if seen[ref] {
				return fmt.Errorf("node %d has two parents", ref)
			}
			seen[ref] = true
			if depth[ref] = depth[i] + 1; depth[ref] > maxDepth {
				return fmt.Errorf("node %d is at depth %d, past %d", ref, depth[ref], maxDepth)
			}
		}
	}
	for i := 1; i < len(nodes); i++ {
		if !seen[i] {
			return fmt.Errorf("node %d has no parent", i)
		}
	}
	if !rangesTile(nodes, nPoints) {
		return fmt.Errorf("node ranges do not tile %d points", nPoints)
	}
	return nil
}

// fuzzNodes reads a node table of fuzzNodeBytes records. ok is false when the
// ranges do not tile nPoints: unpackNodeTable returns no such table, and the
// decoders rely on that.
func fuzzNodes(table []byte, nPoints uint16) (nodes []node, ok bool) {
	nodes = make([]node, len(table)/fuzzNodeBytes)
	inner := int32(0)
	for i := range nodes {
		rec := table[i*fuzzNodeBytes:]
		nodes[i] = node{
			axis:  rec[4] & 3,
			split: math.Float32frombits(binary.LittleEndian.Uint32(rec[5:])),
			start: uint32(binary.LittleEndian.Uint16(rec)),
			count: uint32(binary.LittleEndian.Uint16(rec[2:])),
		}
		if nodes[i].axis != leafAxis {
			nodes[i].left, nodes[i].right = 2*inner+1, 2*inner+2
			inner++
		}
	}
	return nodes, rangesTile(nodes, uint32(nPoints))
}

// fuzzSectionBound / fuzzSectionLODScale are the footer declaration the
// fuzzed quant sections are checked against.
const fuzzSectionBound, fuzzSectionLODScale = 0.5, 2.0

// fileSections cuts every column of every treelet out of the image buf of f.
func fileSections(tb testing.TB, f *File, buf []byte) []sectionSeed {
	tb.Helper()
	var seeds []sectionSeed
	for ti, ref := range f.leaves {
		pt, _, err := f.loadTreelet(context.Background(), ti)
		if err != nil {
			tb.Fatal(err)
		}
		var table []byte
		for _, n := range pt.nodes {
			table = binary.LittleEndian.AppendUint16(table, uint16(n.start))
			table = binary.LittleEndian.AppendUint16(table, uint16(n.count))
			table = append(table, n.axis)
			table = binary.LittleEndian.AppendUint32(table, math.Float32bits(n.split))
		}
		lay, err := f.TreeletLayout(context.Background(), ti)
		if err != nil {
			tb.Fatal(err)
		}
		p := int(ref.offset)
		seeds = append(seeds, sectionSeed{attr: nodeTableSeed, codec: uint8(f.Schema.NumAttrs()), payload: buf[p : p+lay.NodeTable.Bytes], table: table, nPoints: uint16(ref.numPoints)})
		p += lay.NodeTable.Bytes
		for i, sec := range lay.Sections {
			p += sectionFrameLen
			seed := sectionSeed{attr: sec.Attr, codec: sec.Codec, payload: buf[p : p+sec.EncBytes], table: table, nPoints: uint16(ref.numPoints)}
			if i < PositionSections {
				seed.axis = uint8(i)
				for ax, c := range ref.cells {
					seed.lo[ax] = math.Float32frombits(f32FromKey(c.lo))
					seed.hi[ax] = math.Float32frombits(f32FromKey(c.hi))
				}
			}
			seeds = append(seeds, seed)
			p += sec.EncBytes
		}
	}
	return seeds
}

// sectionSeeds cuts every section of every treelet out of a small fresh
// compressed build, the same particles built lossless (key-for attributes,
// int-for ids in one frame), a lossless build of five float64 columns — one
// that crosses zero smoothly (key-for: the nodes that straddle zero need key
// frames of 62 and 63 bits, the rest far fewer), the same under alternating
// signs and zero-mean noise (sign-key-for, in both frame modes), one of one
// sign across some 2000 binades (key-for blocks of over 58 bits, the packer's
// wide lane) and ids that rise along x (int-for in the nodes' own frames) —,
// a lossless build of one column of scattered float64 bit patterns, which no
// codec shrinks (raw), over x columns with a NaN in some treelets (raw too),
// and golden_v5.bat and golden_v5_lossless.bat (int-for ids beside a lossy
// and a lossless mass), so the fuzzer starts from streams each decoder
// accepts; every other position section is sorted-cell-for.
// sectionSeedBuilds returns the images.
func sectionSeeds(tb testing.TB) []sectionSeed {
	var seeds []sectionSeed
	for _, buf := range sectionSeedBuilds(tb) {
		f, err := FromBuffer(buf)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, fileSections(tb, f, buf)...)
	}
	return seeds
}

// sectionSeedBuilds are the images sectionSeeds cuts its seeds from.
func sectionSeedBuilds(tb testing.TB) [][]byte {
	s, domain := cosmoSet(300, 5)
	cfg := compressedConfig([]float64{fuzzSectionBound, fuzzSectionBound, 0, 0})
	cfg.LODErrorScale = fuzzSectionLODScale
	zs := particles.NewSet(particles.NewSchema("v", "signed", "noise", "binades", "id"), 300)
	for i := 0; i < 300; i++ {
		x, sign := float64(i)/300, float64(i%2)-0.5
		frac := float64(i*7919%1000) / 1000
		zs.Append(geom.V3(x, float64(i%7)/7, 0.5), []float64{x - 0.5, (x - 0.5) * sign,
			math.Copysign(1+frac, sign), math.Ldexp(1+frac, i*37%2000-1000), float64(i)})
	}
	rs := particles.NewSet(particles.NewSchema("bits"), 300)
	for i := 0; i < 300; i++ {
		x := float64(i) / 300
		if i%97 == 0 {
			x = math.NaN()
		}
		rs.Append(geom.V3(x, float64(i%11)/11, float64(i%5)/5), []float64{math.Float64frombits(uint64(i+1) * 0x9e3779b97f4a7c15)})
	}
	var bufs [][]byte
	for _, build := range []struct {
		set *particles.Set
		cfg BuildConfig
	}{{s, cfg}, {s, compressedConfig(nil)}, {zs, compressedConfig(nil)}, {rs, compressedConfig(nil)}} {
		b, err := Build(build.set, domain, build.cfg)
		if err != nil {
			tb.Fatal(err)
		}
		bufs = append(bufs, b.Buf)
	}
	return append(bufs, goldenFile(tb, "golden_v5.bat"), goldenFile(tb, "golden_v5_lossless.bat"))
}

// retiredSeeds relabels live sections with the section codec ids and the
// frame mode earlier writers emitted and no reader decodes: every quant-for
// section as flat quant (id 1), every int-for section as delta (id 2), every
// sorted-cell-for section as positions under inline frames (id 3) and as
// cell-for (id 5), every per-node-cols section — quant-for, int-for, key-for
// or sign-key-for — as inline per-node frames (mode 1). Every decoder must
// refuse them.
func retiredSeeds(live []sectionSeed) []sectionSeed {
	var out []sectionSeed
	for _, s := range live {
		switch s.codec {
		case codecQuantFOR, codecIntFOR, codecKeyFOR, codecSignKeyFOR:
			if id, ok := map[uint8]uint8{codecQuantFOR: 1, codecIntFOR: 2}[s.codec]; ok {
				flat := s
				flat.codec = id
				out = append(out, flat)
			}
			if m := s.modeAt(); s.payload[m] == modePerNodeCols {
				s.payload = append([]byte(nil), s.payload...)
				s.payload[m] = 1
				out = append(out, s)
			}
		case codecSortedCellFOR:
			for _, id := range []uint8{3, 5} {
				s.codec = id
				out = append(out, s)
			}
		}
	}
	return out
}

// FuzzDecodeSections feeds arbitrary payloads and node tables to the section
// decoders — raw (attribute and position), the one for quant-for and
// int-for, the one for key-for and sign-key-for, and sorted-cell-for, the
// last against the treelet cells of a bounds box, whose three axes give a
// sorted-cell-for section its k-d cells and its nodes' sort axes —,
// past the checksums and the file structure FuzzDecode has to get through
// first, and the payload to the packed node-table decoder as a table of as
// many nodes as the node table has and of codec attributes, no deeper than
// the axis byte leaves of the depth limit. Errors are fine; panics, columns
// of any length but nPoints and node tables that are not a tree over the
// points within that depth are not.
func FuzzDecodeSections(f *testing.F) {
	seeds := sectionSeeds(f)
	for _, s := range append(seeds, retiredSeeds(seeds)...) {
		f.Add(s.codec, s.payload, s.table, s.nPoints, s.axis, s.lo[0], s.hi[0], s.lo[1], s.hi[1], s.lo[2], s.hi[2])
	}
	oneLeaf := []byte{0, 0, 1, 0, 3, 0, 0, 0, 0}
	var zero float32
	f.Add(codecRaw, []byte{}, []byte{}, uint16(0), uint8(0), zero, zero, zero, zero, zero, zero)
	f.Add(codecQuantFOR, []byte{0, 0, 0, 0, 0, 0, 0, 0, modePerNodeCols, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x3f, 0, 48, 0}, oneLeaf, uint16(1), uint8(0), zero, zero, zero, zero, zero, zero)
	f.Add(codecSortedCellFOR, []byte{0xff}, oneLeaf, uint16(1), uint8(2), float32(-1), float32(1), float32(-1), float32(1), float32(-1), float32(1))
	for _, p := range intFORAnchorSeeds() {
		f.Add(codecIntFOR, p, oneLeaf, uint16(1), uint8(0), zero, zero, zero, zero, zero, zero)
	}
	// Width-64 key frames on a base near 2^64: base + span must be refused,
	// never wrapped, in either mode, under either key map.
	for _, p := range keyFOROverflowSeeds() {
		for _, codec := range []uint8{codecKeyFOR, codecSignKeyFOR} {
			f.Add(codec, p, oneLeaf, uint16(1), uint8(0), zero, zero, zero, zero, zero, zero)
		}
	}
	f.Fuzz(func(t *testing.T, codec uint8, payload, table []byte, nPoints uint16, axis uint8, lx, hx, ly, hy, lz, hz float32) {
		nA := int(codec % 8)
		// The axis byte also lowers the table's depth limit: the seeds, at
		// axes 0 to 2, keep nearly all of it.
		maxDepth := maxSaneDepth - int(axis)%(maxSaneDepth+1)
		if unpacked, bms, n, err := unpackNodeTable(payload, uint32(len(table)/fuzzNodeBytes), uint32(nPoints), nA, maxDepth, idDict, nil); err == nil {
			if n > len(payload) {
				t.Fatalf("node table of %d bytes read from %d", n, len(payload))
			}
			if err := checkUnpackedNodes(unpacked, bms, uint32(nPoints), nA, maxDepth); err != nil {
				t.Fatalf("unpackNodeTable accepted a malformed table: %v", err)
			}
		}
		nodes, ok := fuzzNodes(table, nPoints)
		if !ok {
			return
		}
		nb := newNodeBlocks(nodes, int(nPoints))
		for _, typ := range []particles.AttrType{particles.Float32, particles.Float64} {
			vals, err := decodeAttr(codec, payload, nb, typ, fuzzSectionBound, fuzzSectionLODScale, nil)
			if err == nil && len(vals) != int(nPoints) {
				t.Fatalf("attribute codec %d returned %d of %d values", codec, len(vals), nPoints)
			}
		}
		lo, hi := [3]float32{lx, ly, lz}, [3]float32{hx, hy, hz}
		col, err := decodePos(codec, payload, nb, nb.kdCells(fuzzCells(lo, hi)), geom.Axis(axis%3), nil)
		if err == nil && len(col) != int(nPoints) {
			t.Fatalf("position codec %d returned %d of %d values", codec, len(col), nPoints)
		}
		// A sorted-cell-for column cannot hold a coordinate outside the
		// bounds it was decoded against: every frame is a cell inside them,
		// an Elias–Fano block's too.
		if ax := axis % 3; codec == codecSortedCellFOR {
			for _, v := range col {
				if !(v >= lo[ax] && v <= hi[ax]) {
					t.Fatalf("%s decoded %v outside the treelet bounds [%v, %v]", CodecName(codec), v, lo[ax], hi[ax])
				}
			}
		}
	})
}

// keyFOROverflowSeeds are key-for (and sign-key-for) streams of one value
// whose frame is 64 bits wide on a base 5 below 2^64: one frame, whose offset
// passes what the base leaves, and a frame column entry, whose base +
// 2^64 - 1 would wrap.
func keyFOROverflowSeeds() [][]byte {
	base := binary.AppendUvarint(nil, math.MaxUint64-5)
	ones := bytes.Repeat([]byte{0xff}, 8)
	one := append(append(append([]byte{modeOneFrame}, base...), 64), ones...)
	// Mode 2: the base column and the width column are runs of one entry
	// under width-0 frames, then the block.
	cols := append(append(append([]byte{modePerNodeCols}, base...), 0, 64, 0), ones...)
	return [][]byte{one, cols}
}

// intFORAnchorSeeds are int-for streams of one value under one frame of
// width 0 whose grid anchor no encoder writes — one that is not an integer,
// ±Inf —, each behind the same stream under the anchor 3, which decodes.
func intFORAnchorSeeds() [][]byte {
	var out [][]byte
	for _, anchor := range []float64{3, 0.5, math.Inf(1), math.Inf(-1)} {
		p := binary.LittleEndian.AppendUint64(nil, math.Float64bits(anchor))
		out = append(out, append(p, modeOneFrame, 0, 0))
	}
	return out
}

// TestSectionSeedsDecode keeps FuzzDecodeSections' corpus honest: every seed
// cut from a file is accepted by the decoder it was cut from, all six codecs
// occur, quant-for, int-for, key-for and sign-key-for each in both frame
// modes, sorted-cell-for with Elias–Fano blocks, and a key-for block of at
// least 58 bits (the packer's wide lane); every retired seed — codecs 1, 2, 3
// and 5, mode 1 — is refused by every decoder, and so are the hand-made key
// frames that would wrap past 2^64, under either key map, and the int-for
// anchors that are no integer.
func TestSectionSeedsDecode(t *testing.T) {
	seen := map[uint8]bool{}
	modes := map[string]bool{}
	var widest uint8
	nodeTables, efNodes := 0, 0
	decode := func(s sectionSeed, info *SectionInfo) (err32, err64, errPos error) {
		nodes, ok := fuzzNodes(s.table, s.nPoints)
		if !ok {
			t.Fatalf("seed of %s: node table does not tile its %d points", CodecName(s.codec), s.nPoints)
		}
		nb := newNodeBlocks(nodes, int(s.nPoints))
		_, err32 = decodeAttr(s.codec, s.payload, nb, particles.Float32, fuzzSectionBound, fuzzSectionLODScale, info)
		if err32 != nil && info != nil {
			*info = SectionInfo{} // a float64 key-for section reports through its own decode
			_, err64 = decodeAttr(s.codec, s.payload, nb, particles.Float64, fuzzSectionBound, fuzzSectionLODScale, info)
		} else {
			_, err64 = decodeAttr(s.codec, s.payload, nb, particles.Float64, fuzzSectionBound, fuzzSectionLODScale, nil)
		}
		_, errPos = decodePos(s.codec, s.payload, nb, nb.kdCells(s.cells()), geom.Axis(s.axis), nil)
		return
	}
	seeds := sectionSeeds(t)
	for i, s := range seeds {
		if s.attr == nodeTableSeed {
			nodes, _ := fuzzNodes(s.table, s.nPoints)
			unpacked, _, n, err := unpackNodeTable(s.payload, uint32(len(nodes)), uint32(s.nPoints), int(s.codec), maxSaneDepth, idDict, nil)
			if err != nil || n != len(s.payload) {
				t.Fatalf("seed %d (node table of %d bytes): read %d bytes, error %v", i, len(s.payload), n, err)
			}
			if !slices.Equal(unpacked, nodes) {
				t.Fatalf("seed %d: unpacked %+v, parsed %+v", i, unpacked, nodes)
			}
			nodeTables++
			continue
		}
		seen[s.codec] = true
		var info SectionInfo
		if err32, err64, errPos := decode(s, &info); err32 != nil && err64 != nil && errPos != nil {
			t.Fatalf("seed %d (%s, %d bytes) decodes nowhere: %v / %v / %v", i, CodecName(s.codec), len(s.payload), err32, err64, errPos)
		}
		if info.Mode != "" {
			modes[CodecName(s.codec)+" "+info.Mode] = true
		}
		for _, w := range info.Widths {
			if s.codec == codecKeyFOR {
				widest = max(widest, w)
			}
		}
		if s.codec == codecSortedCellFOR {
			nodes, _ := fuzzNodes(s.table, s.nPoints)
			var pos SectionInfo
			nb := newNodeBlocks(nodes, int(s.nPoints))
			if _, err := decodePos(s.codec, s.payload, nb, nb.kdCells(s.cells()), geom.Axis(s.axis), &pos); err != nil {
				t.Fatalf("seed %d (sorted-cell-for): %v", i, err)
			}
			efNodes += pos.EF.Nodes
		}
	}
	if efNodes == 0 {
		t.Error("no Elias–Fano block among the sorted-cell-for seeds")
	}
	for _, c := range []uint8{codecRaw, codecIntFOR, codecQuantFOR, codecKeyFOR, codecSignKeyFOR, codecSortedCellFOR} {
		if !seen[c] {
			t.Errorf("no %s section among the seeds", CodecName(c))
		}
	}
	for _, m := range []string{"quant-for one-frame", "quant-for per-node-cols", "int-for one-frame", "int-for per-node-cols",
		"key-for one-frame", "key-for per-node-cols", "sign-key-for one-frame", "sign-key-for per-node-cols"} {
		if !modes[m] {
			t.Errorf("no %s section among the seeds: %v", m, modes)
		}
	}
	if widest <= laneBits {
		t.Errorf("the widest key-for block among the seeds is %d bits; the wide lane is not exercised", widest)
	}
	oneLeaf, _ := fuzzNodes([]byte{0, 0, 1, 0, 3, 0, 0, 0, 0}, 1)
	for i, p := range keyFOROverflowSeeds() {
		for _, codec := range []uint8{codecKeyFOR, codecSignKeyFOR} {
			if _, err := decodeAttr(codec, p, newNodeBlocks(oneLeaf, 1), particles.Float64, 0, 1, nil); err == nil || !strings.Contains(err.Error(), "overflows") {
				t.Errorf("%s overflow seed %d: error %v, want one containing \"overflows\"", CodecName(codec), i, err)
			}
		}
	}
	for i, p := range intFORAnchorSeeds() {
		for _, typ := range []particles.AttrType{particles.Float32, particles.Float64} {
			vals, err := decodeAttr(codecIntFOR, p, newNodeBlocks(oneLeaf, 1), typ, 0, 1, nil)
			if anchor := math.Float64frombits(binary.LittleEndian.Uint64(p)); i == 0 && (err != nil || vals[0] != anchor) {
				t.Errorf("int-for anchor %v (%v): decoded %v, error %v", anchor, typ, vals, err)
			} else if i > 0 && err == nil {
				t.Errorf("int-for anchor %v (%v) decodes", anchor, typ)
			}
		}
	}
	if nodeTables == 0 {
		t.Error("no packed node table among the seeds")
	}
	retired := map[string]bool{}
	for _, s := range retiredSeeds(seeds) {
		kind := fmt.Sprintf("codec %d", s.codec)
		if s.codec == codecQuantFOR || s.codec == codecIntFOR || s.codec == codecKeyFOR || s.codec == codecSignKeyFOR {
			kind = fmt.Sprintf("%s mode %d", CodecName(s.codec), s.payload[s.modeAt()])
		}
		retired[kind] = true
		if err32, err64, errPos := decode(s, nil); err32 == nil || err64 == nil || errPos == nil {
			t.Errorf("retired %s seed decodes: %v / %v / %v", kind, err32, err64, errPos)
		}
	}
	for _, kind := range []string{"codec 1", "codec 2", "codec 3", "codec 5", "quant-for mode 1", "int-for mode 1", "key-for mode 1", "sign-key-for mode 1"} {
		if !retired[kind] {
			t.Errorf("retired seeds: %v, want codecs 1, 2, 3 and 5 and mode 1 of quant-for, int-for, key-for and sign-key-for", retired)
			break
		}
	}
}
