package bat

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"libbat/internal/geom"
	"libbat/internal/particles"
)

// goldenSet is the fixed dataset the checked-in golden files were built
// from. It must never change: the goldens pin the on-disk layouts, and this
// set is the decode oracle they are compared against.
func goldenSet() (*particles.Set, geom.Box) {
	s := particles.NewSet(particles.NewSchema("mass", "id"), 257)
	// A deterministic low-discrepancy-ish scatter plus a coincident clump,
	// no RNG involved (RNG streams are not pinned across Go releases).
	for i := 0; i < 250; i++ {
		x := float64(i%10) / 10
		y := float64((i/10)%10) / 10
		z := float64(i%7) / 7
		s.Append(geom.V3(x, y, z), []float64{x*10 + y, float64(i)})
	}
	for i := 250; i < 257; i++ {
		s.Append(geom.V3(0.5, 0.5, 0.5), []float64{3.25, float64(i)})
	}
	return s, geom.NewBox(geom.V3(0, 0, 0), geom.V3(1, 1, 1))
}

// goldenSignedSet is goldenSet with every other particle's mass negated: a
// zero-mean attribute, which golden_v5_signkeys.bat stores as sign-key-for.
func goldenSignedSet() (*particles.Set, geom.Box) {
	s, domain := goldenSet()
	for i := 1; i < s.Len(); i += 2 {
		s.Attrs[0][i] = -s.Attrs[0][i]
	}
	return s, domain
}

func goldenConfig() BuildConfig {
	cfg := DefaultBuildConfig()
	cfg.MaxLeafSize = 32
	cfg.LODPerNode = 4
	return cfg
}

// goldenLossyConfig is the compressed build golden_v5.bat, golden_v4.bat and
// golden_v3.bat were made with: "mass" within 1e-3, "id" lossless.
func goldenLossyConfig() BuildConfig {
	cfg := goldenConfig()
	cfg.Compress = true
	cfg.AttrErrorBounds = []float64{1e-3, 0}
	return cfg
}

// goldenRow is one particle as a comparable value (positions as the f32
// bits the layout stores).
type goldenRow struct {
	x, y, z  float32
	mass, id float64
}

func goldenRows(s *particles.Set) []goldenRow {
	rows := make([]goldenRow, s.Len())
	for i := range rows {
		p := s.Position(i)
		rows[i] = goldenRow{float32(p.X), float32(p.Y), float32(p.Z), s.Attrs[0][i], s.Attrs[1][i]}
	}
	sortRows(rows)
	return rows
}

func sortRows(rows []goldenRow) {
	sort.Slice(rows, func(a, b int) bool { return rows[a].id < rows[b].id })
}

func readRows(t *testing.T, f *File) []goldenRow {
	t.Helper()
	got, err := f.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]goldenRow, got.Len())
	for i := range rows {
		p := got.Position(i)
		rows[i] = goldenRow{float32(p.X), float32(p.Y), float32(p.Z), got.Attrs[0][i], got.Attrs[1][i]}
	}
	sortRows(rows)
	return rows
}

// TestGoldenRegenerate rewrites the goldens today's writer can rebuild:
// golden_v5.bat (goldenLossyConfig) and golden_v5_lossless.bat (goldenConfig)
// from goldenSet, golden_v5_signkeys.bat (goldenConfig) from goldenSignedSet.
// Run manually with BAT_REGEN_GOLDEN=1 when the format legitimately changes.
//
// Every other golden is frozen: no writer in the tree can rebuild it. Each
// is the golden set's build by the last writer of a version this reader
// refuses, and pins that refusal. golden_v4.bat is goldenLossyConfig's build
// by the last version-4 writer (commit 38b8ea4, the parent of version 5):
// today's sections behind a header that stores the shallow tree's inner
// nodes, their interned bitmaps and each treelet's bounds as six f64, and
// node tables whose column frames hold a u32 base. golden_v3.bat is
// goldenLossyConfig's build by the last version-3 writer (commit 54027ef, the
// parent of version 4): a header that also stores a flags word, the particle
// count and each treelet's offset, treelets that open with their node and
// point counts, and a footer that copies the header's counts and declares a
// codec class per attribute. golden_v2.bat is goldenConfig's build by the
// last version-2 writer (commit 3bb0b42, the parent of the one writer): node
// records, page-aligned treelets, raw columns. golden_v1.bat is the same
// image with its footer removed and its version field patched to 1
// (stripToV1), the layout version-1 writers produced.
func TestGoldenRegenerate(t *testing.T) {
	if os.Getenv("BAT_REGEN_GOLDEN") == "" {
		t.Skip("set BAT_REGEN_GOLDEN=1 to rewrite testdata golden files")
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	for file, rebuild := range goldenRebuilds() {
		s, domain := rebuild.set()
		b, err := Build(s, domain, rebuild.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", file), b.Buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// goldenRebuild is how today's writer rebuilds a golden: the set and the
// configuration.
type goldenRebuild struct {
	set func() (*particles.Set, geom.Box)
	cfg BuildConfig
}

// goldenRebuilds are the goldens today's writer rebuilds byte for byte.
func goldenRebuilds() map[string]goldenRebuild {
	return map[string]goldenRebuild{
		"golden_v5.bat":          {goldenSet, goldenLossyConfig()},
		"golden_v5_lossless.bat": {goldenSet, goldenConfig()},
		"golden_v5_signkeys.bat": {goldenSignedSet, goldenConfig()},
	}
}

// goldenCase is one checked-in golden file and what the reader makes of it.
type goldenCase struct {
	file string
	// openErr, when set, is the error that refuses the file at open.
	openErr string
	// massBound is how far a decoded mass may be from the golden set's.
	massBound float64
	// massCodec, when set, is the codec of every mass section, idCodec of
	// every id section and posCodec of every x section.
	massCodec, idCodec, posCodec string
	// signed marks a build of goldenSignedSet.
	signed bool
}

// goldens is every file in testdata: TestGoldenFixturesPinned holds the
// directory to it, so a retired layout cannot leave a file behind that
// nothing opens.
var goldens = []goldenCase{
	{"golden_v1.bat", "unsupported version 1", 0, "", "", "", false},
	{"golden_v2.bat", "unsupported version 2", 0, "", "", "", false},
	{"golden_v3.bat", "unsupported version 3", 0, "", "", "", false},
	{"golden_v4.bat", "unsupported version 4", 0, "", "", "", false},
	{"golden_v5.bat", "", goldenLossyConfig().AttrErrorBounds[0], "quant-for", "int-for", "sorted-cell-for", false},
	{"golden_v5_lossless.bat", "", 0, "key-for", "int-for", "sorted-cell-for", false},
	{"golden_v5_signkeys.bat", "", 0, "sign-key-for", "int-for", "sorted-cell-for", true},
}

// TestGoldenBackwardCompat opens the checked-in file of every version a
// writer has produced. The one this reader accepts, today's version 5, must
// decode to the same particle multiset as the day it was written: positions
// and the lossless id bit-exact, mass within its declared bound in
// golden_v5.bat, stored key-for and exact in golden_v5_lossless.bat and,
// negated at every other particle (goldenSignedSet), sign-key-for and exact
// in golden_v5_signkeys.bat; every id section is int-for and every position
// section sorted-cell-for. Every retired version — 1 (no checksums), 2
// (page-aligned treelets), 3 (the same treelets as version 4's beside stored
// copies of derived facts) and 4 (a stored shallow tree) — is refused at open
// with a named error.
func TestGoldenBackwardCompat(t *testing.T) {
	for _, tc := range goldens {
		t.Run(tc.file, func(t *testing.T) {
			buf, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatalf("%v (regenerate with BAT_REGEN_GOLDEN=1 go test -run TestGoldenRegenerate)", err)
			}
			f, err := FromBuffer(buf)
			if tc.openErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.openErr) {
					t.Fatalf("open error %v, want one containing %q", err, tc.openErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Verify(); err != nil {
				t.Fatal(err)
			}
			for ti := 0; tc.massCodec != "" && ti < f.NumTreelets(); ti++ {
				lay, err := f.TreeletLayout(context.Background(), ti)
				if err != nil {
					t.Fatal(err)
				}
				if c := CodecName(lay.Sections[PositionSections].Codec); c != tc.massCodec {
					t.Fatalf("treelet %d stores mass as %s, want %s", ti, c, tc.massCodec)
				}
				if c := CodecName(lay.Sections[PositionSections+1].Codec); c != tc.idCodec {
					t.Fatalf("treelet %d stores id as %s, want %s", ti, c, tc.idCodec)
				}
				if c := CodecName(lay.Sections[0].Codec); c != tc.posCodec {
					t.Fatalf("treelet %d stores x as %s, want %s", ti, c, tc.posCodec)
				}
			}
			set := goldenSet
			if tc.signed {
				set = goldenSignedSet
			}
			s, _ := set()
			want := goldenRows(s)
			got := readRows(t, f)
			if len(got) != len(want) {
				t.Fatalf("decoded %d particles, want %d", len(got), len(want))
			}
			for i := range got {
				g, w := got[i], want[i]
				if math.Abs(g.mass-w.mass) > tc.massBound {
					t.Fatalf("row %d: mass %v is not within %v of %v", i, g.mass, tc.massBound, w.mass)
				}
				g.mass = w.mass
				if g != w {
					t.Fatalf("row %d: %+v != %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestGoldenFixturesPinned: every .bat file in testdata is a row of goldens,
// and every row's file is there.
func TestGoldenFixturesPinned(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.bat"))
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]bool{}
	for _, g := range goldens {
		pinned[g.file] = true
	}
	for _, f := range files {
		if !pinned[filepath.Base(f)] {
			t.Errorf("%s is in no row of goldens: pin what the reader makes of it, or delete it", f)
		}
		delete(pinned, filepath.Base(f))
	}
	for f := range pinned {
		t.Errorf("goldens pins %s, which testdata does not hold", f)
	}
}

// TestGoldenV5ByteIdentity rebuilds the golden dataset with the current
// builder under declared error bounds and requires the image to be
// byte-identical to golden_v5.bat: the packed layout, codec choices included.
func TestGoldenV5ByteIdentity(t *testing.T) {
	requireRebuildIdentical(t, "golden_v5.bat")
}

// TestGoldenV5LosslessByteIdentity is the same pin for a build that declares
// no bound: the layout every default build writes.
func TestGoldenV5LosslessByteIdentity(t *testing.T) {
	requireRebuildIdentical(t, "golden_v5_lossless.bat")
}

// TestGoldenV5SignKeysByteIdentity is the same pin for a lossless build of a
// zero-mean attribute: its sign-key-for sections.
func TestGoldenV5SignKeysByteIdentity(t *testing.T) {
	requireRebuildIdentical(t, "golden_v5_signkeys.bat")
}

// requireRebuildIdentical rebuilds file and requires the image byte for
// byte, and the shallow tree a reader derives from the file to be the radix
// tree over its treelets' codes.
func requireRebuildIdentical(t *testing.T, file string) {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatalf("%v (regenerate with BAT_REGEN_GOLDEN=1 go test -run TestGoldenRegenerate)", err)
	}
	rebuild := goldenRebuilds()[file]
	s, domain := rebuild.set()
	b, err := Build(s, domain, rebuild.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Buf) != len(buf) {
		t.Fatalf("rebuilt image is %d bytes, golden %d", len(b.Buf), len(buf))
	}
	for i := range buf {
		if b.Buf[i] != buf[i] {
			t.Fatalf("rebuilt image differs from golden at byte %d", i)
		}
	}
	if _, err := checkShallowTree(buf); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaSectionRefused: the delta codec (id 2), which integral columns
// were stored in up to commit c4dad65, is retired. A version-5 image whose
// id sections say codec 2 opens — the sections are the treelets' — and is
// refused at the first treelet load that meets one; ReadAll returns no rows.
func TestDeltaSectionRefused(t *testing.T) {
	buf := goldenFile(t, "golden_v5_lossless.bat")
	f, err := FromBuffer(buf)
	if err != nil {
		t.Fatal(err)
	}
	for ti := range f.leaves {
		lay, err := f.TreeletLayout(context.Background(), ti)
		if err != nil {
			t.Fatal(err)
		}
		off := lay.NodeTable.Bytes
		for _, sec := range lay.Sections[:len(lay.Sections)-1] {
			off += sectionFrameLen + sec.EncBytes
		}
		if lay.Sections[len(lay.Sections)-1].Attr != "id" {
			t.Fatalf("treelet %d's last section is %q, want id", ti, lay.Sections[len(lay.Sections)-1].Attr)
		}
		buf = mutateTreelet(t, buf, ti, func(tre []byte) { tre[off] = 2 })
	}
	if f, err = FromBuffer(buf); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.loadTreelet(context.Background(), 0); err == nil || !strings.Contains(err.Error(), "unknown attribute codec id 2") {
		t.Fatalf("treelet 0: load error %v, want one containing %q", err, "unknown attribute codec id 2")
	}
	if got, err := f.ReadAll(); err == nil || got.Len() != 0 {
		t.Fatalf("ReadAll returned %d rows, error %v; want none and an error", got.Len(), err)
	}
}
