package bat

import (
	"bytes"
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

func goldenConfig() BuildConfig {
	cfg := DefaultBuildConfig()
	cfg.MaxLeafSize = 32
	cfg.LODPerNode = 4
	return cfg
}

// goldenV3Config is the compressed build all five version-3 goldens were
// made with: "mass" within 1e-3, "id" lossless.
func goldenV3Config() BuildConfig {
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

// TestGoldenRegenerate rewrites the checked-in golden files from the
// current builder. Run manually with BAT_REGEN_GOLDEN=1 when the format
// legitimately changes (which for v1/v2 should be never).
//
// Four goldens are not among them and cannot be regenerated; each is
// goldenV3Config's build by the last writer of a layout, and pins the read
// path of the files that writer left behind. golden_v3_rawpos.bat: version-3
// positions as raw f32 columns (commit c90a2ea, the parent of the position
// codec). golden_v3_flatquant.bat: packed positions, lossy attributes as
// codecQuant sections (commit 1f5afd1, the parent of codecQuantFOR).
// golden_v3_nodetable.bat: codecFOR positions and quant-for attributes behind
// node tables of fixed records in page-aligned treelets (commit 9f77046, the
// parent of flagPackedNodes). golden_v3_inlineframes.bat: the same sections
// behind packed node tables in unpadded treelets — codecFOR positions, their
// frames inline ahead of each block (commit 4e54d5f, the parent of
// codecCellFOR).
func TestGoldenRegenerate(t *testing.T) {
	if os.Getenv("BAT_REGEN_GOLDEN") == "" {
		t.Skip("set BAT_REGEN_GOLDEN=1 to rewrite testdata golden files")
	}
	s, domain := goldenSet()
	b, err := Build(s, domain, goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("testdata", "golden_v2.bat"), b.Buf, 0o644); err != nil {
		t.Fatal(err)
	}
	// The v1 golden is the v2 image with the footer removed and the
	// version field patched, exactly the layout version-1 writers
	// produced.
	if err := os.WriteFile(filepath.Join("testdata", "golden_v1.bat"), stripToV1(t, b.Buf), 0o644); err != nil {
		t.Fatal(err)
	}
	b3, err := Build(s, domain, goldenV3Config())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("testdata", "golden_v3.bat"), b3.Buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenBackwardCompat opens the checked-in files of every layout a
// writer has produced. Version 1 (no checksums) must be refused. Version 2,
// version 3 with raw position columns, version 3 with packed positions and
// flat quant attributes, version 3 with quant-for attributes behind node
// records, and today's version 3 must decode to the same particle multiset as
// the day they were written: positions and the lossless id bit-exact
// everywhere, mass exact in version 2 and within its declared bound in
// version 3 — where all four files return the same rows bit for bit, since
// each writer changed how the same grid indices are stored and never the
// grid.
func TestGoldenBackwardCompat(t *testing.T) {
	s, _ := goldenSet()
	want := goldenRows(s)
	massBound := goldenV3Config().AttrErrorBounds[0]
	var v3rows [][]goldenRow
	var v3secs [][]sectionSeed
	for _, tc := range []struct {
		file        string
		version     int
		packed      bool
		packedNodes bool
		massCodec   uint8
		posCodec    uint8 // of the position sections that are not raw
	}{
		{"golden_v1.bat", 1, false, false, codecRaw, codecRaw},
		{"golden_v2.bat", 2, false, false, codecRaw, codecRaw},
		{"golden_v3_rawpos.bat", 3, false, false, codecQuant, codecRaw},
		{"golden_v3_flatquant.bat", 3, true, false, codecQuant, codecFOR},
		{"golden_v3_nodetable.bat", 3, true, false, codecQuantFOR, codecFOR},
		{"golden_v3_inlineframes.bat", 3, true, true, codecQuantFOR, codecFOR},
		{"golden_v3.bat", 3, true, true, codecQuantFOR, codecCellFOR},
	} {
		t.Run(tc.file, func(t *testing.T) {
			buf, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatalf("%v (regenerate with BAT_REGEN_GOLDEN=1 go test -run TestGoldenRegenerate)", err)
			}
			f, err := FromBuffer(buf)
			if tc.version < minVersion {
				if err == nil || !strings.Contains(err.Error(), "unsupported version") {
					t.Fatalf("version-%d file: open error %v, want unsupported version", tc.version, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if f.Version != tc.version || f.PackedPositions != tc.packed || f.PackedNodes != tc.packedNodes {
				t.Fatalf("Version = %d, PackedPositions = %v, PackedNodes = %v; want %d, %v, %v",
					f.Version, f.PackedPositions, f.PackedNodes, tc.version, tc.packed, tc.packedNodes)
			}
			if err := f.Verify(); err != nil {
				t.Fatal(err)
			}
			secs := fileSections(t, f, buf)
			packedPos := 0
			for _, sec := range secs {
				if sec.attr == "mass" && sec.codec != tc.massCodec {
					t.Fatalf("a mass section is %s, want %s: the file does not pin the layout it is named for",
						CodecName(sec.codec), CodecName(tc.massCodec))
				}
				if pos := sec.attr == "x" || sec.attr == "y" || sec.attr == "z"; pos && sec.codec != codecRaw {
					if sec.codec != tc.posCodec {
						t.Fatalf("a position section is %s, want %s: the file does not pin the layout it is named for",
							CodecName(sec.codec), CodecName(tc.posCodec))
					}
					packedPos++
				}
			}
			if tc.posCodec != codecRaw && packedPos == 0 {
				t.Fatalf("no %s position section in the file", CodecName(tc.posCodec))
			}
			got := readRows(t, f)
			if len(got) != len(want) {
				t.Fatalf("decoded %d particles, want %d", len(got), len(want))
			}
			for i := range got {
				g, w := got[i], want[i]
				if tc.version >= 3 {
					if math.Abs(g.mass-w.mass) > massBound {
						t.Fatalf("row %d: mass %v is not within %v of %v", i, g.mass, massBound, w.mass)
					}
					g.mass = w.mass
				}
				if g != w {
					t.Fatalf("row %d: %+v != %+v", i, got[i], want[i])
				}
			}
			if tc.version >= 3 {
				v3rows = append(v3rows, got)
				v3secs = append(v3secs, secs)
			}
		})
	}
	if len(v3rows) != 5 {
		t.Fatalf("%d of 5 version-3 goldens decoded", len(v3rows))
	}
	for _, rows := range v3rows[1:] {
		for i := range rows {
			if rows[i] != v3rows[0][i] {
				t.Fatalf("row %d: %+v != %+v of the raw-position golden", i, rows[i], v3rows[0][i])
			}
		}
	}
	// The shared pack loop writes position sections byte for byte as the
	// writer before it did.
	before, after := v3secs[1], v3secs[2]
	for i := range after {
		if i < len(before) && after[i].attr == before[i].attr && before[i].codec == codecFOR &&
			(after[i].codec != codecFOR || !bytes.Equal(after[i].payload, before[i].payload)) {
			t.Fatalf("section %d (%s): position stream differs from golden_v3_flatquant.bat", i, after[i].attr)
		}
	}
	// Packing the node table moved every section and changed none: apart from
	// the node-table seeds of the packed file, the two files hold the same
	// streams in the same order.
	before, after = v3secs[2], nil
	for _, sec := range v3secs[3] {
		if sec.attr != nodeTableSeed {
			after = append(after, sec)
		}
	}
	if len(after) != len(before) {
		t.Fatalf("golden_v3_inlineframes.bat holds %d sections, golden_v3_nodetable.bat %d", len(after), len(before))
	}
	for i := range after {
		if after[i].attr != before[i].attr || after[i].codec != before[i].codec || !bytes.Equal(after[i].payload, before[i].payload) {
			t.Fatalf("section %d (%s): stream differs from golden_v3_nodetable.bat", i, after[i].attr)
		}
	}
	// Taking the frames out of the sections changed nothing else: the node
	// tables, whose split planes the position frames now come from, the
	// lossless id sections and the mass sections that keep their one frame are
	// byte for byte the parent writer's; a mass section that differs went from
	// one frame to frame columns because that is shorter.
	before, after = v3secs[3], v3secs[4]
	if len(after) != len(before) {
		t.Fatalf("golden_v3.bat holds %d sections, golden_v3_inlineframes.bat %d", len(after), len(before))
	}
	for i := range after {
		if after[i].attr != before[i].attr {
			t.Fatalf("section %d is %s, %s in golden_v3_inlineframes.bat", i, after[i].attr, before[i].attr)
		}
		// A position column is raw where no stream was smaller; without frames
		// to pay for, one more of the golden set's is.
		if pos := before[i].codec == codecFOR || before[i].codec == codecRaw && after[i].codec == codecCellFOR; pos {
			if after[i].codec != codecCellFOR || len(after[i].payload) >= len(before[i].payload) {
				t.Fatalf("section %d (%s): %s of %d bytes, %s of %d with inline frames", i, after[i].attr,
					CodecName(after[i].codec), len(after[i].payload), CodecName(before[i].codec), len(before[i].payload))
			}
		} else if cols := after[i].codec == codecQuantFOR && after[i].payload[8] == quantPerNodeCols; cols {
			if before[i].codec != codecQuantFOR || before[i].payload[8] != quantOneFrame || len(after[i].payload) >= len(before[i].payload) {
				t.Fatalf("section %d (%s): frame columns in %d bytes, %s mode %d in %d before", i, after[i].attr,
					len(after[i].payload), CodecName(before[i].codec), before[i].payload[8], len(before[i].payload))
			}
		} else if after[i].codec != before[i].codec || !bytes.Equal(after[i].payload, before[i].payload) {
			t.Fatalf("section %d (%s, %s): differs from golden_v3_inlineframes.bat (%s) in more than the position frames",
				i, after[i].attr, CodecName(after[i].codec), CodecName(before[i].codec))
		}
	}
}

// TestGoldenV2ByteIdentity rebuilds the golden dataset with the current
// builder and requires the image to be byte-identical to the checked-in v2
// file: uncompressed builds must keep producing exactly the v2 bytes.
func TestGoldenV2ByteIdentity(t *testing.T) {
	requireRebuildIdentical(t, "golden_v2.bat", goldenConfig())
}

// TestGoldenV3ByteIdentity is the same pin for compressed builds: the packed
// version-3 layout, codec choices included, is what golden_v3.bat holds.
func TestGoldenV3ByteIdentity(t *testing.T) {
	requireRebuildIdentical(t, "golden_v3.bat", goldenV3Config())
}

func requireRebuildIdentical(t *testing.T, file string, cfg BuildConfig) {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatalf("%v (regenerate with BAT_REGEN_GOLDEN=1 go test -run TestGoldenRegenerate)", err)
	}
	s, domain := goldenSet()
	b, err := Build(s, domain, cfg)
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
}
