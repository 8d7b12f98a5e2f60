package main

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"libbat"
	"libbat/internal/core"
	"libbat/internal/pfs"
)

// writeDataset produces a small on-disk dataset and returns its store. Its
// attribute "v" is of one sign, "w" zero-mean.
func writeDataset(t *testing.T) pfs.Storage {
	t.Helper()
	store, err := libbat.DirStorage(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	err = libbat.Run(4, func(c *libbat.Comm) error {
		r := rand.New(rand.NewSource(int64(c.Rank())))
		lo := libbat.V3(float64(c.Rank()), 0, 0)
		local := libbat.NewParticleSet(libbat.NewSchema("v", "w"), 500)
		for i := 0; i < 500; i++ {
			p := lo.Add(libbat.V3(r.Float64(), r.Float64(), r.Float64()))
			local.Append(p, []float64{p.Y, (p.Y - 0.5) * float64(1-2*(i%2))})
		}
		_, err := libbat.Write(c, store, "ds", local,
			libbat.NewBox(lo, lo.Add(libbat.V3(1, 1, 1))), libbat.DefaultWriteConfig(8<<10))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func slurp(t *testing.T, store pfs.Storage, name string) []byte {
	t.Helper()
	f, err := store.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, f.Size())
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	return buf
}

// writeCompressedDataset is writeDataset with a loose error bound declared on
// the single "v" attribute.
func writeCompressedDataset(t *testing.T) pfs.Storage {
	t.Helper()
	store, err := libbat.DirStorage(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	err = libbat.Run(4, func(c *libbat.Comm) error {
		r := rand.New(rand.NewSource(int64(c.Rank())))
		lo := libbat.V3(float64(c.Rank()), 0, 0)
		local := libbat.NewParticleSet(libbat.NewSchema("v"), 500)
		for i := 0; i < 500; i++ {
			p := lo.Add(libbat.V3(r.Float64(), r.Float64(), r.Float64()))
			local.Append(p, []float64{p.Y})
		}
		cfg := libbat.DefaultWriteConfig(8 << 10)
		cfg.BAT.Compress = true
		cfg.BAT.AttrErrorBounds = []float64{1e-3}
		_, err := libbat.Write(c, store, "ds", local,
			libbat.NewBox(lo, lo.Add(libbat.V3(1, 1, 1))), cfg)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func TestVerifyCompressedDataset(t *testing.T) {
	store := writeCompressedDataset(t)
	var out bytes.Buffer
	if !verifyDataset(&out, store, "ds") {
		t.Fatalf("clean compressed dataset failed verification:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "v5 ratio") {
		t.Errorf("verify output does not report the compression ratio:\n%s", out.String())
	}
	// The data must still be queryable within the bound.
	ds, err := libbat.OpenDataset(store, "ds")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	all, err := ds.ReadAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if int64(all.Len()) != ds.NumParticles() {
		t.Fatalf("ReadAll returned %d of %d particles", all.Len(), ds.NumParticles())
	}
	for i := 0; i < all.Len(); i++ {
		want := float64(float32(all.Position(i).Y)) // positions round-trip via f32
		if diff := all.Attrs[0][i] - want; diff > 1e-3+1e-6 || diff < -(1e-3+1e-6) {
			t.Fatalf("particle %d: v=%v differs from y=%v beyond the bound", i, all.Attrs[0][i], want)
		}
	}
}

// TestSummaryBounds: the dataset summary takes each attribute's error bound
// and the LOD error scale from the first leaf's footer: a lossy attribute
// prints its bound and the scale follows, a lossless dataset prints
// "lossless" for every attribute and no scale.
func TestSummaryBounds(t *testing.T) {
	for _, tc := range []struct {
		name      string
		store     pfs.Storage
		want, not []string
	}{
		{"lossy", writeCompressedDataset(t), []string{"error bound 0.001", "LOD error scale: 1\n"}, []string{"lossless"}},
		{"lossless", writeDataset(t), []string{"lossless"}, []string{"error bound", "LOD error scale"}},
	} {
		ds, err := core.OpenDataset(context.Background(), tc.store, "ds")
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := printSummary(&out, ds, "ds"); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "global range") && !strings.Contains(line, "error bound") && !strings.HasSuffix(line, "  lossless") {
				t.Errorf("%s: attribute line %q names no bound", tc.name, line)
			}
		}
		for _, w := range tc.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("%s: summary lacks %q:\n%s", tc.name, w, out.String())
			}
		}
		for _, w := range tc.not {
			if strings.Contains(out.String(), w) {
				t.Errorf("%s: summary holds %q:\n%s", tc.name, w, out.String())
			}
		}
	}
}

func TestVerifyCleanDataset(t *testing.T) {
	store := writeDataset(t)
	var out bytes.Buffer
	if !verifyDataset(&out, store, "ds") {
		t.Fatalf("clean dataset failed verification:\n%s", out.String())
	}
	if strings.Contains(out.String(), "FAIL") {
		t.Errorf("clean dataset printed a failure:\n%s", out.String())
	}
}

func TestVerifyDamagedLeaf(t *testing.T) {
	store := writeDataset(t)
	leafName := core.LeafFileName("ds", 0)
	buf := slurp(t, store, leafName)
	buf[len(buf)/2] ^= 0x01
	if err := store.WriteFile(leafName, buf); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if verifyDataset(&out, store, "ds") {
		t.Fatalf("damaged leaf passed verification:\n%s", out.String())
	}
	if !strings.Contains(out.String(), leafName) {
		t.Errorf("failure does not name the damaged file:\n%s", out.String())
	}
}

func TestVerifyDamagedMetadata(t *testing.T) {
	store := writeDataset(t)
	buf := slurp(t, store, core.MetaFileName("ds"))
	buf[len(buf)/2] ^= 0x01
	if err := store.WriteFile(core.MetaFileName("ds"), buf); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if verifyDataset(&out, store, "ds") {
		t.Fatal("damaged metadata passed verification")
	}
}

func TestVerifyMissingLeaf(t *testing.T) {
	store := writeDataset(t)
	if err := store.Remove(core.LeafFileName("ds", 0)); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if verifyDataset(&out, store, "ds") {
		t.Fatal("dataset with a missing leaf passed verification")
	}
}

// TestInspectCompressedLeaf: -leaf on a lossy leaf file lists every column
// with its class — quant where the footer's bound is above 0 — and the
// codec, frame mode and block bit widths its sections actually use.
func TestInspectCompressedLeaf(t *testing.T) {
	store := writeCompressedDataset(t)
	ds, err := core.OpenDataset(context.Background(), store, "ds")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := inspectLeaf(&out, ds, 0); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`(?m)^\s+column\s+class\s+bound\s+raw bytes\s+enc bytes\s+ratio\s+block bits\s+sections$`,
		`(?m)^\s+raw payload: \d+ bytes, stored / raw: 0\.\d+$`,
		`(?m)^\s+x\s+lossless\s+0\s+\d+\s+\d+\s+[\d.]+x\s+\d+/\d+/\d+\s+sorted-cell-for x\d+$`,
		`(?m)^\s+v\s+quant\s+0\.001\s+\d+\s+\d+\s+[\d.]+x\s+\d+/\d+/\d+\s+quant-for (one-frame|per-node-cols) x\d+`,
		`(?m)^\s+whole-file attribute payload: \d+ -> \d+ bytes`,
		`(?m)^\s+node tables: \d+ nodes in \d+ treelets, \d+ bytes \(packed columns`,
		`(?m)^\s+axis\s+\d+ bytes\s+block bits \d/\d/\d$`,
		`(?m)^\s+count\s+\d+ bytes\s+block bits \d+/\d+/\d+$`,
		`(?m)^\s+split\s+\d+ bytes\s+block bits \d+/\d+/\d+$`,
		`(?m)^\s+ids v\s+\d+ bytes\s+block bits \d+/\d+/\d+$`,
	} {
		if !regexp.MustCompile(want).Match(out.Bytes()) {
			t.Errorf("-leaf output has no line matching %s:\n%s", want, out.String())
		}
	}
}

// TestInspectLosslessLeaf: -leaf on a dataset written without error bounds
// prints the class lossless for the float attributes, never a section codec
// such as int-for, and the sections column says the one of one sign is stored
// key-for, the zero-mean one sign-key-for.
func TestInspectLosslessLeaf(t *testing.T) {
	ds, err := core.OpenDataset(context.Background(), writeDataset(t), "ds")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := inspectLeaf(&out, ds, 0); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`(?m)^\s+v\s+lossless\s+0\s+\d+\s+\d+\s+[\d.]+x\s+\d+/\d+/\d+\s+key-for (one-frame|per-node-cols) x\d+`,
		`(?m)^\s+w\s+lossless\s+0\s+\d+\s+\d+\s+[\d.]+x\s+\d+/\d+/\d+\s+sign-key-for (one-frame|per-node-cols) x\d+`,
	} {
		if !regexp.MustCompile(want).Match(out.Bytes()) {
			t.Errorf("-leaf output has no line matching %s:\n%s", want, out.String())
		}
	}
	if regexp.MustCompile(`(?m)^\s+\S+\s+int-for\s`).Match(out.Bytes()) {
		t.Errorf("-leaf output prints the class int-for:\n%s", out.String())
	}
}

// TestStoredBytesAddUp: the parts -bytes prints are every byte on storage,
// each of them non-empty, the "of which block frames" line is a share of
// the attribute row above it — the frames of the key-for and sign-key-for
// sections in a lossless dataset, of the quant-for sections in a lossy one —,
// and the three "of which <axis> Elias–Fano" lines are shares of the
// position row, each over some nodes and particles.
func TestStoredBytesAddUp(t *testing.T) {
	for name, store := range map[string]pfs.Storage{"lossless": writeDataset(t), "lossy": writeCompressedDataset(t)} {
		ds, err := core.OpenDataset(context.Background(), store, "ds")
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := printStoredBytes(&out, store, ds, "ds"); err != nil {
			t.Fatal(err)
		}
		onStorage := int64(len(slurp(t, store, core.MetaFileName("ds"))))
		for li := range ds.Meta().Leaves {
			onStorage += int64(len(slurp(t, store, core.LeafFileName("ds", li))))
		}
		var parts, frames, ef []int64
		for _, m := range regexp.MustCompile(`(?m)^\s+(\S.*?)\s+(\d+) B `).FindAllStringSubmatch(out.String(), -1) {
			n, _ := strconv.ParseInt(m[2], 10, 64)
			switch {
			case m[1] == "of which block frames":
				frames = append(frames, n)
			case strings.HasSuffix(m[1], " Elias–Fano"):
				ef = append(ef, n)
			default:
				parts = append(parts, n)
			}
		}
		efRows := regexp.MustCompile(`(?m)^\s+of which [xyz] Elias–Fano\s+\d+ B\s+[\d.]+ B/particle  \([1-9]\d* nodes, [1-9]\d* particles\)$`)
		if n := len(efRows.FindAllString(out.String(), -1)); n != 3 || len(ef) != 3 || ef[0]+ef[1]+ef[2] >= parts[0] {
			t.Errorf("%s: %d Elias–Fano rows of %v bytes:\n%s", name, n, ef, out.String())
		}
		if len(frames) != 1 || frames[0] <= 0 || frames[0] >= parts[1] {
			t.Errorf("%s: block frames of %d bytes:\n%s", name, frames, out.String())
		}
		if len(parts) != 6 {
			t.Fatalf("%s: %d rows, want five parts and a total:\n%s", name, len(parts), out.String())
		}
		sum := int64(0)
		for _, n := range parts[:5] {
			if n <= 0 {
				t.Errorf("%s: a part of %d bytes:\n%s", name, n, out.String())
			}
			sum += n
		}
		if sum != parts[5] || sum != onStorage {
			t.Errorf("%s: parts add up to %d, total row %d, files on storage %d:\n%s", name, sum, parts[5], onStorage, out.String())
		}
	}
}
