package main

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"

	"libbat"
	"libbat/internal/core"
	"libbat/internal/pfs"
)

// writeDataset produces a small on-disk dataset and returns its store.
func writeDataset(t *testing.T) pfs.Storage {
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

// writeCompressedDataset is writeDataset with the v3 codec layer enabled
// at a loose bound on the single "v" attribute.
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
		cfg.BAT.ErrorBound = 1e-3
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
	if !strings.Contains(out.String(), "v3 ratio") {
		t.Errorf("verify output does not report the compression ratio:\n%s", out.String())
	}
	// The dataset-level metadata must carry the codec declaration.
	ds, err := libbat.OpenDataset(store, "ds")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	cm := ds.Compression()
	if cm == nil {
		t.Fatal("compressed dataset reports no compression metadata")
	}
	if len(cm.ErrorBounds) != 1 || cm.ErrorBounds[0] != 1e-3 || cm.LODScale != 1 {
		t.Fatalf("compression metadata = %+v", cm)
	}
	// And the data must still be queryable within the bound.
	all, err := ds.ReadAll()
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
