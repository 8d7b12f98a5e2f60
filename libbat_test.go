package libbat

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"libbat/internal/core"
	"libbat/internal/meta"
	"libbat/internal/oracle"
)

const testRanks, testPerRank = 8, 800

// testWorld is the seeded input of writeTestDataset: 8 ranks of 800
// particles, each in its unit cell of the [0,4]x[0,2]x[0,1] domain,
// temp = 100*x, id unique.
var testWorld = oracle.Workload{Ranks: testRanks, PerRank: testPerRank}

// writeTestDataset writes testWorld and returns its store and the number
// of particles written.
func writeTestDataset(t *testing.T, base string, target int64) (Storage, int) {
	t.Helper()
	return writeTestDatasetCfg(t, base, DefaultWriteConfig(target)), testRanks * testPerRank
}

func writeTestDatasetCfg(t *testing.T, base string, cfg WriteConfig) Storage {
	t.Helper()
	store := MemStorage()
	err := Run(testRanks, func(c *Comm) error {
		local, bounds := testWorld.Rank(c.Rank())
		_, err := Write(c, store, base, local, bounds, cfg)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func TestPublicWriteAndDataset(t *testing.T) {
	store, total := writeTestDataset(t, "pub", 20*1024)
	ds, err := OpenDataset(store, "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if ds.NumParticles() != int64(total) {
		t.Errorf("NumParticles = %d, want %d", ds.NumParticles(), total)
	}
	if ds.NumFiles() < 2 {
		t.Errorf("NumFiles = %d", ds.NumFiles())
	}
	if ds.Schema().NumAttrs() != 2 {
		t.Errorf("schema attrs = %d", ds.Schema().NumAttrs())
	}
	got, err := ds.ReadAll()
	if err != nil || got.Len() != total {
		t.Fatalf("ReadAll: %v, %d particles", err, got.Len())
	}
	min, max, err := ds.AttrRange(0)
	if err != nil || min >= max {
		t.Errorf("AttrRange = [%g,%g], %v", min, max, err)
	}
	if _, _, err := ds.AttrRange(9); err == nil {
		t.Error("bad attr should error")
	}
}

func TestDatasetProgressive(t *testing.T) {
	store, total := writeTestDataset(t, "prog", 15*1024)
	ds, err := OpenDataset(store, "prog")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	var sum int64
	prev := 0.0
	for s := 1; s <= 4; s++ {
		q := float64(s) / 4
		n, err := ds.Count(Query{PrevQuality: prev, Quality: q})
		if err != nil {
			t.Fatal(err)
		}
		sum += n
		prev = q
	}
	if sum != int64(total) {
		t.Errorf("progressive total = %d, want %d", sum, total)
	}
}

func TestCollectiveRead(t *testing.T) {
	store, _ := writeTestDataset(t, "cr", 30*1024)
	err := Run(4, func(c *Comm) error {
		lo := V3(float64(c.Rank()), 0, 0)
		b := NewBox(lo, lo.Add(V3(1, 2, 1)))
		got, stats, err := ReadQueryCtx(context.Background(), c, store, "cr", Query{Bounds: &b})
		if err != nil {
			return err
		}
		if got.Len() == 0 {
			return fmt.Errorf("rank %d read nothing", c.Rank())
		}
		if stats.Metadata <= 0 || stats.Transfer <= 0 {
			return fmt.Errorf("rank %d: empty stats %+v", c.Rank(), stats)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecommendTargetSize(t *testing.T) {
	bpr := int64(4 << 20)
	small := RecommendTargetSize(16, bpr)
	mid := RecommendTargetSize(1536, bpr)
	big := RecommendTargetSize(24576, bpr)
	if small != bpr {
		t.Errorf("small scale should be 1:1, got %d", small)
	}
	if mid <= small || big <= mid {
		t.Errorf("target should grow with scale: %d %d %d", small, mid, big)
	}
	if big/bpr < 16 {
		t.Errorf("large scale factor = %d, want >= 16", big/bpr)
	}
	// Tiny payloads clamp to a sane floor.
	if got := RecommendTargetSize(4, 100); got != 1<<20 {
		t.Errorf("floor = %d", got)
	}
}

func TestDirStorage(t *testing.T) {
	store, err := DirStorage(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.WriteFile("x", []byte("y")); err != nil {
		t.Fatal(err)
	}
}

func TestDatasetLeaves(t *testing.T) {
	store, total := writeTestDataset(t, "lv", 20*1024)
	ds, err := OpenDataset(store, "lv")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	leaves := ds.Leaves()
	if len(leaves) != ds.NumFiles() {
		t.Fatalf("Leaves() = %d, NumFiles = %d", len(leaves), ds.NumFiles())
	}
	var sum int64
	for _, l := range leaves {
		if l.FileName == "" || l.Count <= 0 {
			t.Errorf("bad leaf info %+v", l)
		}
		if !ds.Bounds().ContainsBox(l.Bounds) {
			t.Errorf("leaf bounds escape dataset bounds")
		}
		sum += l.Count
	}
	if sum != int64(total) {
		t.Errorf("leaf counts sum to %d, want %d", sum, total)
	}
}

func TestDatasetHistogram(t *testing.T) {
	store, total := writeTestDataset(t, "hist", 20*1024)
	ds, err := OpenDataset(store, "hist")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	h, err := ds.Histogram(0, 8, Query{})
	if err != nil {
		t.Fatal(err)
	}
	// Matches the oracle's binning of the written input.
	min, max, _ := ds.AttrRange(0)
	if want := oracle.Histogram(testWorld.All(), 0, min, max, 8); !reflect.DeepEqual(h, want) {
		t.Fatalf("histogram %v, oracle %v", h, want)
	}
	// LOD histogram is a subsample.
	lod, err := ds.Histogram(0, 8, Query{Quality: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	var lodSum int64
	for _, c := range lod {
		lodSum += c
	}
	if lodSum == 0 || lodSum >= int64(total) {
		t.Errorf("LOD histogram has %d of %d samples", lodSum, total)
	}
	// Errors.
	if _, err := ds.Histogram(9, 8, Query{}); err == nil {
		t.Error("bad attr should error")
	}
	if _, err := ds.Histogram(0, 0, Query{}); err == nil {
		t.Error("zero bins should error")
	}
}

func TestListDatasets(t *testing.T) {
	store, _ := writeTestDataset(t, "series-a", 1<<20)
	// Add a second dataset to the same store.
	err := Run(2, func(c *Comm) error {
		lo := V3(float64(c.Rank()), 0, 0)
		local := NewParticleSet(NewSchema("v"), 10)
		for i := 0; i < 10; i++ {
			local.Append(lo.Add(V3(0.5, 0.5, 0.5)), []float64{1})
		}
		_, err := Write(c, store, "series-b", local,
			NewBox(lo, lo.Add(V3(1, 1, 1))), DefaultWriteConfig(1<<20))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	names, err := ListDatasets(store, "series-")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "series-a" || names[1] != "series-b" {
		t.Errorf("ListDatasets = %v", names)
	}
	only, err := ListDatasets(store, "series-b")
	if err != nil || len(only) != 1 {
		t.Errorf("prefix filter = %v, %v", only, err)
	}
	none, err := ListDatasets(store, "zzz")
	if err != nil || len(none) != 0 {
		t.Errorf("missing prefix = %v, %v", none, err)
	}
}

// TestWriteRejectsLongAttributeName: the formats store a name's length as a
// u16, so a longer attribute name must fail the write and leave nothing
// behind, not write a dataset whose metadata cannot be decoded.
func TestWriteRejectsLongAttributeName(t *testing.T) {
	store := MemStorage()
	name := strings.Repeat("a", 70000)
	err := Run(2, func(c *Comm) error {
		lo := V3(float64(c.Rank()), 0, 0)
		local := NewParticleSet(NewSchema(name), 10)
		for i := 0; i < 10; i++ {
			local.Append(lo.Add(V3(0.5, 0.5, 0.5)), []float64{1})
		}
		_, err := Write(c, store, "long", local, NewBox(lo, lo.Add(V3(1, 1, 1))), DefaultWriteConfig(1<<20))
		return err
	})
	if err == nil {
		t.Fatal("Write with a 70000-byte attribute name succeeded")
	}
	files, lerr := store.List()
	if lerr != nil {
		t.Fatal(lerr)
	}
	for _, f := range files {
		if strings.HasSuffix(f, ".bat") || strings.HasSuffix(f, ".batm") {
			t.Errorf("failed write left %q behind", f)
		}
	}
}

// TestHostileLeafCounts: a CRC-valid metadata file whose leaf particle
// counts are not the leaf files' is refused, never trusted to size an
// allocation. A leaf claiming 2^62 leaves the dataset open (the count fits
// an int64) but ReadAll fails when that leaf's file disagrees; two such
// leaves take the total past int64 and the dataset does not open.
func TestHostileLeafCounts(t *testing.T) {
	for _, tc := range []struct {
		name             string
		counts           map[int]int64
		openErr, readErr string
	}{
		{"one leaf claims 2^62", map[int]int64{0: 1 << 62}, "", "metadata says 4611686018427387904"},
		{"two leaves overflow int64", map[int]int64{0: 1 << 62, 1: 1 << 62}, "past int64", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, _ := writeTestDataset(t, "hc", 20*1024)
			name := core.MetaFileName("hc")
			h, err := store.Open(name)
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, h.Size())
			if _, err := h.ReadAt(buf, 0); err != nil {
				t.Fatal(err)
			}
			h.Close()
			m, err := meta.Decode(buf)
			if err != nil {
				t.Fatal(err)
			}
			for li, c := range tc.counts {
				m.Leaves[li].Count = c
			}
			if err := store.WriteFile(name, m.Encode()); err != nil {
				t.Fatal(err)
			}
			ds, err := OpenDataset(store, "hc")
			if tc.openErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.openErr) {
					t.Fatalf("OpenDataset error %v, want one containing %q", err, tc.openErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			if got, err := ds.ReadAll(); got != nil || err == nil || !strings.Contains(err.Error(), tc.readErr) {
				t.Fatalf("ReadAll error %v; want no set and an error containing %q", err, tc.readErr)
			}
		})
	}
}

// TestLeafSchemaMismatch: a leaf file whose schema is not the .batm's is
// refused when it opens, naming the leaf, on every read route, and never
// reaches a visitor or a set of the other schema. Each case copies a
// one-leaf dataset's leaf file over the leaf of another one-leaf dataset of
// the same particles with one attribute more or fewer.
func TestLeafSchemaMismatch(t *testing.T) {
	write := func(store Storage, base string, attrs int) string {
		t.Helper()
		err := Run(testRanks, func(c *Comm) error {
			src, bounds := testWorld.Rank(c.Rank())
			local := NewParticleSet(NewSchema([]string{"temp", "id", "extra"}[:attrs]...), src.Len())
			vals := make([]float64, attrs)
			for i := range src.Len() {
				for a := range vals {
					vals[a] = float64(i + a)
				}
				local.Append(V3(float64(src.X[i]), float64(src.Y[i]), float64(src.Z[i])), vals)
			}
			_, err := Write(c, store, base, local, bounds, DefaultWriteConfig(1<<30))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		ds, err := OpenDataset(store, base)
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		if ds.NumFiles() != 1 {
			t.Fatalf("%s: %d leaf files, want 1", base, ds.NumFiles())
		}
		return ds.Leaves()[0].FileName
	}
	for _, tc := range []struct {
		name       string
		meta, leaf int
	}{
		{"3-attribute leaf under a 2-attribute batm", 2, 3},
		{"2-attribute leaf under a 3-attribute batm", 3, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := MemStorage()
			dst, src := write(store, "m", tc.meta), write(store, "l", tc.leaf)
			h, err := store.Open(src)
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, h.Size())
			if _, err := h.ReadAt(buf, 0); err != nil {
				t.Fatal(err)
			}
			h.Close()
			if err := store.WriteFile(dst, buf); err != nil {
				t.Fatal(err)
			}
			const want = "core: parsing leaf 0: file holds attributes"

			ds, err := OpenDataset(store, "m")
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			if got, err := ds.ReadAll(); got != nil || err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("ReadAll: error %v, want no set and an error containing %q", err, want)
			}
			last := ds.Schema().NumAttrs() - 1
			err = ds.QueryCtx(context.Background(), Query{}, func(_ Vec3, attrs []float64) error {
				_ = attrs[last]
				return nil
			})
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("QueryCtx: error %v, want one containing %q", err, want)
			}

			err = Run(testRanks, func(c *Comm) error {
				got, stats, err := ReadQueryCtx(context.Background(), c, store, "m", Query{})
				if !errors.Is(err, ErrPartial) || got == nil || got.Len() != 0 {
					return fmt.Errorf("rank %d: %v particles, error %v, want none and an error wrapping ErrPartial", c.Rank(), got, err)
				}
				if lerr := stats.LeafErrors[0]; lerr == nil || !strings.Contains(lerr.Error(), want) {
					return fmt.Errorf("rank %d: leaf 0 error %v, want one containing %q", c.Rank(), lerr, want)
				}
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		})
	}
}
