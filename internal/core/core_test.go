package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"libbat/internal/bat"
	"libbat/internal/fabric"
	"libbat/internal/geom"
	"libbat/internal/meta"
	"libbat/internal/oracle"
	"libbat/internal/particles"
	"libbat/internal/pfs"
	"libbat/internal/workloads"
)

// runWrite executes a collective write of a workload timestep and returns
// rank 0's stats.
func runWrite(t *testing.T, w workloads.Workload, step int, store pfs.Storage,
	base string, cfg WriteConfig) *WriteStats {
	t.Helper()
	n := w.Decomp().NumRanks()
	var mu sync.Mutex
	var rootStats *WriteStats
	err := fabric.Run(n, func(c *fabric.Comm) error {
		local := w.Generate(step, c.Rank())
		st, err := Write(c, store, base, local, w.Decomp().RankBounds(c.Rank()), cfg)
		if err != nil {
			return fmt.Errorf("rank %d: %w", c.Rank(), err)
		}
		if c.Rank() == 0 {
			mu.Lock()
			rootStats = st
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rootStats
}

func TestWriteReadRoundTripAdaptive(t *testing.T) {
	w, err := workloads.NewUniform(16, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	store := pfs.NewMem()
	cfg := DefaultWriteConfig(20 * 1024) // small target -> several files
	stats := runWrite(t, w, 0, store, "step0", cfg)
	if stats.NumFiles < 2 {
		t.Fatalf("expected multiple files, got %d", stats.NumFiles)
	}
	if stats.TotalCount != 16*500 {
		t.Fatalf("TotalCount = %d", stats.TotalCount)
	}
	names, _ := store.List()
	// One file per leaf plus the metadata file.
	if len(names) != stats.NumFiles+1 {
		t.Fatalf("store has %d files, want %d", len(names), stats.NumFiles+1)
	}

	// Collective read on a different rank count (the paper supports
	// reading at different scales); verify against the oracle.
	sets := make([]*particles.Set, 16)
	for r := range sets {
		sets[r] = w.Generate(0, r)
	}
	ref := oracle.New(cfg.BAT, sets...)
	readers := 8
	err = fabric.Run(readers, func(c *fabric.Comm) error {
		// Give each reader a horizontal slab.
		lo := float64(c.Rank()) / float64(readers)
		hi := float64(c.Rank()+1) / float64(readers)
		box := geom.NewBox(geom.V3(0, 0, lo), geom.V3(1, 1, hi))
		got, _, err := Read(c, store, "step0", box)
		if err != nil {
			return fmt.Errorf("rank %d: %w", c.Rank(), err)
		}
		if err := ref.Check(bat.Query{Bounds: &box}, oracle.RowsOf(got)); err != nil {
			return fmt.Errorf("rank %d: %w", c.Rank(), err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadRoundTripAUG(t *testing.T) {
	w, err := workloads.NewUniform(8, 400, 2)
	if err != nil {
		t.Fatal(err)
	}
	store := pfs.NewMem()
	cfg := DefaultWriteConfig(30 * 1024)
	cfg.Strategy = AUG
	stats := runWrite(t, w, 0, store, "aug0", cfg)
	if stats.NumFiles < 2 {
		t.Fatalf("AUG produced %d files", stats.NumFiles)
	}
	// Read everything back on the same ranks.
	var mu sync.Mutex
	total := 0
	err = fabric.Run(8, func(c *fabric.Comm) error {
		got, _, err := Read(c, store, "aug0", w.Decomp().RankBounds(c.Rank()))
		if err != nil {
			return err
		}
		mu.Lock()
		total += got.Len()
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rank bounds share faces, so boundary particles may be returned to
	// two ranks; every particle must be seen at least once.
	if total < 8*400 {
		t.Errorf("read %d of %d particles", total, 8*400)
	}
}

func TestWriteNonuniform(t *testing.T) {
	cb, err := workloads.NewCoalBoiler(12)
	if err != nil {
		t.Fatal(err)
	}
	cb.SetGrowth(0, 10, 5000, 20000)
	store := pfs.NewMem()
	cfg := DefaultWriteConfig(50 * 1024)
	stats := runWrite(t, cb, 5, store, "cb5", cfg)
	if stats.TotalCount != workloads.TotalCount(cb, 5) {
		t.Fatalf("wrote %d particles, workload has %d", stats.TotalCount, workloads.TotalCount(cb, 5))
	}
	// Full-domain read returns everything.
	err = fabric.Run(4, func(c *fabric.Comm) error {
		if c.Rank() != 0 {
			_, _, err := Read(c, store, "cb5", geom.Box{})
			return err
		}
		got, _, err := Read(c, store, "cb5", cb.Decomp().Domain)
		if err != nil {
			return err
		}
		if int64(got.Len()) != stats.TotalCount {
			return fmt.Errorf("full read %d != written %d", got.Len(), stats.TotalCount)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWriteWithEmptyRanks(t *testing.T) {
	// Half the ranks own no particles; the pipeline must skip their
	// transfers and still complete.
	n := 8
	schema := particles.NewSchema("a")
	store := pfs.NewMem()
	err := fabric.Run(n, func(c *fabric.Comm) error {
		local := particles.NewSet(schema, 0)
		lo := geom.V3(float64(c.Rank()), 0, 0)
		bounds := geom.NewBox(lo, lo.Add(geom.V3(1, 1, 1)))
		if c.Rank()%2 == 0 {
			for i := 0; i < 100; i++ {
				local.Append(lo.Add(geom.V3(0.5, 0.3, 0.7)), []float64{float64(i)})
			}
		}
		_, err := Write(c, store, "sparse", local, bounds, DefaultWriteConfig(1<<20))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	m := openMeta(t, store, "sparse")
	if m.TotalCount() != 400 {
		t.Errorf("TotalCount = %d", m.TotalCount())
	}
}

func TestWriteAllEmpty(t *testing.T) {
	schema := particles.NewSchema("a")
	store := pfs.NewMem()
	err := fabric.Run(4, func(c *fabric.Comm) error {
		local := particles.NewSet(schema, 0)
		bounds := geom.NewBox(geom.V3(0, 0, 0), geom.V3(1, 1, 1))
		_, err := Write(c, store, "empty", local, bounds, DefaultWriteConfig(1<<20))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// Reading an empty dataset works and returns nothing.
	err = fabric.Run(4, func(c *fabric.Comm) error {
		got, _, err := Read(c, store, "empty", geom.NewBox(geom.V3(0, 0, 0), geom.V3(1, 1, 1)))
		if err != nil {
			return err
		}
		if got.Len() != 0 {
			return fmt.Errorf("empty dataset returned %d particles", got.Len())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWriteRefusesNonFinite: a rank holding a NaN or an infinity in a
// position or an attribute fails the write at the plan agreement. Every
// rank returns the one agreed error, which names that rank, the column and
// how many of its values are not finite, and no file is left behind.
func TestWriteRefusesNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		poke func(s *particles.Set)
		want string
	}{
		{"NaN attribute", func(s *particles.Set) { s.Attrs[1][7] = nan }, `rank 1: particles: 1 of 100 values of attribute "id" are not finite`},
		{"infinite attributes", func(s *particles.Set) { s.Attrs[0][3], s.Attrs[0][9] = inf, -inf }, `rank 1: particles: 2 of 100 values of attribute "temp" are not finite`},
		{"infinite position", func(s *particles.Set) { s.Y[0] = float32(inf) }, "rank 1: particles: 1 of 100 y positions are not finite"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := pfs.NewMem()
			errs := make([]error, 2)
			err := fabric.Run(2, func(c *fabric.Comm) error {
				lo := geom.V3(float64(c.Rank()), 0, 0)
				local := particles.NewSet(particles.NewSchema("temp", "id"), 100)
				for i := range 100 {
					local.Append(lo.Add(geom.V3(float64(i)/100, 0.5, 0.5)), []float64{float64(i), float64(100*c.Rank() + i)})
				}
				if c.Rank() == 1 {
					tc.poke(local)
				}
				_, errs[c.Rank()] = Write(c, store, "nf", local, geom.NewBox(lo, lo.Add(geom.V3(1, 1, 1))), DefaultWriteConfig(1<<20))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for r, err := range errs {
				if err == nil || !strings.Contains(err.Error(), tc.want) || err.Error() != errs[0].Error() {
					t.Errorf("rank %d: err = %v, want the one agreed error naming %q", r, err, tc.want)
				}
			}
			if names, err := store.List(); err != nil || len(names) != 0 {
				t.Errorf("the failed write left %v (%v)", names, err)
			}
		})
	}
}

func TestReadFewerRanksThanFiles(t *testing.T) {
	w, err := workloads.NewUniform(16, 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	store := pfs.NewMem()
	cfg := DefaultWriteConfig(10 * 1024) // many small files
	stats := runWrite(t, w, 0, store, "many", cfg)
	if stats.NumFiles <= 2 {
		t.Fatalf("want many files, got %d", stats.NumFiles)
	}
	// Read with 2 ranks (fewer than files): round-robin assignment.
	var mu sync.Mutex
	total := 0
	err = fabric.Run(2, func(c *fabric.Comm) error {
		lo := float64(c.Rank()) * 0.5
		box := geom.NewBox(geom.V3(lo, 0, 0), geom.V3(lo+0.5, 1, 1))
		got, st, err := Read(c, store, "many", box)
		if err != nil {
			return err
		}
		if st.NumFiles == 0 {
			return fmt.Errorf("rank %d served no files", c.Rank())
		}
		mu.Lock()
		total += got.Len()
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total < 16*300 {
		t.Errorf("read %d of %d", total, 16*300)
	}
}

func TestReadAggregatorAssignment(t *testing.T) {
	// More ranks than files: evenly spread, distinct.
	seen := map[int]bool{}
	for li := 0; li < 8; li++ {
		r := ReadAggregator(li, 8, 64)
		if seen[r] {
			t.Errorf("reader %d assigned twice", r)
		}
		seen[r] = true
		if r < 0 || r >= 64 {
			t.Errorf("reader %d out of range", r)
		}
	}
	// Fewer ranks than files: round robin covers all ranks.
	counts := map[int]int{}
	for li := 0; li < 64; li++ {
		counts[ReadAggregator(li, 64, 8)]++
	}
	for r := 0; r < 8; r++ {
		if counts[r] != 8 {
			t.Errorf("rank %d assigned %d files, want 8", r, counts[r])
		}
	}
}

func TestWriteStatsPopulated(t *testing.T) {
	w, err := workloads.NewUniform(8, 1000, 2)
	if err != nil {
		t.Fatal(err)
	}
	store := pfs.NewMem()
	stats := runWrite(t, w, 0, store, "stats", DefaultWriteConfig(40*1024))
	if stats.Total() <= 0 {
		t.Error("zero total time")
	}
	if stats.LeafSizes.NumFiles != stats.NumFiles {
		t.Errorf("leaf stats files %d != %d", stats.LeafSizes.NumFiles, stats.NumFiles)
	}
	if stats.LeafSizes.MaxB <= 0 {
		t.Error("leaf size stats empty")
	}
}

func TestLeafFilesAreValidBATs(t *testing.T) {
	w, err := workloads.NewUniform(8, 500, 2)
	if err != nil {
		t.Fatal(err)
	}
	store := pfs.NewMem()
	runWrite(t, w, 0, store, "valid", DefaultWriteConfig(30*1024))
	m := openMeta(t, store, "valid")
	var total int64
	for _, l := range m.Leaves {
		fh, err := store.Open(l.FileName)
		if err != nil {
			t.Fatal(err)
		}
		f, err := bat.DecodeCtx(context.Background(), fh, fh.Size())
		if err != nil {
			t.Fatalf("leaf %s: %v", l.FileName, err)
		}
		if int64(f.NumParticles) != l.Count {
			t.Errorf("leaf %s: file has %d particles, metadata says %d", l.FileName, f.NumParticles, l.Count)
		}
		total += int64(f.NumParticles)
		fh.Close()
	}
	if total != 8*500 {
		t.Errorf("leaves hold %d particles, want %d", total, 8*500)
	}
}

func TestMetadataQueriesAfterWrite(t *testing.T) {
	cb, err := workloads.NewCoalBoiler(12)
	if err != nil {
		t.Fatal(err)
	}
	cb.SetGrowth(0, 10, 8000, 8000)
	store := pfs.NewMem()
	runWrite(t, cb, 0, store, "q", DefaultWriteConfig(20*1024))
	m := openMeta(t, store, "q")
	// Attribute filter on temperature: high temperatures live low in the
	// boiler, so a filter should prune some leaves if there are several.
	all := m.SelectLeaves(nil, nil)
	hot := m.SelectLeaves(nil, []particles.AttrFilter{{Attr: 0, Min: 1700, Max: 2000}})
	if len(all) == 0 {
		t.Fatal("no leaves")
	}
	if len(hot) > len(all) {
		t.Error("filter grew the selection")
	}
	t.Logf("leaves: %d total, %d after temp filter", len(all), len(hot))
}

func openMeta(t *testing.T, store pfs.Storage, base string) *meta.Meta {
	t.Helper()
	ds, err := OpenDataset(context.Background(), store, base)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Meta()
}

func TestStrategyString(t *testing.T) {
	if Adaptive.String() != "adaptive" || AUG.String() != "aug" {
		t.Error("strategy names wrong")
	}
}

func TestFileNames(t *testing.T) {
	if LeafFileName("base", 7) != "base.l00007.bat" {
		t.Errorf("leaf name = %q", LeafFileName("base", 7))
	}
	if MetaFileName("base") != "base.batm" {
		t.Errorf("meta name = %q", MetaFileName("base"))
	}
}

func TestWriteToOSStorage(t *testing.T) {
	w, err := workloads.NewUniform(4, 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	store, err := pfs.NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stats := runWrite(t, w, 0, store, "disk", DefaultWriteConfig(1<<20))
	if stats.TotalCount != 1200 {
		t.Fatalf("wrote %d", stats.TotalCount)
	}
	err = fabric.Run(4, func(c *fabric.Comm) error {
		got, _, err := Read(c, store, "disk", w.Decomp().RankBounds(c.Rank()))
		if err != nil {
			return err
		}
		if got.Len() == 0 {
			return fmt.Errorf("rank %d read nothing", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
