package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"libbat/internal/bat"
	"libbat/internal/fabric"
	"libbat/internal/geom"
	"libbat/internal/leakcheck"
	"libbat/internal/oracle"
	"libbat/internal/pfs"
	"libbat/internal/workloads"
)

// writeLeaves writes a uniform world of perLeaf particles with two
// attributes on each of leaves ranks, one leaf file per rank, of treelet
// leaves of at most maxLeafSize particles (0: the default), under the base
// name "walk".
func writeLeaves(tb testing.TB, leaves int, perLeaf int64, maxLeafSize int) pfs.Storage {
	tb.Helper()
	w, err := workloads.NewUniform(leaves, perLeaf, 2)
	if err != nil {
		tb.Fatal(err)
	}
	store := pfs.NewMem()
	cfg := DefaultWriteConfig(perLeaf * int64(w.Schema().BytesPerParticle()))
	if maxLeafSize > 0 {
		cfg.BAT.MaxLeafSize = maxLeafSize
	}
	err = fabric.Run(leaves, func(c *fabric.Comm) error {
		_, err := Write(c, store, "walk", w.Generate(0, c.Rank()), w.Decomp().RankBounds(c.Rank()), cfg)
		return err
	})
	if err != nil {
		tb.Fatal(err)
	}
	ds := openLeaves(tb, store, bat.QueryConfig{}, 0)
	if n := len(ds.Meta().Leaves); n != leaves {
		tb.Fatalf("the write made %d leaf files, want %d", n, leaves)
	}
	return store
}

// openLeaves opens writeLeaves' dataset under cfg and a cache limit (0:
// unbounded) and closes it when the test ends.
func openLeaves(tb testing.TB, store pfs.Storage, cfg bat.QueryConfig, cacheLimit int64) *Dataset {
	tb.Helper()
	ds, err := OpenDataset(context.Background(), store, "walk")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ds.Close() })
	ds.SetQueryConfig(cfg)
	ds.SetCacheLimit(cacheLimit)
	return ds
}

// visits runs q over every leaf it selects and returns the visit sequence,
// the stats and the error.
func visits(ctx context.Context, ds *Dataset, q bat.Query) ([]oracle.Row, bat.QueryStats, error) {
	var rows []oracle.Row
	st, err := ds.Query(ctx, ds.Select(q), q, oracle.Collect(&rows))
	return rows, st, err
}

// TestDatasetWalkOrder: a dataset query visits its particles in one
// sequence at every worker count — the serial walk's, leaf by leaf and
// treelet by treelet — over an unbounded cache and over a one-byte one,
// where every load evicts the rest, from cold for the first query.
func TestDatasetWalkOrder(t *testing.T) {
	store := writeLeaves(t, 16, 1500, 4)
	box := geom.NewBox(geom.V3(0.1, 0.2, 0.3), geom.V3(0.7, 0.9, 0.8))
	queries := []bat.Query{
		{},
		{Bounds: &box},
		{Filters: []bat.AttrFilter{{Attr: 1, Min: 0.2, Max: 0.6}}},
		{PrevQuality: 0.3, Quality: 0.7},
	}
	ref := openLeaves(t, store, bat.QueryConfig{Workers: 1}, 0)
	want := make([][]oracle.Row, len(queries))
	for i, q := range queries {
		rows, _, err := visits(context.Background(), ref, q)
		if err != nil || len(rows) == 0 {
			t.Fatalf("serial query %d: %d visits, %v", i, len(rows), err)
		}
		want[i] = rows
	}
	for _, limit := range []int64{0, 1} {
		for _, w := range []int{1, 2, 4} {
			ds := openLeaves(t, store, bat.QueryConfig{Workers: w}, limit)
			for i, q := range queries {
				rows, _, err := visits(context.Background(), ds, q)
				if err != nil {
					t.Fatalf("cache limit %d, %d workers, query %d: %v", limit, w, i, err)
				}
				if !reflect.DeepEqual(rows, want[i]) {
					t.Fatalf("cache limit %d, %d workers, query %d: %d visits not in the serial walk's sequence of %d",
						limit, w, i, len(rows), len(want[i]))
				}
			}
		}
	}
}

// TestDatasetWalkLoads: a cold full scan over an unbounded cache loads
// every treelet it walks exactly once at every worker count, a helper's
// load counting as the query's own.
func TestDatasetWalkLoads(t *testing.T) {
	store := writeLeaves(t, 16, 1500, 4)
	for _, w := range []int{1, 2, 4} {
		ds := openLeaves(t, store, bat.QueryConfig{Workers: w}, 0)
		_, st, err := visits(context.Background(), ds, bat.Query{})
		if err != nil {
			t.Fatal(err)
		}
		if st.Treelets <= 16 || st.Loads != st.Treelets {
			t.Errorf("%d workers: %d loads of %d treelets, want one per treelet", w, st.Loads, st.Treelets)
		}
		if cs := ds.CacheStats(); cs.Misses != st.Treelets || cs.Hits != 0 {
			t.Errorf("%d workers: cache %+v after a cold scan of %d treelets", w, cs, st.Treelets)
		}
	}
}

// TestDatasetWalkAllocs: a warm full-dataset scan on two workers allocates
// at most the serial scan's count plus a constant per worker, whatever the
// number of leaves: the walk and its helpers are set up once per query, not
// once per leaf.
func TestDatasetWalkAllocs(t *testing.T) {
	for _, leaves := range []int{4, 16} {
		store := writeLeaves(t, leaves, 1500, 4)
		warm := func(w int) float64 {
			ds := openLeaves(t, store, bat.QueryConfig{Workers: w}, 0)
			scan := func() {
				if _, err := ds.Query(context.Background(), ds.Select(bat.Query{}), bat.Query{}, nil); err != nil {
					t.Fatal(err)
				}
			}
			scan()
			return testing.AllocsPerRun(10, scan)
		}
		serial := warm(1)
		if allocs, limit := warm(2), serial+8*2; allocs > limit {
			t.Errorf("%d leaves: a warm scan on 2 workers allocated %.0f times, want at most %.0f (serial %.0f)",
				leaves, allocs, limit, serial)
		}
	}
}

// slowStore delays every read of a leaf file by a few milliseconds unless
// the reader's context ends first, and counts the reads still running or
// begun after the test marks its query as returned.
type slowStore struct {
	pfs.Storage
	returned atomic.Bool
	reads    atomic.Int64
	late     atomic.Int64
}

func (s *slowStore) Open(name string) (pfs.File, error) {
	f, err := s.Storage.Open(name)
	if err != nil || name == MetaFileName("walk") {
		return f, err
	}
	return &slowFile{File: f, s: s}, nil
}

type slowFile struct {
	pfs.File
	s *slowStore
}

func (f *slowFile) ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	f.s.reads.Add(1)
	defer func() {
		if f.s.returned.Load() {
			f.s.late.Add(1)
		}
	}()
	if err := pfs.SleepContext(ctx, 2*time.Millisecond); err != nil {
		return 0, err
	}
	return f.File.ReadAt(p, off)
}

// TestDatasetWalkCancelMidLoad: a cold scan on four workers over slow
// storage, cancelled while its helpers are loading ahead, returns the
// context's error, a scan that meets a corrupt leaf fails there with the
// serial walk's error, which names the leaf, after the serial walk's
// visits, and a visitor's error comes back as it was returned. Either way no
// leaf read runs after the query returns, and leakcheck requires every
// helper to exit.
func TestDatasetWalkCancelMidLoad(t *testing.T) {
	mem := writeLeaves(t, 16, 1500, 4)
	// Corrupt leaf 9 in the middle of its treelets.
	name := LeafFileName("walk", 9)
	h, err := mem.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, h.Size())
	if _, err := h.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	h.Close()
	buf[len(buf)/2] ^= 0xFF
	if err := mem.WriteFile(name, buf); err != nil {
		t.Fatal(err)
	}
	serial, _, serialErr := visits(context.Background(), openLeaves(t, mem, bat.QueryConfig{Workers: 1}, 0), bat.Query{})
	if serialErr == nil || pfs.IsContextErr(serialErr) || !strings.Contains(serialErr.Error(), "leaf 9") {
		t.Fatalf("serial scan over the corrupt leaf = %v, want its failure naming leaf 9", serialErr)
	}

	errVisit := errors.New("visitor stops")
	for _, mode := range []string{"corrupt", "cancel", "visitor"} {
		t.Run(mode, func(t *testing.T) {
			store := &slowStore{Storage: mem}
			t.Cleanup(func() {
				if n := store.late.Load(); n != 0 {
					t.Errorf("%d leaf reads ran after the query returned", n)
				}
			})
			leakcheck.Check(t)
			ds := openLeaves(t, store, bat.QueryConfig{Workers: 4}, 0)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var rows []oracle.Row
			collect := oracle.Collect(&rows)
			_, err := ds.Query(ctx, ds.Select(bat.Query{}), bat.Query{}, func(p geom.Vec3, attrs []float64) error {
				if len(rows) == len(serial)/4 {
					switch mode {
					case "cancel":
						cancel()
					case "visitor":
						return errVisit
					}
				}
				return collect(p, attrs)
			})
			store.returned.Store(true)
			switch mode {
			case "corrupt":
				if err == nil || err.Error() != serialErr.Error() {
					t.Fatalf("err = %v, want the serial walk's %v", err, serialErr)
				}
				if !reflect.DeepEqual(rows, serial) {
					t.Fatalf("%d visits before the failure, the serial walk made %d", len(rows), len(serial))
				}
			case "cancel":
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				if !reflect.DeepEqual(rows, serial[:len(rows)]) || len(rows) >= len(serial) {
					t.Fatalf("%d visits, not a strict prefix of the serial walk's %d", len(rows), len(serial))
				}
			case "visitor":
				if err != errVisit {
					t.Fatalf("err = %v, want the visitor's own %v", err, errVisit)
				}
				if !reflect.DeepEqual(rows, serial[:len(serial)/4]) {
					t.Fatalf("%d visits, want the serial walk's first %d", len(rows), len(serial)/4)
				}
			}
			if store.reads.Load() == 0 {
				t.Fatal("the query read nothing; the check would be vacuous")
			}
		})
	}
}

// BenchmarkDatasetQuery runs full-domain dataset queries over 4 and 16
// leaves on 1 and 2 workers: cold (a fresh cache per query, so every
// treelet is parsed) and warm (every treelet resident), each with a nil
// visitor, which only counts, and a visitor that does nothing.
func BenchmarkDatasetQuery(b *testing.B) {
	for _, leaves := range []int{4, 16} {
		store := writeLeaves(b, leaves, 32768, 0)
		for _, cache := range []string{"cold", "warm"} {
			for _, w := range []int{1, 2} {
				for _, visitor := range []string{"nil", "noop"} {
					var visit bat.Visitor
					if visitor == "noop" {
						visit = func(geom.Vec3, []float64) error { return nil }
					}
					b.Run(fmt.Sprintf("leaves%d-%s-w%d-%s", leaves, cache, w, visitor), func(b *testing.B) {
						ds := openLeaves(b, store, bat.QueryConfig{Workers: w}, 0)
						leafIdx := ds.Select(bat.Query{})
						scan := func() {
							if _, err := ds.Query(context.Background(), leafIdx, bat.Query{}, visit); err != nil {
								b.Fatal(err)
							}
						}
						scan() // opens every leaf, and warms the cache
						b.ReportAllocs()
						b.ResetTimer()
						for range b.N {
							if cache == "cold" {
								b.StopTimer()
								ds.cache.Purge()
								b.StartTimer()
							}
							scan()
						}
					})
				}
			}
		}
	}
}
