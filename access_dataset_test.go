package libbat

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"libbat/internal/morton"
	"libbat/internal/obs/access"
)

// TestDatasetAccessTelemetry exercises the read-stack wiring end to end:
// a recorder attached to a Dataset must see per-treelet hits, a heatmap
// whose hottest cell localizes a clustered workload, named attribute
// touches, and a structured recent-query log.
func TestDatasetAccessTelemetry(t *testing.T) {
	store, _ := writeTestDataset(t, "acc", 20*1024)
	ds, err := OpenDataset(store, "acc")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	rec := NewAccessRecorder("acc", ds.Bounds())
	ds.SetAccessRecorder(rec)
	if ds.AccessRecorder() != rec {
		t.Fatal("AccessRecorder getter mismatch")
	}

	// A clustered workload: repeated small boxes in the low-x corner of the
	// [0,4]x[0,2]x[0,1] domain, plus one filtered query.
	hot := NewBox(V3(0, 0, 0), V3(0.8, 0.8, 1))
	for i := 0; i < 5; i++ {
		if _, err := ds.Count(Query{Bounds: &hot}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.QueryCtx(access.WithSource(context.Background(), "test:/points"), Query{
		Bounds:  &hot,
		Filters: []AttrFilter{{Attr: 0, Min: 0, Max: 50}},
	}, func(Vec3, []float64) error { return nil }); err != nil {
		t.Fatal(err)
	}

	s := rec.Snapshot()
	if s.Queries != 6 || len(s.Recent) != 6 {
		t.Fatalf("queries = %d, recent = %d, want 6/6", s.Queries, len(s.Recent))
	}
	if s.TreeletHits == 0 || len(s.Treelets) == 0 {
		t.Fatalf("no treelet hits recorded: %+v", s)
	}
	// The hottest heatmap cell (the lowest index on a tie) must lie in the
	// clustered region.
	if len(s.Heatmap) == 0 {
		t.Fatal("no heatmap mass")
	}
	hotCell := s.Heatmap[0]
	for _, h := range s.Heatmap[1:] {
		if h.Count > hotCell.Count {
			hotCell = h
		}
	}
	cb := morton.CellBounds(morton.Code(hotCell.Cell), 3*s.GridBits, ds.Bounds())
	if !cb.Overlaps(hot) {
		t.Errorf("hottest cell box %v does not overlap the clustered region %v", cb, hot)
	}
	// Filters are logged by attribute name.
	if len(s.Attrs) != 1 || s.Attrs[0].Name != "temp" {
		t.Errorf("attr touches = %+v, want temp", s.Attrs)
	}
	// Source tags: the five Counts carry no tag in their context, so they
	// log under the default "dataset"; one query tagged its context.
	var tagged, dataset int
	for _, q := range s.Recent {
		switch q.Source {
		case "test:/points":
			tagged++
			if len(q.Filters) != 1 || q.Filters[0].Attr != "temp" {
				t.Errorf("tagged record filters = %+v", q.Filters)
			}
		case "dataset":
			dataset++
		}
		if q.Box == nil || q.Treelets == 0 || q.UnixNano == 0 {
			t.Errorf("incomplete query record: %+v", q)
		}
	}
	if tagged != 1 || dataset != 5 {
		t.Errorf("sources: %d tagged, %d dataset, want 1/5", tagged, dataset)
	}
	// The repeated identical queries after the first ran on a warm cache.
	last := s.Recent[len(s.Recent)-1]
	if last.CacheHitRatio != 1 {
		t.Errorf("warm-cache hit ratio = %g, want 1", last.CacheHitRatio)
	}
}

// nopVisit accepts every particle.
func nopVisit(Vec3, []float64) error { return nil }

// TestDatasetHitRatioOverlapping: a query's cache_hit_ratio is its own,
// however other queries overlap it. A box query over a warm leaf 0 blocks
// in its visitor while a cold query loads leaf 1; its record must still
// read exactly 1, and the cold query's exactly 0.
func TestDatasetHitRatioOverlapping(t *testing.T) {
	store, _ := writeTestDataset(t, "ovl", 20*1024)
	ds, err := OpenDataset(store, "ovl")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if ds.NumFiles() < 2 {
		t.Fatalf("%d leaf files, want at least 2", ds.NumFiles())
	}
	rec := NewAccessRecorder("ovl", ds.Bounds())
	ds.SetAccessRecorder(rec)
	ctx := context.Background()
	if _, err := ds.r.Query(ctx, []int{0}, Query{}, nopVisit); err != nil {
		t.Fatal(err)
	}

	started, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	box := ds.meta.Leaves[0].Bounds
	done := make(chan error, 1)
	go func() {
		_, err := ds.r.Query(ctx, []int{0}, Query{Bounds: &box}, func(Vec3, []float64) error {
			once.Do(func() {
				close(started)
				<-release
			})
			return nil
		})
		done <- err
	}()
	select {
	case <-started:
	case err := <-done:
		t.Fatalf("the box query ended before its first particle: %v", err)
	}
	_, err = ds.r.Query(ctx, []int{1}, Query{}, nopVisit)
	close(release)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	recent := rec.RecentQueries()
	if len(recent) != 3 {
		t.Fatalf("%d records, want 3", len(recent))
	}
	cold, warm := recent[1], recent[2]
	if warm.Box == nil || cold.Box != nil {
		t.Fatalf("records out of order: cold %+v, warm %+v", cold, warm)
	}
	if warm.Treelets == 0 || warm.CacheHitRatio != 1 {
		t.Errorf("warm box query over %d treelets: cache_hit_ratio %g, want 1", warm.Treelets, warm.CacheHitRatio)
	}
	if cold.Treelets == 0 || cold.CacheHitRatio != 0 {
		t.Errorf("cold query over %d treelets: cache_hit_ratio %g, want 0", cold.Treelets, cold.CacheHitRatio)
	}
}

// TestDatasetAttrTouchesOncePerQuery: a filter query touches its attribute
// once, however many leaf files it reads.
func TestDatasetAttrTouchesOncePerQuery(t *testing.T) {
	store, _ := writeTestDataset(t, "touch", 20*1024)
	ds, err := OpenDataset(store, "touch")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	rec := NewAccessRecorder("touch", ds.Bounds())
	ds.SetAccessRecorder(rec)
	lo, hi, err := ds.AttrRange(0)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Filters: []AttrFilter{{Attr: 0, Min: lo, Max: hi}}}
	if n := len(ds.r.Select(q)); n < 2 {
		t.Fatalf("the filter selects %d leaf files, want at least 2", n)
	}
	for want := int64(1); want <= 2; want++ {
		if err := ds.QueryCtx(context.Background(), q, nopVisit); err != nil {
			t.Fatal(err)
		}
		attrs := rec.Snapshot().Attrs
		if len(attrs) != 1 || attrs[0] != (access.AttrStat{Name: "temp", Count: want}) {
			t.Fatalf("after %d filter queries: attr touches %+v, want temp %d", want, attrs, want)
		}
	}
}

// TestDatasetLoadsSumToMisses: under concurrent queries on a cache that
// evicts, every parse is counted by exactly one query, so the queries'
// Loads sum to the cache's misses when no load fails.
func TestDatasetLoadsSumToMisses(t *testing.T) {
	store, _ := writeTestDataset(t, "loads", 20*1024)
	ds, err := OpenDataset(store, "loads")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	ds.SetAccessRecorder(NewAccessRecorder("loads", ds.Bounds()))
	ctx := context.Background()
	var loads atomic.Int64
	query := func(q Query) error {
		st, err := ds.r.Query(ctx, ds.r.Select(q), q, nopVisit)
		if st.Loads < 0 || st.Loads > st.Treelets {
			return fmt.Errorf("%d loads of %d treelets", st.Loads, st.Treelets)
		}
		loads.Add(st.Loads)
		return err
	}
	if err := query(Query{}); err != nil {
		t.Fatal(err)
	}
	ds.SetCacheLimit(ds.CacheStats().Bytes / 3)
	ds.SetQueryConfig(QueryConfig{Workers: 2})

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < cap(errs); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 12; i++ {
				q := Query{}
				if i%3 != 0 {
					lo := V3(4*r.Float64(), 2*r.Float64(), r.Float64())
					box := NewBox(lo, lo.Add(V3(1, 0.5, 0.5)))
					q.Bounds = &box
				}
				if err := query(q); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := ds.CacheStats()
	if st.Evictions == 0 {
		t.Fatalf("the cache never evicted: %+v", st)
	}
	if got := loads.Load(); got != st.Misses {
		t.Errorf("queries report %d loads, the cache %d misses", got, st.Misses)
	}
}
