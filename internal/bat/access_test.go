package bat

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"libbat/internal/geom"
	"libbat/internal/obs/access"
)

// accessSnapshotFor runs the given queries under one engine configuration
// against a fresh File (fresh cache, fresh recorder) and returns the
// recorded access snapshot, normalized for comparison.
func accessSnapshotFor(t *testing.T, buf []byte, cfg QueryConfig, queries []Query) access.Snapshot {
	t.Helper()
	f, err := DecodeLeaf(context.Background(), bytes.NewReader(buf), int64(len(buf)), NewCache(), 7)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec := access.New("t", f.Domain)
	f.cache.SetAccessRecorder(rec)
	for _, q := range queries {
		if _, err := f.QueryWithConfig(q, cfg, func(geom.Vec3, []float64) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	s := rec.Snapshot()
	s.WallUnix = 0
	return s
}

// TestParallelAccessMultiset checks that the recorder observes the same
// access pattern whichever engine ran the query: per-treelet hit/byte/load
// counts and the heatmap are identical for Workers=1 and Workers=N
// (treelet completion order differs; the multiset may not). Attribute
// touches are a query-level record, made by core.Dataset.Query, and are
// tested with it (TestDatasetAttrTouchesOncePerQuery).
func TestParallelAccessMultiset(t *testing.T) {
	s, domain := randomSet(6000, 17)
	_, b := buildAndOpen(t, s, domain, DefaultBuildConfig())
	box := geom.NewBox(geom.V3(0.1, 0.1, 0.1), geom.V3(0.7, 0.8, 0.6))
	queries := []Query{
		{},
		{Bounds: &box},
		{Bounds: &box, Filters: []AttrFilter{{Attr: 0, Min: 0.2, Max: 0.9}}},
		{Quality: 0.5},
	}
	serial := accessSnapshotFor(t, b.Buf, QueryConfig{Workers: 1}, queries)
	if serial.TreeletHits == 0 || len(serial.Treelets) == 0 || len(serial.Heatmap) == 0 {
		t.Fatalf("serial run recorded nothing: %+v", serial)
	}
	for _, ts := range serial.Treelets {
		if ts.Leaf != 7 {
			t.Fatalf("treelet stat has leaf %d, want the configured 7", ts.Leaf)
		}
		if ts.Loads != 1 {
			t.Fatalf("treelet %d loaded %d times on a fresh cache, want 1", ts.Treelet, ts.Loads)
		}
	}
	for _, cfg := range []QueryConfig{{Workers: 2}, {Workers: 4}, {Workers: -1}} {
		par := accessSnapshotFor(t, b.Buf, cfg, queries)
		if !reflect.DeepEqual(par, serial) {
			t.Errorf("cfg %+v access snapshot differs from serial:\n par    %+v\n serial %+v", cfg, par, serial)
		}
	}
}

// TestConcurrentAccessRecorder drives one shared File (and recorder) from
// many goroutines; under -race it is the wiring's thread-safety proof, and
// the totals check that concurrent queries lose no counts.
func TestConcurrentAccessRecorder(t *testing.T) {
	s, domain := randomSet(4000, 11)
	f, _ := buildAndOpen(t, s, domain, DefaultBuildConfig())
	defer f.Close()
	rec := access.New("t", f.Domain)
	f.cache.SetAccessRecorder(rec)

	box := geom.NewBox(geom.V3(0.2, 0.2, 0.2), geom.V3(0.8, 0.8, 0.8))
	ref, err := f.QueryWithConfig(Query{Bounds: &box}, QueryConfig{}, func(geom.Vec3, []float64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if ref.Treelets == 0 {
		t.Fatal("reference query touched no treelets")
	}
	baseline := rec.Snapshot().TreeletHits

	cfgs := []QueryConfig{{Workers: 1}, {Workers: 2}, {Workers: 4}, {Workers: -1}}
	const perCfg = 3
	var wg sync.WaitGroup
	errs := make(chan error, len(cfgs)*perCfg)
	for _, cfg := range cfgs {
		for r := 0; r < perCfg; r++ {
			wg.Add(1)
			go func(cfg QueryConfig) {
				defer wg.Done()
				st, err := f.QueryWithConfig(Query{Bounds: &box}, cfg, func(geom.Vec3, []float64) error { return nil })
				if err != nil {
					errs <- err
					return
				}
				if st.Treelets != ref.Treelets {
					errs <- fmt.Errorf("cfg %+v traversed %d treelets, want %d", cfg, st.Treelets, ref.Treelets)
				}
			}(cfg)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	snap := rec.Snapshot()
	want := baseline + int64(len(cfgs)*perCfg)*ref.Treelets
	if snap.TreeletHits != want {
		t.Errorf("recorded %d treelet hits, want %d", snap.TreeletHits, want)
	}
	var perTreelet, heat int64
	for _, ts := range snap.Treelets {
		perTreelet += ts.Hits
	}
	for _, h := range snap.Heatmap {
		heat += h.Count
	}
	if perTreelet != want || heat != want {
		t.Errorf("per-treelet sum %d / heatmap mass %d, want %d", perTreelet, heat, want)
	}
}
