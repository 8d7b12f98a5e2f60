package libbat

import (
	"context"
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
	rec := NewAccessRecorder("acc", ds.Bounds(), AccessOptions{RingSize: 16})
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
