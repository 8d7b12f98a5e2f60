package access

import (
	"fmt"
	"sync"
	"testing"

	"libbat/internal/geom"
	"libbat/internal/morton"
)

func unitBox() geom.Box { return geom.NewBox(geom.V3(0, 0, 0), geom.V3(1, 1, 1)) }

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Treelet(0, 1, 100, true, geom.V3(0.5, 0.5, 0.5))
	r.TouchAttr("mass", 1)
	r.Record(QueryRecord{})
	if got := r.RecentQueries(); got != nil {
		t.Errorf("nil recorder RecentQueries = %v", got)
	}
	s := r.Snapshot()
	if s.Queries != 0 || len(s.Treelets) != 0 {
		t.Errorf("nil recorder snapshot = %+v", s)
	}
	if r.Name() != "" {
		t.Errorf("nil recorder Name = %q", r.Name())
	}

	var g *Registry
	if g.Get("x", unitBox()) != nil {
		t.Error("nil registry returned a recorder")
	}
	if g.Recorders() != nil || g.Snapshots() != nil {
		t.Error("nil registry returned recorders")
	}
}

func TestRecorderCounts(t *testing.T) {
	r := New("ds", unitBox())
	r.Treelet(0, 3, 100, true, geom.V3(0.1, 0.1, 0.1))
	r.Treelet(0, 3, 100, false, geom.V3(0.1, 0.1, 0.1))
	r.Treelet(1, 0, 50, false, geom.V3(0.9, 0.9, 0.9))
	r.TouchAttr("mass", 2)
	r.Record(QueryRecord{Particles: 10, Treelets: 2, Seconds: 0.5})

	s := r.Snapshot()
	if s.Dataset != "ds" || s.GridBits != DefGridBits {
		t.Fatalf("snapshot header = %+v", s)
	}
	if s.Queries != 1 || s.TreeletHits != 3 || s.TreeletBytes != 250 || s.TreeletLoads != 1 {
		t.Fatalf("totals = %d/%d/%d/%d", s.Queries, s.TreeletHits, s.TreeletBytes, s.TreeletLoads)
	}
	want := []TreeletStat{
		{Leaf: 0, Treelet: 3, Hits: 2, Bytes: 200, Loads: 1},
		{Leaf: 1, Treelet: 0, Hits: 1, Bytes: 50},
	}
	if len(s.Treelets) != len(want) {
		t.Fatalf("treelets = %+v", s.Treelets)
	}
	for i, w := range want {
		if s.Treelets[i] != w {
			t.Errorf("treelet[%d] = %+v, want %+v", i, s.Treelets[i], w)
		}
	}
	if len(s.Heatmap) != 2 {
		t.Fatalf("heatmap = %+v", s.Heatmap)
	}
	// The two touched corners must land in different cells, and each
	// cell's recovered box must contain the touch point.
	cellBox := func(c HeatCell) geom.Box {
		return morton.CellBounds(morton.Code(c.Cell), 3*s.GridBits, unitBox())
	}
	for i, p := range []geom.Vec3{geom.V3(0.1, 0.1, 0.1), geom.V3(0.9, 0.9, 0.9)} {
		if b := cellBox(s.Heatmap[i]); !b.Contains(p) {
			t.Errorf("cell %d box %v does not contain %v", s.Heatmap[i].Cell, b, p)
		}
	}
	if s.Heatmap[0].Count != 2 || s.Heatmap[1].Count != 1 {
		t.Errorf("heatmap counts = %+v", s.Heatmap)
	}
	if len(s.Attrs) != 1 || s.Attrs[0] != (AttrStat{Name: "mass", Count: 2}) {
		t.Errorf("attrs = %+v", s.Attrs)
	}
	if len(s.Recent) != 1 || s.Recent[0].Particles != 10 || s.Recent[0].UnixNano == 0 {
		t.Errorf("recent = %+v", s.Recent)
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	r := New("ds", unitBox())
	const total = DefRingSize + 2
	for i := 1; i <= total; i++ {
		r.Record(QueryRecord{UnixNano: int64(i), Particles: int64(i)})
		if i == DefRingSize-1 {
			if n := len(r.RecentQueries()); n != i {
				t.Fatalf("ring length %d after %d records", n, i)
			}
		}
	}
	got := r.RecentQueries()
	if len(got) != DefRingSize {
		t.Fatalf("ring length %d", len(got))
	}
	for i, rec := range got {
		if want := int64(total - DefRingSize + 1 + i); rec.Particles != want {
			t.Errorf("ring[%d] = %+v, want particles %d", i, rec, want)
		}
	}
	if s := r.Snapshot(); s.Queries != total || len(s.Recent) != DefRingSize {
		t.Errorf("queries_total = %d with %d recent, want %d with %d", s.Queries, len(s.Recent), total, DefRingSize)
	}
}

func TestDegenerateBounds(t *testing.T) {
	// A flat (2D) domain must not produce NaN cells.
	flat := geom.NewBox(geom.V3(0, 0, 5), geom.V3(1, 1, 5))
	r := New("flat", flat)
	r.Treelet(0, 0, 1, false, geom.V3(0.5, 0.5, 5))
	s := r.Snapshot()
	if len(s.Heatmap) != 1 {
		t.Fatalf("heatmap = %+v", s.Heatmap)
	}
	if int(s.Heatmap[0].Cell) >= len(r.cells) {
		t.Fatalf("cell %d out of range", s.Heatmap[0].Cell)
	}
}

func TestRegistry(t *testing.T) {
	g := NewRegistry()
	a := g.Get("b-ds", unitBox())
	if a == nil || g.Get("b-ds", unitBox()) != a {
		t.Fatal("Get is not idempotent")
	}
	g.Get("a-ds", unitBox())
	recs := g.Recorders()
	if len(recs) != 2 || recs[0].Name() != "a-ds" || recs[1].Name() != "b-ds" {
		t.Fatalf("recorders = %v", recs)
	}
	snaps := g.Snapshots()
	if len(snaps) != 2 || snaps[0].Dataset != "a-ds" || snaps[0].GridBits != DefGridBits {
		t.Fatalf("snapshots = %+v", snaps)
	}
}

// TestConcurrentRecorder hammers one recorder from many goroutines; run
// under -race it is the recorder's thread-safety proof, and the final
// totals check that no increment was lost.
func TestConcurrentRecorder(t *testing.T) {
	r := New("ds", unitBox())
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ti := (w*perWorker + i) % 37
				r.Treelet(w%3, ti, 10, i%5 == 0, geom.V3(float64(ti)/37, 0.5, 0.5))
				r.TouchAttr(fmt.Sprintf("attr%d", w%2), 1)
				r.Record(QueryRecord{UnixNano: int64(w*perWorker + i + 1), Treelets: 1})
				r.Snapshot() // concurrent readers must be safe too
			}
		}(w)
	}
	wg.Wait()
	s := r.Snapshot()
	const total = workers * perWorker
	if s.TreeletHits != total || s.TreeletBytes != total*10 || s.Queries != total {
		t.Fatalf("totals = hits %d bytes %d queries %d, want %d/%d/%d",
			s.TreeletHits, s.TreeletBytes, s.Queries, total, total*10, total)
	}
	var attrs int64
	for _, a := range s.Attrs {
		attrs += a.Count
	}
	if attrs != total {
		t.Fatalf("attr touches = %d, want %d", attrs, total)
	}
	var perTreelet, loads int64
	for _, ts := range s.Treelets {
		perTreelet += ts.Hits
		loads += ts.Loads
	}
	if perTreelet != total {
		t.Fatalf("per-treelet hits = %d, want %d", perTreelet, total)
	}
	if want := int64(workers * perWorker / 5); loads != want || s.TreeletLoads != want {
		t.Fatalf("per-treelet loads = %d, total %d, want %d", loads, s.TreeletLoads, want)
	}
	var heat int64
	for _, h := range s.Heatmap {
		heat += h.Count
	}
	if heat != total {
		t.Fatalf("heatmap mass = %d, want %d", heat, total)
	}
	if len(s.Recent) != DefRingSize {
		t.Fatalf("ring = %d entries, want %d", len(s.Recent), DefRingSize)
	}
}
