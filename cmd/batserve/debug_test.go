package main

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"libbat"
	"libbat/internal/geom"
	"libbat/internal/morton"
	"libbat/internal/obs"
	"libbat/internal/obs/access"
)

// accessServer is testServer plus an attached access registry (the real
// main() always sets one; the bare testServer leaves it nil to prove the
// handlers tolerate disabled telemetry).
func accessServer(t *testing.T) *server {
	t.Helper()
	s, _ := testServer(t)
	s.col = obs.New()
	s.access = libbat.NewAccessRegistry()
	return s
}

// clusterQueries sends n /points queries boxed into rank 0's cube — the
// low-x corner of the [0,4]x[0,1]x[0,1] test domain.
func clusterQueries(t *testing.T, s *server, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		rec := httptest.NewRecorder()
		s.points(rec, httptest.NewRequest("GET", "/points?box=0,0,0,0.9,1,1", nil))
		if rec.Code != 200 {
			t.Fatalf("points status %d", rec.Code)
		}
		io.Copy(io.Discard, rec.Body)
	}
}

// TestDebugAccessHotRegion is the acceptance-criterion integration test:
// after a clustered query workload, /debug/access must report per-treelet
// hit counts and a heatmap whose hottest cell lies in the hot region.
func TestDebugAccessHotRegion(t *testing.T) {
	s := accessServer(t)
	clusterQueries(t, s, 6)
	// One query far away, so "hottest" is a real distinction.
	rec := httptest.NewRecorder()
	s.points(rec, httptest.NewRequest("GET", "/points?box=3,0,0,4,1,1", nil))

	w := httptest.NewRecorder()
	s.debugAccess(w, httptest.NewRequest("GET", "/debug/access", nil))
	if w.Code != 200 || w.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, content-type %q", w.Code, w.Header().Get("Content-Type"))
	}
	var body struct {
		Datasets []access.Snapshot `json:"datasets"`
	}
	if err := json.NewDecoder(w.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Datasets) != 1 {
		t.Fatalf("datasets = %d", len(body.Datasets))
	}
	snap := body.Datasets[0]
	if snap.Dataset != "srv" || snap.TreeletHits == 0 || len(snap.Treelets) == 0 {
		t.Fatalf("snapshot has no per-treelet hits: %+v", snap)
	}
	for _, ts := range snap.Treelets {
		if ts.Hits == 0 {
			t.Errorf("treelet (%d,%d) listed with zero hits", ts.Leaf, ts.Treelet)
		}
	}
	if snap.GridBits != access.DefGridBits {
		t.Errorf("grid_bits = %d, want %d", snap.GridBits, access.DefGridBits)
	}
	cb, ok := hottestCell(snap)
	if !ok {
		t.Fatal("no heatmap mass")
	}
	hotBox := geom.NewBox(geom.V3(0, 0, 0), geom.V3(0.9, 1, 1))
	if !cb.Overlaps(hotBox) {
		t.Errorf("hottest cell %v does not overlap the clustered region %v", cb, hotBox)
	}
	if cb.Lower.X >= 2 {
		t.Errorf("hottest cell %v is in the cold half of the domain", cb)
	}

	// The same snapshot as Prometheus series.
	w = httptest.NewRecorder()
	s.debugAccess(w, httptest.NewRequest("GET", "/debug/access?format=prometheus", nil))
	out := w.Body.String()
	for _, want := range []string{
		`access_queries_total{dataset="srv"}`,
		`access_treelet_hits_total{dataset="srv"}`,
		"access_heatmap_count{",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus access output missing %q", want)
		}
	}
}

// hottestCell returns the box of the snapshot's highest-count heatmap cell
// (the lowest cell index on a tie), or false for an empty heatmap.
func hottestCell(snap access.Snapshot) (geom.Box, bool) {
	if len(snap.Heatmap) == 0 {
		return geom.Box{}, false
	}
	hot := snap.Heatmap[0]
	for _, h := range snap.Heatmap[1:] {
		if h.Count > hot.Count {
			hot = h
		}
	}
	b := snap.Bounds
	frame := geom.NewBox(geom.V3(b[0], b[1], b[2]), geom.V3(b[3], b[4], b[5]))
	return morton.CellBounds(morton.Code(hot.Cell), 3*snap.GridBits, frame), true
}

func TestDebugQueriesEndpoint(t *testing.T) {
	s := accessServer(t)
	clusterQueries(t, s, 5)

	w := httptest.NewRecorder()
	s.debugQueries(w, httptest.NewRequest("GET", "/debug/queries", nil))
	if w.Code != 200 {
		t.Fatalf("status %d", w.Code)
	}
	var body struct {
		Queries []struct {
			Dataset string `json:"dataset"`
			access.QueryRecord
		} `json:"queries"`
	}
	if err := json.NewDecoder(w.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Queries) != 5 {
		t.Fatalf("queries = %d, want 5", len(body.Queries))
	}
	for i, q := range body.Queries {
		if q.Dataset != "srv" || q.Source != "batserve:/points" {
			t.Errorf("query[%d] = dataset %q source %q", i, q.Dataset, q.Source)
		}
		if q.Box == nil || q.Particles == 0 || q.UnixNano == 0 {
			t.Errorf("query[%d] incomplete: %+v", i, q.QueryRecord)
		}
		if i > 0 && q.UnixNano < body.Queries[i-1].UnixNano {
			t.Errorf("query log not time-ordered at %d", i)
		}
	}

	// ?n= keeps only the newest records; bad n is a 400.
	w = httptest.NewRecorder()
	s.debugQueries(w, httptest.NewRequest("GET", "/debug/queries?n=2", nil))
	body.Queries = nil
	if err := json.NewDecoder(w.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Queries) != 2 {
		t.Errorf("n=2 returned %d records", len(body.Queries))
	}
	w = httptest.NewRecorder()
	s.debugQueries(w, httptest.NewRequest("GET", "/debug/queries?n=-1", nil))
	if w.Code != 400 {
		t.Errorf("bad n status %d", w.Code)
	}
}

// TestDebugEndpointsNilRegistry: a server without telemetry (nil registry)
// must still answer with empty, well-formed payloads.
func TestDebugEndpointsNilRegistry(t *testing.T) {
	s, _ := testServer(t)
	w := httptest.NewRecorder()
	s.debugAccess(w, httptest.NewRequest("GET", "/debug/access", nil))
	if w.Code != 200 || !strings.Contains(w.Body.String(), `"datasets"`) {
		t.Errorf("nil-registry /debug/access: %d %q", w.Code, w.Body.String())
	}
	w = httptest.NewRecorder()
	s.debugQueries(w, httptest.NewRequest("GET", "/debug/queries", nil))
	if w.Code != 200 {
		t.Errorf("nil-registry /debug/queries: %d", w.Code)
	}
}

// TestPprofGated: the pprof endpoints exist only when enabled.
func TestPprofGated(t *testing.T) {
	s := accessServer(t)
	for _, tc := range []struct {
		on   bool
		want int
	}{{false, 404}, {true, 200}} {
		s.pprofOn = tc.on
		mux := s.routes()
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest("GET", "/debug/pprof/", nil))
		if w.Code != tc.want {
			t.Errorf("pprofOn=%v: /debug/pprof/ status %d, want %d", tc.on, w.Code, tc.want)
		}
	}
}
