// Snapshot export.
//
// A Snapshot is a consistent copy of a Recorder's state, served live as
// plain JSON (the /debug/access endpoint) or as Prometheus series.
package access

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// TreeletStat is one treelet's access counters at snapshot time.
type TreeletStat struct {
	Leaf    int   `json:"leaf"`
	Treelet int   `json:"treelet"`
	Hits    int64 `json:"hits"`
	Bytes   int64 `json:"bytes"`
	Loads   int64 `json:"loads,omitempty"`
}

// HeatCell is one non-empty heatmap cell. Cell is the Morton prefix of the
// cell (3*GridBits bits) relative to the snapshot's Bounds, so
// morton.CellBounds recovers its spatial box.
type HeatCell struct {
	Cell  uint32 `json:"cell"`
	Count int64  `json:"count"`
}

// AttrStat is one attribute's touch count.
type AttrStat struct {
	Name  string `json:"name"`
	Count int64  `json:"count"`
}

// Snapshot is a Recorder's exported state: every slice is sorted so equal
// states marshal to identical bytes.
type Snapshot struct {
	Dataset  string     `json:"dataset"`
	Bounds   [6]float64 `json:"bounds"`              // x0,y0,z0,x1,y1,z1 heatmap frame
	GridBits int        `json:"grid_bits"`           // heatmap depth, DefGridBits
	WallUnix int64      `json:"wall_unix,omitempty"` // snapshot time

	Queries      int64 `json:"queries_total"`
	TreeletHits  int64 `json:"treelet_hits_total"`
	TreeletBytes int64 `json:"treelet_bytes_total"`
	TreeletLoads int64 `json:"treelet_loads_total"`

	Treelets []TreeletStat `json:"treelets,omitempty"` // sorted by (leaf, treelet)
	Heatmap  []HeatCell    `json:"heatmap,omitempty"`  // non-empty cells, sorted by cell
	Attrs    []AttrStat    `json:"attrs,omitempty"`    // sorted by name
	Recent   []QueryRecord `json:"recent_queries,omitempty"`
}

// Snapshot captures the recorder's current state. A nil recorder yields
// the zero Snapshot.
func (r *Recorder) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	b := r.bounds
	s = Snapshot{
		Dataset:  r.name,
		Bounds:   [6]float64{b.Lower.X, b.Lower.Y, b.Lower.Z, b.Upper.X, b.Upper.Y, b.Upper.Z},
		GridBits: DefGridBits,
		WallUnix: time.Now().Unix(),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.Queries = r.queries
	for key, c := range r.treelets {
		s.Treelets = append(s.Treelets, TreeletStat{
			Leaf:    int(int32(key >> 32)),
			Treelet: int(int32(key)),
			Hits:    c.hits,
			Bytes:   c.bytes,
			Loads:   c.loads,
		})
		s.TreeletHits += c.hits
		s.TreeletBytes += c.bytes
		s.TreeletLoads += c.loads
	}
	sort.Slice(s.Treelets, func(i, j int) bool {
		if s.Treelets[i].Leaf != s.Treelets[j].Leaf {
			return s.Treelets[i].Leaf < s.Treelets[j].Leaf
		}
		return s.Treelets[i].Treelet < s.Treelets[j].Treelet
	})
	for cell, n := range r.cells {
		if n != 0 {
			s.Heatmap = append(s.Heatmap, HeatCell{Cell: uint32(cell), Count: n})
		}
	}
	for name, n := range r.attrs {
		s.Attrs = append(s.Attrs, AttrStat{Name: name, Count: n})
	}
	sort.Slice(s.Attrs, func(i, j int) bool { return s.Attrs[i].Name < s.Attrs[j].Name })
	s.Recent = r.recentLocked()
	return s
}

// WritePrometheus renders the snapshot's series in the Prometheus text
// exposition format, labeled by dataset. Treelet series are per (leaf,
// treelet) — debug-endpoint cardinality, intended for /debug/access rather
// than a fleet-wide scrape.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	ds := s.Dataset
	var err error
	pf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	pf("# TYPE access_queries_total counter\n")
	pf("access_queries_total{dataset=%q} %d\n", ds, s.Queries)
	pf("# TYPE access_treelet_hits_total counter\n")
	pf("access_treelet_hits_total{dataset=%q} %d\n", ds, s.TreeletHits)
	pf("# TYPE access_treelet_bytes_total counter\n")
	pf("access_treelet_bytes_total{dataset=%q} %d\n", ds, s.TreeletBytes)
	pf("# TYPE access_treelet_loads_total counter\n")
	pf("access_treelet_loads_total{dataset=%q} %d\n", ds, s.TreeletLoads)
	if len(s.Treelets) > 0 {
		pf("# TYPE access_treelet_hits counter\n")
		for _, t := range s.Treelets {
			pf("access_treelet_hits{dataset=%q,leaf=\"%d\",treelet=\"%d\"} %d\n", ds, t.Leaf, t.Treelet, t.Hits)
		}
	}
	if len(s.Heatmap) > 0 {
		pf("# TYPE access_heatmap_count counter\n")
		for _, h := range s.Heatmap {
			pf("access_heatmap_count{dataset=%q,cell=\"%d\"} %d\n", ds, h.Cell, h.Count)
		}
	}
	if len(s.Attrs) > 0 {
		pf("# TYPE access_attr_touches_total counter\n")
		for _, a := range s.Attrs {
			pf("access_attr_touches_total{attr=%q,dataset=%q} %d\n", a.Name, ds, a.Count)
		}
	}
	return err
}
