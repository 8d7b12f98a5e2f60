package access

import (
	"strings"
	"testing"
)

// goldenSnapshot is a fully populated snapshot with deterministic fields
// (WallUnix 0, fixed timestamps).
func goldenSnapshot() Snapshot {
	return Snapshot{
		Dataset:      "golden-ds",
		Bounds:       [6]float64{0, 0, 0, 2, 1, 1},
		GridBits:     4,
		Queries:      3,
		TreeletHits:  4,
		TreeletBytes: 4096,
		TreeletLoads: 2,
		Treelets: []TreeletStat{
			{Leaf: 0, Treelet: 1, Hits: 3, Bytes: 3072, Loads: 1},
			{Leaf: 1, Treelet: 0, Hits: 1, Bytes: 1024, Loads: 1},
		},
		Heatmap: []HeatCell{{Cell: 0, Count: 3}, {Cell: 3584, Count: 1}},
		Attrs:   []AttrStat{{Name: "mass", Count: 2}},
		Recent: []QueryRecord{
			{UnixNano: 1700000000000000001, Source: "test", Box: &[6]float64{0, 0, 0, 1, 1, 1},
				Filters: []FilterRange{{Attr: "mass", Min: 0, Max: 10}}, Quality: 1,
				Workers: 4, Treelets: 2, Particles: 100, Seconds: 0.25, CacheHitRatio: 0.5},
		},
	}
}

func TestSnapshotPrometheus(t *testing.T) {
	var sb strings.Builder
	if err := goldenSnapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`access_queries_total{dataset="golden-ds"} 3`,
		`access_treelet_hits_total{dataset="golden-ds"} 4`,
		`access_treelet_hits{dataset="golden-ds",leaf="0",treelet="1"} 3`,
		`access_heatmap_count{dataset="golden-ds",cell="3584"} 1`,
		`access_attr_touches_total{attr="mass",dataset="golden-ds"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}
