package bat_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"libbat/internal/bat"
	"libbat/internal/geom"
	"libbat/internal/oracle"
)

// queryStatsFile pins what the shallow tree and the treelets prune.
const queryStatsFile = "query_stats.txt"

// TestQueryStatsPinned holds the serial engine's traversal stats — Visited,
// FalsePositives, PrunedSubtrees and Treelets; Loads is the cache's history
// — to a checked-in table over the 20 oracle builds and the deep clustered
// build of TestSpatialQueryDeepShallowTree, for each build's drawn queries
// and eight seeded boxes from tight to wide. A change to how the shallow
// tree is derived or walked that prunes one subtree more or less fails it.
// BAT_REGEN_QUERYSTATS=1 rewrites the table.
func TestQueryStatsPinned(t *testing.T) {
	var rows []string
	table := func(name string, b *bat.Built, ref *oracle.Reference, domain geom.Box, seed int64) {
		f, err := bat.FromBuffer(b.Buf)
		if err != nil {
			t.Fatal(err)
		}
		qs := ref.Queries(seed)
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 8; i++ {
			ext := domain.Size()
			lo := domain.Lower.Add(geom.V3(r.Float64()*ext.X, r.Float64()*ext.Y, r.Float64()*ext.Z))
			box := geom.NewBox(lo, lo.Add(ext.Scale(0.01+0.4*float64(i)/7)))
			qs = append(qs, oracle.Named{Name: fmt.Sprint("box ", i), Query: bat.Query{Bounds: &box}})
		}
		for _, nq := range qs {
			st, err := f.Query(context.Background(), nq.Query, bat.QueryConfig{}, func(geom.Vec3, []float64) error { return nil })
			if err != nil {
				t.Fatalf("%s %s: %v", name, nq.Name, err)
			}
			rows = append(rows, fmt.Sprintf("%s %s: visited %d false-positives %d pruned %d treelets %d",
				name, nq.Name, st.Visited, st.FalsePositives, st.PrunedSubtrees, st.Treelets))
		}
	}
	for seed := int64(0); seed < 20; seed++ {
		c := oracle.Generate(seed)
		b, err := bat.Build(c.All(), c.Domain(), c.Build)
		if err != nil {
			t.Fatal(err)
		}
		table(fmt.Sprint("oracle ", seed), b, c.Reference(), c.Domain(), seed)
	}
	set, domain := bat.ClusteredSet(30000, 31)
	cfg := bat.DefaultBuildConfig()
	cfg.MaxLeafSize, cfg.LODPerNode = 4, 4
	b, err := bat.Build(set, domain, cfg)
	if err != nil {
		t.Fatal(err)
	}
	table("deep", b, oracle.New(cfg, set), domain, 31)

	got := strings.Join(rows, "\n") + "\n"
	path := filepath.Join("testdata", queryStatsFile)
	if os.Getenv("BAT_REGEN_QUERYSTATS") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with BAT_REGEN_QUERYSTATS=1)", err)
	}
	wantRows := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantRows) != len(rows) {
		t.Fatalf("%d rows, %s pins %d", len(rows), queryStatsFile, len(wantRows))
	}
	for i := range rows {
		if rows[i] != wantRows[i] {
			t.Errorf("got  %s\nwant %s", rows[i], wantRows[i])
		}
	}
}

// TestNilVisitorCounts: a nil visitor counts without delivering, and its
// query reports the stats a counting visitor's does (Loads aside, the cache's
// history), over the oracle's cases and drawn queries, serially and on two
// and four workers.
func TestNilVisitorCounts(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		c := oracle.Generate(seed)
		b, err := bat.Build(c.All(), c.Domain(), c.Build)
		if err != nil {
			t.Fatal(err)
		}
		f, err := bat.FromBuffer(b.Buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, nq := range c.Reference().Queries(seed) {
			for _, cfg := range []bat.QueryConfig{{Workers: 1}, {Workers: 2}, {Workers: 4}} {
				var n int64
				want, err := f.Query(context.Background(), nq.Query, cfg, func(geom.Vec3, []float64) error { n++; return nil })
				if err != nil {
					t.Fatal(err)
				}
				got, err := f.Query(context.Background(), nq.Query, cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				want.Loads, got.Loads = 0, 0
				if got != want || got.Visited != n {
					t.Fatalf("case %d %s %+v: nil visitor %+v, counting visitor %+v after %d visits", seed, nq.Name, cfg, got, want, n)
				}
			}
		}
	}
}
