package bat

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"libbat/internal/geom"
	"libbat/internal/particles"
)

// coincidentSet builds the degenerate corpus: every particle at the same
// point, so treelet splits cannot separate them spatially and the multiset
// comparison must rely on attribute identity.
func coincidentSet(n int) (*particles.Set, geom.Box) {
	s := particles.NewSet(particles.NewSchema("id"), n)
	for i := 0; i < n; i++ {
		s.Append(geom.V3(0.5, 0.5, 0.5), []float64{float64(i)})
	}
	return s, geom.NewBox(geom.V3(0, 0, 0), geom.V3(1, 1, 1))
}

type visitRec struct {
	p     geom.Vec3
	attrs []float64
}

// key canonicalizes a visit for multiset comparison.
func (v visitRec) key() string {
	return fmt.Sprintf("%.17g,%.17g,%.17g|%v", v.p.X, v.p.Y, v.p.Z, v.attrs)
}

func collectVisits(t *testing.T, f *File, q Query, cfg QueryConfig) ([]visitRec, QueryStats) {
	t.Helper()
	var out []visitRec
	stats, err := f.QueryWithConfig(q, cfg, func(p geom.Vec3, attrs []float64) error {
		a := make([]float64, len(attrs))
		copy(a, attrs)
		out = append(out, visitRec{p: p, attrs: a})
		return nil
	})
	if err != nil {
		t.Fatalf("QueryWithConfig(%+v): %v", cfg, err)
	}
	return out, stats
}

func sortedKeys(vs []visitRec) []string {
	keys := make([]string, len(vs))
	for i, v := range vs {
		keys[i] = v.key()
	}
	sort.Strings(keys)
	return keys
}

func equalMultiset(t *testing.T, name string, serial, parallel []visitRec) {
	t.Helper()
	a, b := sortedKeys(serial), sortedKeys(parallel)
	if len(a) != len(b) {
		t.Fatalf("%s: serial visited %d particles, parallel %d", name, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: multiset mismatch at sorted position %d:\n  serial   %s\n  parallel %s", name, i, a[i], b[i])
		}
	}
}

// TestConcurrentQuerySharedFile is the regression test for the read-path
// data race: many goroutines querying one File concurrently, each with a
// different engine configuration. Run under -race (check.sh does) this
// fails on the pre-cache reader and passes with the treelet cache.
func TestConcurrentQuerySharedFile(t *testing.T) {
	s, domain := randomSet(4000, 11)
	f, _ := buildAndOpen(t, s, domain, DefaultBuildConfig())
	defer f.Close()

	box := geom.NewBox(geom.V3(0.2, 0.2, 0.2), geom.V3(0.8, 0.8, 0.8))
	want, err := f.CountMatching(Query{Bounds: &box})
	if err != nil {
		t.Fatal(err)
	}

	cfgs := []QueryConfig{
		{Workers: 1},
		{Workers: 2},
		{Workers: 4, Ordered: true},
		{Workers: 4},
		{Workers: -1},
	}
	const perCfg = 3
	var wg sync.WaitGroup
	errs := make(chan error, len(cfgs)*perCfg)
	for _, cfg := range cfgs {
		for r := 0; r < perCfg; r++ {
			wg.Add(1)
			go func(cfg QueryConfig) {
				defer wg.Done()
				var n int64
				_, err := f.QueryWithConfig(Query{Bounds: &box}, cfg, func(geom.Vec3, []float64) error {
					n++
					return nil
				})
				if err != nil {
					errs <- err
					return
				}
				if n != want {
					errs <- fmt.Errorf("cfg %+v visited %d particles, want %d", cfg, n, want)
				}
			}(cfg)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestParallelMatchesSerialMultiset checks the core acceptance criterion:
// for every corpus shape and query shape, Workers=N visits exactly the
// same particle multiset as Workers=1, with identical traversal stats.
func TestParallelMatchesSerialMultiset(t *testing.T) {
	filterBox := geom.NewBox(geom.V3(0.1, 0.1, 0.1), geom.V3(0.6, 0.7, 0.9))
	corpora := []struct {
		name   string
		set    *particles.Set
		domain geom.Box
		q      []Query
	}{
		{name: "uniform", q: []Query{
			{},
			{Bounds: &filterBox},
			{Filters: []AttrFilter{{Attr: 0, Min: 10, Max: 60}}},
			{Bounds: &filterBox, Filters: []AttrFilter{{Attr: 1, Min: 100, Max: 2800}}},
			{PrevQuality: 0.2, Quality: 0.7},
		}},
		{name: "clustered", q: []Query{
			{},
			{Bounds: &filterBox},
			{Filters: []AttrFilter{{Attr: 0, Min: 0.1, Max: 1.2}}},
			{Quality: 0.5},
		}},
		{name: "coincident", q: []Query{
			{},
			{Filters: []AttrFilter{{Attr: 0, Min: 100, Max: 900}}},
			{Quality: 0.4},
		}},
	}
	corpora[0].set, corpora[0].domain = randomSet(5000, 7)
	corpora[1].set, corpora[1].domain = clusteredSet(5000, 8)
	corpora[2].set, corpora[2].domain = coincidentSet(2000)

	for _, c := range corpora {
		t.Run(c.name, func(t *testing.T) {
			f, _ := buildAndOpen(t, c.set, c.domain, DefaultBuildConfig())
			defer f.Close()
			for qi, q := range c.q {
				serial, sStats := collectVisits(t, f, q, QueryConfig{Workers: 1})
				for _, cfg := range []QueryConfig{
					{Workers: 2},
					{Workers: 4},
					{Workers: 4, Ordered: true},
					{Workers: 8},
				} {
					name := fmt.Sprintf("query %d cfg %+v", qi, cfg)
					par, pStats := collectVisits(t, f, q, cfg)
					equalMultiset(t, name, serial, par)
					if sStats != pStats {
						t.Fatalf("%s: stats diverge: serial %+v parallel %+v", name, sStats, pStats)
					}
				}
			}
		})
	}
}

// TestOrderedParallelPreservesOrder: Ordered delivery must reproduce the
// serial visit sequence exactly, not just the multiset.
func TestOrderedParallelPreservesOrder(t *testing.T) {
	s, domain := randomSet(6000, 21)
	f, _ := buildAndOpen(t, s, domain, DefaultBuildConfig())
	defer f.Close()

	for _, q := range []Query{{}, {Quality: 0.6}} {
		serial, _ := collectVisits(t, f, q, QueryConfig{Workers: 1})
		ordered, _ := collectVisits(t, f, q, QueryConfig{Workers: 4, Ordered: true})
		if len(serial) != len(ordered) {
			t.Fatalf("serial visited %d, ordered parallel %d", len(serial), len(ordered))
		}
		for i := range serial {
			if serial[i].key() != ordered[i].key() {
				t.Fatalf("visit %d: serial %s, ordered parallel %s", i, serial[i].key(), ordered[i].key())
			}
		}
	}
}

// TestParallelVisitorError: a visitor error aborts a query promptly at any
// worker count, is returned verbatim, leaves no goroutines wedged (the race
// detector and test timeout police that), and QueryStats.Visited counts the
// particles delivered — not the ones collected ahead of the visitor.
func TestParallelVisitorError(t *testing.T) {
	s, domain := randomSet(4000, 31)
	f, _ := buildAndOpen(t, s, domain, DefaultBuildConfig())
	defer f.Close()

	boom := errors.New("stop right there")
	for _, cfg := range []QueryConfig{
		{Workers: 1},
		{Workers: 4},
		{Workers: 4, Ordered: true},
	} {
		var n int
		st, err := f.QueryWithConfig(Query{}, cfg, func(geom.Vec3, []float64) error {
			n++
			if n == 100 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("cfg %+v: got err %v, want %v", cfg, err, boom)
		}
		if n != 100 {
			t.Fatalf("cfg %+v: visitor called %d times after aborting at 100", cfg, n)
		}
		if st.Visited != 100 {
			t.Fatalf("cfg %+v: Visited = %d, want the 100 particles delivered", cfg, st.Visited)
		}
	}
}
