package oracle

import (
	"math"
	"reflect"
	"testing"

	"libbat/internal/bat"
	"libbat/internal/geom"
)

// TestCheckCatchesWrongAnswers: Check accepts the exact answer in any order
// and rejects each way a route can be wrong.
func TestCheckCatchesWrongAnswers(t *testing.T) {
	w := Workload{Ranks: 2, PerRank: 300}
	ref := New(bat.DefaultBuildConfig(), w.Sets()...)
	box := geom.NewBox(geom.V3(0.2, 0.2, 0.2), geom.V3(1.6, 0.8, 0.8))
	q := bat.Query{Bounds: &box, Filters: []bat.AttrFilter{{Attr: 0, Min: 30, Max: 120}}}
	exact := RowsOf(ref.Select(q))
	if len(exact) == 0 {
		t.Fatal("the query selects nothing; the test tests nothing")
	}
	reversed := make([]Row, len(exact))
	for i, r := range exact {
		reversed[len(exact)-1-i] = r
	}
	if err := ref.Check(q, reversed); err != nil {
		t.Fatalf("exact answer rejected: %v", err)
	}
	if must, may := ref.Count(q); must != int64(len(exact)) || may != must {
		t.Fatalf("lossless Count = [%d, %d], want %d both", must, may, len(exact))
	}

	outside := RowsOf(ref.Select(bat.Query{Filters: []bat.AttrFilter{{Attr: 0, Min: 150, Max: 200}}}))[0]
	nudged := exact[0]
	nudged.Attrs = append([]float64(nil), nudged.Attrs...)
	nudged.Attrs[1] = math.Nextafter(nudged.Attrs[1], math.Inf(1))
	foreign := Row{Pos: [3]float32{9, 9, 9}, Attrs: []float64{0, 0}}
	for name, got := range map[string][]Row{
		"dropped":         exact[1:],
		"duplicated":      append(append([]Row(nil), exact...), exact[0]),
		"never written":   append(append([]Row(nil), exact...), foreign),
		"not selected":    append(append([]Row(nil), exact...), outside),
		"attribute moved": append([]Row{nudged}, exact[1:]...),
	} {
		if err := ref.Check(q, got); err == nil {
			t.Errorf("%s: Check accepted a wrong answer", name)
		}
	}

	// Positions-only rows are checked on positions alone.
	pos := make([]Row, len(exact))
	for i, r := range exact {
		pos[i] = Row{Pos: r.Pos}
	}
	if err := ref.Check(q, pos); err != nil {
		t.Errorf("positions-only answer rejected: %v", err)
	}
	// A window may return any subset of the unwindowed answer, but nothing
	// else; its windows concatenated must be the whole answer.
	win := Windows(q, 3)
	if err := ref.Check(win[1], exact[:len(exact)/2]); err != nil {
		t.Errorf("window subset rejected: %v", err)
	}
	if err := ref.Check(win[1], []Row{outside}); err == nil {
		t.Error("window accepted a particle outside the query")
	}
	if win[0].PrevQuality != 0 || win[2].Quality != 1 || win[1].Bounds != q.Bounds {
		t.Errorf("windows %+v do not tile (0, 1] of the query", win)
	}
	// A windowed query's windows tile its own window, edge to edge.
	win = Windows(bat.Query{PrevQuality: 0.3, Quality: 0.7}, 4)
	for i := 1; i < len(win); i++ {
		if win[i].PrevQuality != win[i-1].Quality {
			t.Errorf("window %d starts at %g, window %d ends at %g", i, win[i].PrevQuality, i-1, win[i-1].Quality)
		}
	}
	if win[0].PrevQuality != 0.3 || win[3].Quality != 0.7 {
		t.Errorf("windows %+v do not tile (0.3, 0.7]", win)
	}

	// Same is a bit-exact multiset comparison.
	if err := Same(exact, reversed); err != nil {
		t.Errorf("Same rejected a reordering: %v", err)
	}
	for name, got := range map[string][]Row{
		"dropped":         exact[1:],
		"one for another": append([]Row{exact[1]}, exact[1:]...),
		"attribute moved": append([]Row{nudged}, exact[1:]...),
	} {
		if err := Same(exact, got); err == nil {
			t.Errorf("%s: Same accepted a different answer", name)
		}
	}
}

// TestCheckLossyBrackets: under declared bounds an attribute may stray by
// the bound times the LOD scale, and a filter's edge particles may go
// either way.
func TestCheckLossyBrackets(t *testing.T) {
	w := Workload{Ranks: 1, PerRank: 500}
	cfg := bat.DefaultBuildConfig()
	cfg.Compress, cfg.AttrErrorBounds, cfg.LODErrorScale = true, []float64{2, 0}, 2
	ref := New(cfg, w.Sets()...)
	q := bat.Query{Filters: []bat.AttrFilter{{Attr: 0, Min: 20, Max: 60}}}
	must, may := ref.Count(q)
	if must >= may {
		t.Fatalf("lossy Count = [%d, %d], want a bracket", must, may)
	}
	rows := RowsOf(ref.Select(q))
	rows[0].Attrs[0] += 3.9
	if err := ref.Check(q, rows); err != nil {
		t.Errorf("value within bound x scale rejected: %v", err)
	}
	rows[0].Attrs[0] += 0.2
	if err := ref.Check(q, rows); err == nil {
		t.Error("value beyond bound x scale accepted")
	}
	// Compress off: the bounds are not applied, so nothing may stray.
	cfg.Compress = false
	if must, may := New(cfg, w.Sets()...).Count(q); must != may {
		t.Errorf("undeclared bounds bracket the count: [%d, %d]", must, may)
	}
}

// TestGenerateIsSeeded: a seed names one case, its world and its queries.
func TestGenerateIsSeeded(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		a, b := Generate(seed), Generate(seed)
		if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a.All(), b.All()) {
			t.Fatalf("seed %d generated two different cases", seed)
		}
		if a.All().Len() != a.Ranks*a.PerRank || !a.Domain().ContainsBox(a.All().Bounds()) {
			t.Fatalf("seed %d: %d particles outside domain %v", seed, a.All().Len(), a.Domain())
		}
		ref := a.Reference()
		if !reflect.DeepEqual(ref.Queries(seed), ref.Queries(seed)) {
			t.Fatalf("seed %d drew two different query sets", seed)
		}
		for _, nq := range ref.Queries(seed)[1:4] {
			if must, _ := ref.Count(nq.Query); must == 0 && !a.Build.Compress {
				t.Errorf("seed %d: generated %s query selects nothing", seed, nq.Name)
			}
		}
	}
}
