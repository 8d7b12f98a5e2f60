package libbat

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"
)

// routePoint is one returned particle in comparable form.
type routePoint struct {
	pos   [3]float32
	attrs [2]float64
}

func sortPoints(pts []routePoint) {
	sort.Slice(pts, func(i, j int) bool {
		a, b := pts[i], pts[j]
		for k := range a.pos {
			if a.pos[k] != b.pos[k] {
				return a.pos[k] < b.pos[k]
			}
		}
		return a.attrs[1] < b.attrs[1]
	})
}

func collectPoints(into *[]routePoint) Visitor {
	return func(p Vec3, attrs []float64) error {
		*into = append(*into, routePoint{
			pos:   [3]float32{float32(p.X), float32(p.Y), float32(p.Z)},
			attrs: [2]float64{attrs[0], attrs[1]},
		})
		return nil
	}
}

func samePoints(a, b []routePoint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRouteAgreement is the first slice of ROADMAP's "one oracle, every
// path": every route to an answer — Dataset.QueryCtx, the collective
// ReadQueryCtx on 1 and 4 ranks — returns the same multiset, and that
// multiset is what a brute-force pass over the written input allows. Under
// the lossy v3 codec "allows" means within the declared error bounds:
// attribute values may differ by the bound, and a filter must return every
// particle at least a bound inside its interval and none more than a bound
// outside it.
func TestRouteAgreement(t *testing.T) {
	box := NewBox(V3(0.5, 0.5, 0), V3(2.5, 1.5, 1))
	temp := []AttrFilter{{Attr: 0, Min: 100, Max: 220}}
	queries := []struct {
		name string
		q    Query
	}{
		{"full", Query{}},
		{"box", Query{Bounds: &box}},
		{"filter", Query{Filters: temp}},
		{"box+filter", Query{Bounds: &box, Filters: temp}},
		{"quality window", Query{PrevQuality: 0.3, Quality: 0.7}},
	}

	// The brute-force side: the input particles by position (float32
	// positions are stored exactly, and the seeded positions are unique).
	input := map[[3]float32][2]float64{}
	for r := 0; r < testRanks; r++ {
		s, _ := testRankSet(r)
		for i := 0; i < s.Len(); i++ {
			input[[3]float32{s.X[i], s.Y[i], s.Z[i]}] = [2]float64{s.Attrs[0][i], s.Attrs[1][i]}
		}
	}
	if len(input) != testRanks*testPerRank {
		t.Fatalf("seeded positions collide: %d unique of %d", len(input), testRanks*testPerRank)
	}

	// The "v2" case is a default (lossless) write, the "v3" case one with
	// declared error bounds.
	for _, ver := range []string{"v2", "v3"} {
		t.Run(ver, func(t *testing.T) {
			cfg := DefaultWriteConfig(20 * 1024)
			if ver == "v3" {
				cfg.BAT.Compress = true
				cfg.BAT.AttrErrorBounds = []float64{1e-3, 1e-3}
			}
			store := writeTestDatasetCfg(t, "ra", cfg)
			ds, err := OpenDataset(store, "ra")
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			var bound [2]float64
			if cm := ds.Compression(); cm != nil {
				copy(bound[:], cm.ErrorBounds)
			} else if ver == "v3" {
				t.Fatal("v3 dataset declares no compression")
			}

			for _, tc := range queries {
				t.Run(tc.name, func(t *testing.T) {
					var want []routePoint
					if err := ds.QueryCtx(context.Background(), tc.q, collectPoints(&want)); err != nil {
						t.Fatal(err)
					}
					sortPoints(want)
					if len(want) == 0 {
						t.Fatal("query returned nothing; the row tests nothing")
					}

					for _, ranks := range []int{1, 4} {
						err := Run(ranks, func(c *Comm) error {
							set, _, err := ReadQueryCtx(context.Background(), c, store, "ra", tc.q)
							if err != nil {
								return err
							}
							got := make([]routePoint, set.Len())
							for i := range got {
								got[i] = routePoint{
									pos:   [3]float32{set.X[i], set.Y[i], set.Z[i]},
									attrs: [2]float64{set.Attrs[0][i], set.Attrs[1][i]},
								}
							}
							sortPoints(got)
							if !samePoints(got, want) {
								return fmt.Errorf("rank %d of %d returned %d particles that are not the Dataset route's %d",
									c.Rank(), ranks, len(got), len(want))
							}
							return nil
						})
						if err != nil {
							t.Error(err)
						}
					}

					checkAgainstInput(t, tc.q, want, input, bound)
				})
			}
		})
	}
}

// checkAgainstInput holds one route's answer against the written input.
func checkAgainstInput(t *testing.T, q Query, got []routePoint, input map[[3]float32][2]float64, bound [2]float64) {
	t.Helper()
	// A quality window returns a layout-chosen subset, so brute force can
	// only bound it from above.
	window := q.PrevQuality > 0 || (q.Quality > 0 && q.Quality < 1)
	seen := make(map[[3]float32]bool, len(got))
	for _, p := range got {
		in, ok := input[p.pos]
		if !ok {
			t.Fatalf("returned particle at %v was never written", p.pos)
		}
		if seen[p.pos] {
			t.Fatalf("particle at %v returned twice", p.pos)
		}
		seen[p.pos] = true
		for a := range in {
			if math.Abs(p.attrs[a]-in[a]) > bound[a] {
				t.Fatalf("particle at %v: attr %d = %g, written %g, bound %g", p.pos, a, p.attrs[a], in[a], bound[a])
			}
		}
	}
	for pos, in := range input {
		inBox := q.Bounds == nil || q.Bounds.Contains(V3(float64(pos[0]), float64(pos[1]), float64(pos[2])))
		must, may := inBox && !window, inBox
		for _, f := range q.Filters {
			v, b := in[f.Attr], bound[f.Attr]
			must = must && v >= f.Min+b && v <= f.Max-b
			may = may && v >= f.Min-b && v <= f.Max+b
		}
		if must && !seen[pos] {
			t.Fatalf("particle at %v (attrs %v) matches the query but was not returned", pos, in)
		}
		if !may && seen[pos] {
			t.Fatalf("particle at %v (attrs %v) does not match the query but was returned", pos, in)
		}
	}
}
