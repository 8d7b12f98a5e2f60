// Package oracle is the reference every read route is tested against: one
// seeded generator of (workload, write config, query) cases and one
// brute-force evaluator that answers a query by scanning the particles that
// were written, never a file. A route — a single file's engine at any worker
// count, a Dataset with any cache budget, the collective read on any rank
// count, batserve over HTTP — passes when Check accepts what it returned
// and every route returns the Same answer; the progressive tiling invariant
// is Same on a route's answer and its concatenated answers to Windows.
package oracle

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"libbat/internal/bat"
	"libbat/internal/geom"
	"libbat/internal/particles"
)

// Row is one particle a route returned: its stored float32 position and,
// when the route returns them, its attribute values (nil: positions only).
type Row struct {
	Pos   [3]float32
	Attrs []float64
}

// Collect returns a visitor that appends every visited particle to into.
func Collect(into *[]Row) bat.Visitor {
	return func(p geom.Vec3, attrs []float64) error {
		*into = append(*into, Row{
			Pos:   [3]float32{float32(p.X), float32(p.Y), float32(p.Z)},
			Attrs: append([]float64(nil), attrs...),
		})
		return nil
	}
}

// RowsOf converts a route's particle set to rows.
func RowsOf(s *particles.Set) []Row {
	out := make([]Row, s.Len())
	for i := range out {
		out[i] = Row{Pos: [3]float32{s.X[i], s.Y[i], s.Z[i]}, Attrs: make([]float64, len(s.Attrs))}
		for a := range s.Attrs {
			out[i].Attrs[a] = s.Attrs[a][i]
		}
	}
	return out
}

// Reference is the brute-force evaluator over the written particles.
type Reference struct {
	all *particles.Set
	// bound is the absolute error a route may show per attribute: the
	// declared bound times the LOD scale, 0 (bit-exact) when lossless.
	bound []float64
	at    map[[3]uint32][]int32 // input rows by position bits
}

func posKey(p [3]float32) [3]uint32 {
	return [3]uint32{math.Float32bits(p[0]), math.Float32bits(p[1]), math.Float32bits(p[2])}
}

// New indexes the particles written as sets (all of one schema) under cfg,
// whose declared bounds say how far a returned attribute may stray.
func New(cfg bat.BuildConfig, sets ...*particles.Set) *Reference {
	all := concat(sets)
	r := &Reference{all: all, bound: cfg.AttrBounds(all.Schema.NumAttrs()), at: make(map[[3]uint32][]int32, all.Len())}
	for a := range r.bound {
		r.bound[a] *= cfg.EffectiveLODScale()
	}
	for i := 0; i < all.Len(); i++ {
		k := posKey([3]float32{all.X[i], all.Y[i], all.Z[i]})
		r.at[k] = append(r.at[k], int32(i))
	}
	return r
}

// inside is a filter's interval test: a NaN value passes its filter, as the
// engine has always let it.
func inside(v, lo, hi float64) bool { return v >= lo && v <= hi || v != v }

// admits reports whether q must return input row i (every route returns
// it) and whether it may. A quality window returns a layout-chosen subset,
// so inside one nothing is a must. A filter must return every particle at
// least a bound inside its interval and none more than a bound outside it.
func (r *Reference) admits(q bat.Query, i int) (must, may bool) {
	quality := q.Quality
	if quality <= 0 {
		quality = 1
	}
	if q.PrevQuality >= quality {
		return false, false
	}
	may = q.Bounds == nil || q.Bounds.Contains(r.all.Position(i))
	must = may && q.PrevQuality <= 0 && quality >= 1
	for _, f := range q.Filters {
		if f.Attr < 0 || f.Attr >= len(r.bound) {
			return false, false
		}
		v, b := r.all.Attrs[f.Attr][i], r.bound[f.Attr]
		must = must && inside(v, f.Min+b, f.Max-b)
		may = may && inside(v, f.Min-b, f.Max+b)
	}
	return must, may
}

// Count returns how many particles q must and may return; a count-only
// route passes when its count lies in [must, may].
func (r *Reference) Count(q bat.Query) (must, may int64) {
	for i := 0; i < r.all.Len(); i++ {
		m, y := r.admits(q, i)
		if m {
			must++
		}
		if y {
			may++
		}
	}
	return must, may
}

// Select returns the particles q must return, in input order: the exact
// answer of a lossless query without a quality window.
func (r *Reference) Select(q bat.Query) *particles.Set {
	var idx []int
	for i := 0; i < r.all.Len(); i++ {
		if must, _ := r.admits(q, i); must {
			idx = append(idx, i)
		}
	}
	return r.all.Select(idx)
}

// agrees reports whether a returned row's attributes are input row i's:
// bit for bit when lossless, within the bound otherwise.
func (r *Reference) agrees(attrs []float64, i int) bool {
	for a, v := range attrs {
		w := r.all.Attrs[a][i]
		switch b := r.bound[a]; {
		case b == 0 && math.Float64bits(v) != math.Float64bits(w):
			return false
		case b > 0 && !(math.Abs(v-w) <= b) && !(v != v && w != w):
			return false
		}
	}
	return true
}

// Check holds got, the particles one route returned for q, against the
// input: every returned particle was written, no written particle is
// returned twice, every particle q must return is there and none it may
// not return is.
func (r *Reference) Check(q bat.Query, got []Row) error {
	used := make([]bool, r.all.Len())
	for _, g := range got {
		i := -1
		for _, j := range r.at[posKey(g.Pos)] {
			if !used[j] && r.agrees(g.Attrs, int(j)) {
				i = int(j)
				break
			}
		}
		if i < 0 {
			return fmt.Errorf("oracle: returned particle at %v with attrs %v was never written or is returned twice", g.Pos, g.Attrs)
		}
		used[i] = true
	}
	for i, u := range used {
		must, may := r.admits(q, i)
		if must && !u {
			return fmt.Errorf("oracle: particle at %v with attrs %v matches the query but is not among the %d returned",
				r.all.Position(i), r.row(i), len(got))
		}
		if u && !may {
			return fmt.Errorf("oracle: particle at %v with attrs %v does not match the query but was returned",
				r.all.Position(i), r.row(i))
		}
	}
	return nil
}

func (r *Reference) row(i int) []float64 {
	out := make([]float64, len(r.all.Attrs))
	for a := range out {
		out[a] = r.all.Attrs[a][i]
	}
	return out
}

// Windows splits q's quality window (PrevQuality, Quality] — (0, 1] when q
// sets no quality — into n equal progressive windows. A route's answers to
// them concatenated must be the Same as its answer to q: the windows tile
// it exactly, with no particle twice (the paper's §V-B LOD claim).
func Windows(q bat.Query, n int) []bat.Query {
	lo, hi := q.PrevQuality, q.Quality
	if hi <= 0 {
		hi = 1
	}
	edge := func(i int) float64 {
		if i == n {
			return hi
		}
		return lo + (hi-lo)*float64(i)/float64(n)
	}
	out := make([]bat.Query, n)
	for i := range out {
		out[i] = bat.Query{Bounds: q.Bounds, Filters: q.Filters, PrevQuality: edge(i), Quality: edge(i + 1)}
	}
	return out
}

// compareRows orders rows by position bits, then attribute bits.
func compareRows(a, b Row) int {
	for k := range a.Pos {
		if c := cmp.Compare(math.Float32bits(a.Pos[k]), math.Float32bits(b.Pos[k])); c != 0 {
			return c
		}
	}
	for k := 0; k < len(a.Attrs) && k < len(b.Attrs); k++ {
		if c := cmp.Compare(math.Float64bits(a.Attrs[k]), math.Float64bits(b.Attrs[k])); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a.Attrs), len(b.Attrs))
}

// Same reports whether two answers hold the same rows bit for bit, in any
// order: what two routes to one query, or a query and its tiled windows,
// must return even where Check leaves the choice open (which particles a
// quality window takes, which edge particles a lossy filter keeps).
func Same(a, b []Row) error {
	sa, sb := slices.Clone(a), slices.Clone(b)
	slices.SortFunc(sa, compareRows)
	slices.SortFunc(sb, compareRows)
	for i := 0; i < len(sa) && i < len(sb); i++ {
		if compareRows(sa[i], sb[i]) != 0 {
			return fmt.Errorf("oracle: answers of %d and %d rows differ at sorted row %d: %v %v against %v %v",
				len(sa), len(sb), i, sa[i].Pos, sa[i].Attrs, sb[i].Pos, sb[i].Attrs)
		}
	}
	if len(sa) != len(sb) {
		return fmt.Errorf("oracle: answers of %d and %d rows differ in length", len(sa), len(sb))
	}
	return nil
}

// Named is a generated query with the kind it exercises.
type Named struct {
	Name  string
	Query bat.Query
}

// Queries draws one query of each kind over the written particles: "full",
// "box" (around a written particle, so never empty), "filter" on attribute
// 0 (around a written value), "box+filter" (both around the same particle)
// and "quality window".
func (r *Reference) Queries(seed int64) []Named {
	rng := rand.New(rand.NewSource(seed))
	ext, rg := r.all.Bounds(), r.all.AttrRange(0)
	box := func(i int) *geom.Box {
		half := ext.Size().Scale(0.1 + 0.2*rng.Float64())
		p := r.all.Position(i)
		b := geom.NewBox(p.Sub(half), p.Add(half))
		return &b
	}
	filter := func(i int) []bat.AttrFilter {
		v, half := r.all.Attrs[0][i], (rg.Max-rg.Min)*(0.05+0.2*rng.Float64())
		return []bat.AttrFilter{{Attr: 0, Min: v - half, Max: v + half}}
	}
	pick := func() int { return rng.Intn(r.all.Len()) }
	i := pick()
	prev := 0.5 * rng.Float64()
	return []Named{
		{"full", bat.Query{}},
		{"box", bat.Query{Bounds: box(pick())}},
		{"filter", bat.Query{Filters: filter(pick())}},
		{"box+filter", bat.Query{Bounds: box(i), Filters: filter(i)}},
		{"quality window", bat.Query{PrevQuality: prev, Quality: prev + (1-prev)*(0.2+0.6*rng.Float64())}},
	}
}
