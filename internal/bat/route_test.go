package bat_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"libbat/internal/bat"
	"libbat/internal/geom"
	"libbat/internal/oracle"
	"libbat/internal/particles"
)

// fileRoute is one way to ask a built file: an engine schedule over a
// treelet cache. A route without a file asks a new one on its own unbounded
// cache each time, so every ask is cold.
type fileRoute struct {
	name string
	f    *bat.File
	cfg  bat.QueryConfig
}

// fileRoutes are every route to an answer from one built file.
type fileRoutes struct {
	f      *bat.File // on its own unbounded cache
	b      *bat.Built
	ref    *oracle.Reference
	routes []fileRoute
}

// buildRoutes builds set under cfg. The routes are the engine serially over
// the file's own unbounded cache, on 2, 4 and 8 workers over a fresh
// unbounded cache per ask, so their helpers load, and serially and on 4
// workers over a cache with a one-byte budget, where every lookup evicts the
// rest.
func buildRoutes(t *testing.T, set *particles.Set, domain geom.Box, cfg bat.BuildConfig) *fileRoutes {
	t.Helper()
	b, err := bat.Build(set, domain, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := bat.FromBuffer(b.Buf)
	if err != nil {
		t.Fatal(err)
	}
	tight := bat.NewCache()
	tight.SetLimit(1)
	bounded, err := bat.DecodeLeaf(context.Background(), bytes.NewReader(b.Buf), int64(len(b.Buf)), tight, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &fileRoutes{f: f, b: b, ref: oracle.New(cfg, set), routes: []fileRoute{
		{"unbounded, serial", f, bat.QueryConfig{Workers: 1}},
		{"cold unbounded, 2 workers", nil, bat.QueryConfig{Workers: 2}},
		{"cold unbounded, 4 workers", nil, bat.QueryConfig{Workers: 4}},
		{"cold unbounded, 8 workers", nil, bat.QueryConfig{Workers: 8}},
		{"one-byte cache, serial", bounded, bat.QueryConfig{Workers: 1}},
		{"one-byte cache, 4 workers", bounded, bat.QueryConfig{Workers: 4}},
	}}
}

// check requires, for each query, every route to return the serial route's
// answer, in its order, with its traversal stats, each route's answers to
// the query's progressive windows together to be that same answer, and
// holds the answer and CountMatching against the oracle. Loads is not a
// traversal stat but the route's cache history: it is held to Treelets on
// the cold routes, to 0 on the serial route's re-ask, whose first ask filled
// its cache with the query's treelets, and to 0 <= Loads <= Treelets on the
// one-byte cache.
func (fr *fileRoutes) check(t *testing.T, windows int, queries ...bat.Query) {
	t.Helper()
	ask := func(r fileRoute, q bat.Query) ([]oracle.Row, bat.QueryStats) {
		f := r.f
		if f == nil {
			var err error
			f, err = bat.DecodeLeaf(context.Background(), bytes.NewReader(fr.b.Buf), int64(len(fr.b.Buf)), bat.NewCache(), 0)
			if err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
		}
		var rows []oracle.Row
		st, err := f.Query(context.Background(), q, r.cfg, oracle.Collect(&rows))
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		return rows, st
	}
	// traversal drops Loads, the one field the cache's history sets.
	traversal := func(st bat.QueryStats) bat.QueryStats {
		st.Loads = 0
		return st
	}
	for qi, q := range queries {
		serial, serialStats := ask(fr.routes[0], q)
		if err := fr.ref.Check(q, serial); err != nil {
			t.Fatalf("query %d %+v: %v", qi, q, err)
		}
		for _, r := range fr.routes {
			rows, st := ask(r, q)
			if st.Loads < 0 || st.Loads > st.Treelets || r.f == nil && st.Loads != st.Treelets || r.f == fr.f && st.Loads != 0 {
				t.Fatalf("query %d %+v, %s: %d loads of %d treelets", qi, q, r.name, st.Loads, st.Treelets)
			}
			if traversal(st) != traversal(serialStats) {
				t.Fatalf("query %d %+v, %s: stats %+v, serial %+v", qi, q, r.name, st, serialStats)
			}
			if !reflect.DeepEqual(rows, serial) {
				t.Fatalf("query %d %+v, %s: delivery order differs from the serial route's", qi, q, r.name)
			}
			var tiled []oracle.Row
			for _, w := range oracle.Windows(q, windows) {
				rows, _ := ask(r, w)
				tiled = append(tiled, rows...)
			}
			if err := oracle.Same(rows, tiled); err != nil {
				t.Fatalf("query %d %+v, %s: %d windows do not tile it: %v", qi, q, r.name, windows, err)
			}
		}
		n, err := fr.f.CountMatching(q)
		if must, may := fr.ref.Count(q); err != nil || n < must || n > may {
			t.Fatalf("query %d %+v: CountMatching = %d, %v; oracle allows [%d, %d]", qi, q, n, err, must, may)
		}
	}
}

// checkFile builds set under cfg and checks every query on every route,
// tiling each over four windows. It returns the file on its unbounded cache.
func checkFile(t *testing.T, set *particles.Set, domain geom.Box, cfg bat.BuildConfig, queries ...bat.Query) (*bat.File, *bat.Built) {
	t.Helper()
	fr := buildRoutes(t, set, domain, cfg)
	fr.check(t, 4, queries...)
	return fr.f, fr.b
}

// randomBoxes draws n boxes with seeded lower corners in the unit cube and
// sides from size.
func randomBoxes(seed int64, n int, size func(r *rand.Rand) geom.Vec3) []bat.Query {
	r := rand.New(rand.NewSource(seed))
	out := make([]bat.Query, n)
	for i := range out {
		lo := geom.V3(r.Float64(), r.Float64(), r.Float64())
		box := geom.NewBox(lo, lo.Add(size(r)))
		out[i] = bat.Query{Bounds: &box}
	}
	return out
}

// TestQueryQuick runs the generator's cases through every file route: each
// case's world as one file under its build config, each of its drawn
// queries.
func TestQueryQuick(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		c := oracle.Generate(seed)
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			var qs []bat.Query
			for _, nq := range c.Reference().Queries(seed) {
				qs = append(qs, nq.Query)
			}
			checkFile(t, c.All(), c.Domain(), c.Build, qs...)
		})
	}
}

func TestRoundTripAllParticles(t *testing.T) {
	set, domain := bat.RandomSet(5000, 2)
	f, b := checkFile(t, set, domain, bat.DefaultBuildConfig(), bat.Query{})
	if f.NumParticles != 5000 || b.Stats.NumParticles != 5000 {
		t.Fatalf("NumParticles = %d, stats %d", f.NumParticles, b.Stats.NumParticles)
	}
	got, err := f.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.New(bat.DefaultBuildConfig(), set).Check(bat.Query{}, oracle.RowsOf(got)); err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
}

func TestSpatialQueryMatchesBruteForce(t *testing.T) {
	set, domain := bat.ClusteredSet(8000, 4)
	cfg := bat.DefaultBuildConfig()
	cfg.MaxLeafSize = 32 // deeper trees exercise more traversal
	checkFile(t, set, domain, cfg, randomBoxes(99, 20, func(r *rand.Rand) geom.Vec3 {
		return geom.V3(r.Float64()*0.4, r.Float64()*0.4, r.Float64()*0.4)
	})...)
}

func TestAttributeQueryMatchesBruteForce(t *testing.T) {
	set, domain := bat.RandomSet(6000, 5)
	r := rand.New(rand.NewSource(7))
	qs := make([]bat.Query, 20)
	for i := range qs {
		lo := r.Float64() * 100
		qs[i] = bat.Query{Filters: []bat.AttrFilter{{Attr: 0, Min: lo, Max: lo + r.Float64()*30}}}
	}
	// Bounds far outside the attribute's range, as a client asking for
	// "everything above 50" writes them.
	qs = append(qs,
		bat.Query{Filters: []bat.AttrFilter{{Attr: 0, Min: 50, Max: 1e30}}},
		bat.Query{Filters: []bat.AttrFilter{{Attr: 0, Min: -1e30, Max: 50}}})
	checkFile(t, set, domain, bat.DefaultBuildConfig(), qs...)
}

func TestCombinedQueryMatchesBruteForce(t *testing.T) {
	set, domain := bat.RandomSet(5000, 6)
	box := geom.NewBox(geom.V3(0.2, 0.2, 0.2), geom.V3(0.8, 0.8, 0.8))
	checkFile(t, set, domain, bat.DefaultBuildConfig(),
		bat.Query{Bounds: &box, Filters: []bat.AttrFilter{{Attr: 0, Min: 20, Max: 60}}})
}

// TestProgressiveTilesExactly: reading in quality steps 0 -> 0.1 -> ... ->
// 1 visits every particle exactly once (the paper's Table I/II access
// pattern), however the traversal is scheduled.
func TestProgressiveTilesExactly(t *testing.T) {
	set, domain := bat.ClusteredSet(4000, 9)
	box := geom.NewBox(geom.V3(0, 0, 0), geom.V3(0.05, 0.05, 1))
	buildRoutes(t, set, domain, bat.DefaultBuildConfig()).check(t, 10, bat.Query{}, bat.Query{Bounds: &box})
}

// TestLODSubsetInvariant: a coarse read's points are a subset of the full
// data, with no representative or duplicated particles (paper §III-C2).
func TestLODSubsetInvariant(t *testing.T) {
	set, domain := bat.RandomSet(3000, 16)
	checkFile(t, set, domain, bat.DefaultBuildConfig(), bat.Query{Quality: 0.3}, bat.Query{PrevQuality: 0.3, Quality: 0.6})
}

// TestSpatialQueryDeepShallowTree: tiny leaves keep the subprefix
// auto-reduction from shrinking the width much on a modest set, so the
// shallow radix tree is deep and its derived split planes (Morton cell
// midplanes) do the spatial pruning. Any error in the plane derivation
// loses particles, and the tree the reader derives must be the radix tree
// over the treelets' codes. LODPerNode stays <= MaxLeafSize so every inner
// node keeps particles to split.
func TestSpatialQueryDeepShallowTree(t *testing.T) {
	set, domain := bat.ClusteredSet(30000, 31)
	cfg := bat.DefaultBuildConfig()
	cfg.MaxLeafSize = 4
	cfg.LODPerNode = 4
	f, b := checkFile(t, set, domain, cfg, randomBoxes(17, 30, func(r *rand.Rand) geom.Vec3 {
		sz := 0.02 + r.Float64()*0.3
		return geom.V3(sz, sz, sz)
	})...)
	nodes, err := bat.CheckShallowTree(b.Buf)
	if err != nil {
		t.Fatal(err)
	}
	if nodes < 50 {
		t.Fatalf("want a deep shallow tree, got %d inner nodes", nodes)
	}
	// Pruning must actually engage on a tight query.
	tiny := geom.NewBox(geom.V3(0.01, 0.01, 0.01), geom.V3(0.03, 0.03, 0.03))
	st, err := f.Query(context.Background(), bat.Query{Bounds: &tiny}, bat.QueryConfig{}, func(geom.Vec3, []float64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.PrunedSubtrees == 0 {
		t.Error("tight spatial query pruned nothing in the deep shallow tree")
	}
}

// TestOracleShallowDerived: over the oracle's seeded builds, the shallow tree
// a reader derives from the leaf records is the radix tree over the
// treelets' codes.
func TestOracleShallowDerived(t *testing.T) {
	nodes := 0
	for seed := int64(0); seed < 20; seed++ {
		c := oracle.Generate(seed)
		b, err := bat.Build(c.All(), c.Domain(), c.Build)
		if err != nil {
			t.Fatal(err)
		}
		n, err := bat.CheckShallowTree(b.Buf)
		if err != nil {
			t.Fatalf("oracle case %d: %v", seed, err)
		}
		nodes += n
	}
	if nodes == 0 {
		t.Error("no oracle build has a shallow node")
	}
}

// TestParallelMatchesSerialMultiset: for every corpus shape and query
// shape, every worker count visits the serial engine's multiset with its
// traversal stats. The coincident corpus puts every particle on one point,
// so treelet splits cannot separate them spatially and the comparison
// tells them apart by attribute.
func TestParallelMatchesSerialMultiset(t *testing.T) {
	filterBox := geom.NewBox(geom.V3(0.1, 0.1, 0.1), geom.V3(0.6, 0.7, 0.9))
	t.Run("uniform", func(t *testing.T) {
		set, domain := bat.RandomSet(5000, 7)
		checkFile(t, set, domain, bat.DefaultBuildConfig(),
			bat.Query{},
			bat.Query{Bounds: &filterBox},
			bat.Query{Filters: []bat.AttrFilter{{Attr: 0, Min: 10, Max: 60}}},
			bat.Query{Bounds: &filterBox, Filters: []bat.AttrFilter{{Attr: 1, Min: 100, Max: 2800}}},
			bat.Query{PrevQuality: 0.2, Quality: 0.7})
	})
	t.Run("clustered", func(t *testing.T) {
		set, domain := bat.ClusteredSet(5000, 8)
		checkFile(t, set, domain, bat.DefaultBuildConfig(),
			bat.Query{},
			bat.Query{Bounds: &filterBox},
			bat.Query{Filters: []bat.AttrFilter{{Attr: 0, Min: 0.1, Max: 1.2}}},
			bat.Query{Quality: 0.5})
	})
	t.Run("coincident", func(t *testing.T) {
		set := particles.NewSet(particles.NewSchema("id"), 2000)
		for i := 0; i < 2000; i++ {
			set.Append(geom.V3(0.5, 0.5, 0.5), []float64{float64(i)})
		}
		checkFile(t, set, geom.NewBox(geom.V3(0, 0, 0), geom.V3(1, 1, 1)), bat.DefaultBuildConfig(),
			bat.Query{},
			bat.Query{Filters: []bat.AttrFilter{{Attr: 0, Min: 100, Max: 900}}},
			bat.Query{Quality: 0.4})
	})
}

// TestOrderedParallelPreservesOrder: every worker count reproduces the
// serial visit sequence exactly, not just the multiset; check holds every
// route to it.
func TestOrderedParallelPreservesOrder(t *testing.T) {
	set, domain := bat.RandomSet(6000, 21)
	checkFile(t, set, domain, bat.DefaultBuildConfig(), bat.Query{}, bat.Query{Quality: 0.6})
}
