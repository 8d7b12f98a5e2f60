package libbat

import (
	"math"
	"reflect"
	"testing"

	"libbat/internal/oracle"
)

// analysisDataset opens writeTestDataset's output and returns it with the
// oracle over the input it was written from.
func analysisDataset(t *testing.T) (*Dataset, *oracle.Reference) {
	t.Helper()
	store, _ := writeTestDataset(t, "an", 20*1024)
	ds, err := OpenDataset(store, "an")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	return ds, oracle.New(DefaultWriteConfig(0).BAT, testWorld.Sets()...)
}

// near reports whether got equals want to a relative 1e-9, the slack a
// differently ordered floating-point sum needs; NaN equals NaN.
func near(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Abs(want) || got != got && want != want
}

func TestDensityGrid(t *testing.T) {
	ds, ref := analysisDataset(t)
	grid, err := ds.DensityGrid(4, 2, 1, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if want := oracle.DensityGrid(ref.Select(Query{}), ds.Bounds(), 4, 2, 1); !reflect.DeepEqual(grid, want) {
		t.Fatalf("grid %v, oracle %v", grid, want)
	}
	if _, err := ds.DensityGrid(0, 1, 1, Query{}); err == nil {
		t.Error("invalid grid should error")
	}
	// A cell count that overflows int, or wraps it to zero, is an error,
	// not a makeslice or index panic.
	for _, n := range []int{1 << 21, 1 << 22} {
		if _, err := ds.DensityGrid(n, n, n, Query{}); err == nil {
			t.Errorf("%d^3 grid should error", n)
		}
	}
}

func TestSummarize(t *testing.T) {
	ds, ref := analysisDataset(t)
	// The whole set, a filtered subset, and an empty result.
	for _, q := range []Query{
		{},
		{Filters: []AttrFilter{{Attr: 0, Min: 100, Max: 200}}},
		{Filters: []AttrFilter{{Attr: 0, Min: 1e9, Max: 2e9}}},
	} {
		got, err := ds.Summarize(0, q)
		if err != nil {
			t.Fatal(err)
		}
		want := oracle.Summarize(ref.Select(q), 0)
		if got.Count != want.Count || got.Min != want.Min || got.Max != want.Max ||
			!near(got.Mean, want.Mean) || !near(got.Stddev, want.Stddev) {
			t.Errorf("filters %v: summary %+v, oracle %+v", q.Filters, got, want)
		}
	}
	if _, err := ds.Summarize(9, Query{}); err == nil {
		t.Error("bad attr should error")
	}
}

func TestRadialProfile(t *testing.T) {
	ds, ref := analysisDataset(t)
	center := ds.Bounds().Center()
	radius := 2.5
	// attr < 0 skips averaging (means all NaN).
	for _, attr := range []int{0, -1} {
		counts, means, err := ds.RadialProfile(center, radius, 5, attr, Query{})
		if err != nil {
			t.Fatal(err)
		}
		wantCounts, wantMeans := oracle.RadialProfile(ref.Select(Query{}), center, radius, 5, attr)
		if !reflect.DeepEqual(counts, wantCounts) {
			t.Fatalf("attr %d: shell counts %v, oracle %v", attr, counts, wantCounts)
		}
		for i := range means {
			if !near(means[i], wantMeans[i]) {
				t.Fatalf("attr %d: shell %d mean %g, oracle %g", attr, i, means[i], wantMeans[i])
			}
		}
	}
	if _, _, err := ds.RadialProfile(center, 0, 3, 0, Query{}); err == nil {
		t.Error("zero radius should error")
	}
	// Non-finite arguments are errors, not an int(NaN) shell index.
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		center Vec3
		radius float64
	}{
		{V3(nan, 0, 0), 1},
		{V3(0, -inf, 0), 1},
		{center, nan},
		{center, inf},
	} {
		if _, _, err := ds.RadialProfile(c.center, c.radius, 4, -1, Query{}); err == nil {
			t.Errorf("center %v radius %g should error", c.center, c.radius)
		}
	}
	if _, _, err := ds.RadialProfile(center, 1, 3, 99, Query{}); err == nil {
		t.Error("bad attr should error")
	}
}

func TestAnalysisOnLODSubset(t *testing.T) {
	// LOD analyses run on the representative subset: the coarse mean
	// should approximate the exact mean (stratified LOD sampling).
	ds, _ := analysisDataset(t)
	exact, err := ds.Summarize(0, Query{})
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := ds.Summarize(0, Query{Quality: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if coarse.Count == 0 || coarse.Count >= exact.Count {
		t.Fatalf("coarse count %d of %d", coarse.Count, exact.Count)
	}
	if math.Abs(coarse.Mean-exact.Mean) > 0.15*math.Abs(exact.Mean) {
		t.Errorf("coarse mean %g far from exact %g", coarse.Mean, exact.Mean)
	}
}
