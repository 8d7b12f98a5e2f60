package libbat

import (
	"math"
	"testing"
)

func analysisDataset(t *testing.T) (*Dataset, *ParticleSet) {
	t.Helper()
	store, _ := writeTestDataset(t, "an", 20*1024)
	ds, err := OpenDataset(store, "an")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	all, err := ds.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return ds, all
}

func TestDensityGrid(t *testing.T) {
	ds, all := analysisDataset(t)
	grid, err := ds.DensityGrid(4, 2, 1, Query{})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, c := range grid {
		sum += c
	}
	if sum != int64(all.Len()) {
		t.Fatalf("grid sums to %d, want %d", sum, all.Len())
	}
	// The test dataset is a 4x2 grid of unit rank cubes with 800 each:
	// every voxel of a 4x2x1 grid should hold ~800.
	for i, c := range grid {
		if c < 700 || c > 900 {
			t.Errorf("voxel %d = %d, want ~800", i, c)
		}
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
	ds, all := analysisDataset(t)
	s, err := ds.Summarize(0, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Count != int64(all.Len()) {
		t.Fatalf("count = %d", s.Count)
	}
	// Brute force comparison.
	var sum float64
	min, max := math.Inf(1), math.Inf(-1)
	for _, v := range all.Attrs[0] {
		sum += v
		min = math.Min(min, v)
		max = math.Max(max, v)
	}
	mean := sum / float64(all.Len())
	if math.Abs(s.Mean-mean) > 1e-9*math.Abs(mean) {
		t.Errorf("mean %g != %g", s.Mean, mean)
	}
	if s.Min != min || s.Max != max {
		t.Errorf("range [%g,%g] != [%g,%g]", s.Min, s.Max, min, max)
	}
	var m2 float64
	for _, v := range all.Attrs[0] {
		m2 += (v - mean) * (v - mean)
	}
	want := math.Sqrt(m2 / float64(all.Len()))
	if math.Abs(s.Stddev-want) > 1e-9*want {
		t.Errorf("stddev %g != %g", s.Stddev, want)
	}
	// Filtered summary respects the filter.
	fs, err := ds.Summarize(0, Query{Filters: []AttrFilter{{Attr: 0, Min: 100, Max: 200}}})
	if err != nil {
		t.Fatal(err)
	}
	if fs.Min < 100 || fs.Max > 200 {
		t.Errorf("filtered range [%g,%g] escapes filter", fs.Min, fs.Max)
	}
	if _, err := ds.Summarize(9, Query{}); err == nil {
		t.Error("bad attr should error")
	}
	// Empty query result.
	es, err := ds.Summarize(0, Query{Filters: []AttrFilter{{Attr: 0, Min: 1e9, Max: 2e9}}})
	if err != nil || es.Count != 0 {
		t.Errorf("empty summary: %+v, %v", es, err)
	}
}

func TestRadialProfile(t *testing.T) {
	ds, all := analysisDataset(t)
	center := ds.Bounds().Center()
	radius := 2.5
	counts, means, err := ds.RadialProfile(center, radius, 5, 0, Query{})
	if err != nil {
		t.Fatal(err)
	}
	// Brute force.
	wantCounts := make([]int64, 5)
	wantSums := make([]float64, 5)
	for i := 0; i < all.Len(); i++ {
		r := all.Position(i).Sub(center).Length()
		if r >= radius {
			continue
		}
		b := int(r / radius * 5)
		if b >= 5 {
			b = 4
		}
		wantCounts[b]++
		wantSums[b] += all.Attrs[0][i]
	}
	for i := range counts {
		if counts[i] != wantCounts[i] {
			t.Fatalf("shell %d count %d != %d", i, counts[i], wantCounts[i])
		}
		if wantCounts[i] > 0 {
			want := wantSums[i] / float64(wantCounts[i])
			if math.Abs(means[i]-want) > 1e-9*math.Abs(want) {
				t.Fatalf("shell %d mean %g != %g", i, means[i], want)
			}
		} else if !math.IsNaN(means[i]) {
			t.Fatalf("empty shell %d mean should be NaN", i)
		}
	}
	// attr < 0 skips averaging (means all NaN).
	_, meansOnly, err := ds.RadialProfile(center, radius, 3, -1, Query{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range meansOnly {
		if !math.IsNaN(m) {
			t.Error("attr<0 should produce NaN means")
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
