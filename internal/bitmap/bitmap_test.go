package bitmap

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRangeBasics(t *testing.T) {
	r := EmptyRange()
	if !r.IsEmpty() {
		t.Fatal("EmptyRange not empty")
	}
	r = r.Extend(3)
	r = r.Extend(-1)
	if r.Min != -1 || r.Max != 3 {
		t.Errorf("Extend = %+v", r)
	}
	if got := r.Width(); got != 4 {
		t.Errorf("Width = %v", got)
	}
	u := r.Union(Range{Min: 5, Max: 7})
	if u.Min != -1 || u.Max != 7 {
		t.Errorf("Union = %+v", u)
	}
	if EmptyRange().Width() != 0 {
		t.Error("empty width != 0")
	}
}

func TestBin(t *testing.T) {
	r := Range{Min: 0, Max: 32}
	for i := 0; i < Bins; i++ {
		if got := r.Bin(float64(i) + 0.5); got != i {
			t.Errorf("Bin(%v) = %d, want %d", float64(i)+0.5, got, i)
		}
	}
	if got := r.Bin(-5); got != 0 {
		t.Errorf("below-range bin = %d", got)
	}
	if got := r.Bin(100); got != Bins-1 {
		t.Errorf("above-range bin = %d", got)
	}
	if got := r.Bin(32); got != Bins-1 {
		t.Errorf("max value bin = %d", got)
	}
	// Values whose bin index overflows int64 clamp like any other.
	if got := r.Bin(1e30); got != Bins-1 {
		t.Errorf("bin of 1e30 = %d, want %d", got, Bins-1)
	}
	if got := r.Bin(-1e30); got != 0 {
		t.Errorf("bin of -1e30 = %d, want 0", got)
	}
	if got := r.Bin(math.NaN()); got != 0 {
		t.Errorf("bin of NaN = %d, want 0", got)
	}
	// Degenerate range.
	d := Range{Min: 5, Max: 5}
	if got := d.Bin(5); got != 0 {
		t.Errorf("degenerate bin = %d", got)
	}
}

// ofValues builds the index of a set of values relative to range r, the
// way a BAT node's bitmap indexes the values it contains.
func ofValues(vs []float64, r Range) Bitmap {
	var b Bitmap
	for _, v := range vs {
		b |= OfValue(v, r)
	}
	return b
}

func TestOfValuesAndQueryNoFalseNegatives(t *testing.T) {
	// Any value matching the query interval must be detected by the
	// bitmap overlap test.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := Range{Min: rng.Float64() * 10, Max: 0}
		r.Max = r.Min + rng.Float64()*20 + 0.1
		vals := make([]float64, 50)
		for i := range vals {
			vals[i] = r.Min + rng.Float64()*r.Width()
		}
		idx := ofValues(vals, r)
		lo := r.Min + rng.Float64()*r.Width()
		hi := lo + rng.Float64()*r.Width()/2
		q := OfQuery(lo, hi, r)
		anyMatch := false
		for _, v := range vals {
			if v >= lo && v <= hi {
				anyMatch = true
				break
			}
		}
		// No false negatives: if a value matches, bitmaps must overlap.
		if anyMatch && !idx.Overlaps(q) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestOfQueryEdges(t *testing.T) {
	r := Range{Min: 0, Max: 10}
	if got := OfQuery(5, 4, r); got != 0 {
		t.Errorf("inverted query = %b", got)
	}
	if got := OfQuery(20, 30, r); got != 0 {
		t.Errorf("disjoint-above query = %b", got)
	}
	if got := OfQuery(-5, -1, r); got != 0 {
		t.Errorf("disjoint-below query = %b", got)
	}
	if got := OfQuery(-100, 100, r); got != Bitmap(math.MaxUint32) {
		t.Errorf("covering query = %b", got)
	}
	// A single-point query sets exactly one bin.
	if got := OfQuery(3.1, 3.1, r); got.PopCount() != 1 {
		t.Errorf("point query bins = %d", got.PopCount())
	}
}

func TestOverlapPopCount(t *testing.T) {
	a := Bitmap(0b0011)
	b := Bitmap(0b0110)
	if !a.Overlaps(b) {
		t.Error("should overlap")
	}
	if a.Overlaps(0b1000) {
		t.Error("should not overlap")
	}
	if got := a.PopCount(); got != 2 {
		t.Errorf("PopCount = %d", got)
	}
}

func TestRemapConservative(t *testing.T) {
	// Remapping a local bitmap to the global range must keep every value's
	// bin set (no false negatives introduced).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		global := Range{Min: -10, Max: 10}
		lmin := -10 + rng.Float64()*15
		local := Range{Min: lmin, Max: lmin + rng.Float64()*5 + 0.01}
		vals := make([]float64, 30)
		for i := range vals {
			vals[i] = local.Min + rng.Float64()*local.Width()
		}
		localBM := ofValues(vals, local)
		remapped := localBM.Remap(local, global)
		for _, v := range vals {
			if !remapped.Overlaps(OfValue(v, global)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRemapIdentityAndDegenerate(t *testing.T) {
	r := Range{Min: 0, Max: 1}
	b := Bitmap(0b1010)
	if got := b.Remap(r, r); got != b {
		t.Errorf("identity remap = %b", got)
	}
	if got := Bitmap(0).Remap(r, Range{Min: 0, Max: 5}); got != 0 {
		t.Errorf("zero remap = %b", got)
	}
	// Degenerate destination collapses to bin 0.
	if got := b.Remap(r, Range{Min: 3, Max: 3}); got != 1 {
		t.Errorf("degenerate dest remap = %b", got)
	}
	// Degenerate source: all values are from.Min.
	src := Range{Min: 2, Max: 2}
	got := Bitmap(1).Remap(src, Range{Min: 0, Max: 10})
	want := OfValue(2, Range{Min: 0, Max: 10})
	if got != want {
		t.Errorf("degenerate src remap = %b, want %b", got, want)
	}
}

func TestDictionary(t *testing.T) {
	d := NewDictionary()
	id1, err := d.Intern(0b101)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := d.Intern(0b111)
	if err != nil {
		t.Fatal(err)
	}
	id3, err := d.Intern(0b101)
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id3 {
		t.Error("duplicate intern should return same ID")
	}
	if id1 == id2 {
		t.Error("distinct bitmaps should get distinct IDs")
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d", d.Len())
	}
	if d.Lookup(id1) != 0b101 || d.Lookup(id2) != 0b111 {
		t.Error("Lookup wrong")
	}
}

func TestDictionaryRoundTrip(t *testing.T) {
	d := NewDictionary()
	rng := rand.New(rand.NewSource(1))
	ids := make([]ID, 100)
	bms := make([]Bitmap, 100)
	for i := range ids {
		bms[i] = Bitmap(rng.Uint32())
		var err error
		ids[i], err = d.Intern(bms[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	d2 := FromEntries(d.Entries())
	for i, id := range ids {
		if d2.Lookup(id) != bms[i] {
			t.Fatalf("round trip lookup %d failed", i)
		}
		// Interning into the restored dictionary must dedupe.
		id2, err := d2.Intern(bms[i])
		if err != nil {
			t.Fatal(err)
		}
		if id2 != id {
			t.Fatalf("restored dictionary re-intern mismatch: %d vs %d", id2, id)
		}
	}
}

func TestDictionaryFull(t *testing.T) {
	d := NewDictionary()
	// A 32-bit bitmap space has >65536 values, so we can overflow.
	var err error
	for i := 0; i < MaxDictSize; i++ {
		_, err = d.Intern(Bitmap(i))
		if err != nil {
			t.Fatalf("unexpected error at %d: %v", i, err)
		}
	}
	if _, err = d.Intern(Bitmap(MaxDictSize)); err != ErrDictFull {
		t.Errorf("expected ErrDictFull, got %v", err)
	}
	// Existing entries still intern fine.
	if _, err = d.Intern(Bitmap(5)); err != nil {
		t.Errorf("existing entry errored: %v", err)
	}
}
