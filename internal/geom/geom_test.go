package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVecOps(t *testing.T) {
	a := V3(1, 2, 3)
	b := V3(4, 5, 6)
	if got := a.Add(b); got != V3(5, 7, 9) {
		t.Errorf("Add = %v", got)
	}
	if got := b.Sub(a); got != V3(3, 3, 3) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != V3(2, 4, 6) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); got != 32 {
		t.Errorf("Dot = %v", got)
	}
	if got := V3(3, 4, 0).Length(); got != 5 {
		t.Errorf("Length = %v", got)
	}
}

func TestVecComponent(t *testing.T) {
	v := V3(1, 2, 3)
	for i, want := range []float64{1, 2, 3} {
		if got := v.Component(Axis(i)); got != want {
			t.Errorf("Component(%v) = %v, want %v", Axis(i), got, want)
		}
	}
	for i := 0; i < 3; i++ {
		got := v.SetComponent(Axis(i), 9)
		if got.Component(Axis(i)) != 9 {
			t.Errorf("SetComponent(%v) failed: %v", Axis(i), got)
		}
		// Other components untouched.
		for j := 0; j < 3; j++ {
			if j != i && got.Component(Axis(j)) != v.Component(Axis(j)) {
				t.Errorf("SetComponent(%v) disturbed axis %v", Axis(i), Axis(j))
			}
		}
	}
}

func TestAxisString(t *testing.T) {
	if X.String() != "x" || Y.String() != "y" || Z.String() != "z" {
		t.Error("axis names wrong")
	}
	if Axis(7).String() != "Axis(7)" {
		t.Error("unknown axis name wrong")
	}
}

func TestEmptyBox(t *testing.T) {
	e := EmptyBox()
	if !e.IsEmpty() {
		t.Fatal("EmptyBox not empty")
	}
	if e.Volume() != 0 {
		t.Error("empty box has volume")
	}
	b := NewBox(V3(0, 0, 0), V3(1, 1, 1))
	if got := e.Union(b); got != b {
		t.Errorf("empty union identity violated: %v", got)
	}
	if e.Overlaps(b) || b.Overlaps(e) {
		t.Error("empty box overlaps something")
	}
	if !b.ContainsBox(e) {
		t.Error("any box should contain the empty box")
	}
}

func TestBoxBasics(t *testing.T) {
	b := NewBox(V3(0, 0, 0), V3(2, 4, 8))
	if b.IsEmpty() {
		t.Fatal("box empty")
	}
	if got := b.Size(); got != V3(2, 4, 8) {
		t.Errorf("Size = %v", got)
	}
	if got := b.Center(); got != V3(1, 2, 4) {
		t.Errorf("Center = %v", got)
	}
	if got := b.Volume(); got != 64 {
		t.Errorf("Volume = %v", got)
	}
	if got := b.LongestAxis(); got != Z {
		t.Errorf("LongestAxis = %v", got)
	}
	if !b.Contains(V3(1, 1, 1)) || b.Contains(V3(3, 1, 1)) {
		t.Error("Contains wrong")
	}
	// Boundary inclusive.
	if !b.Contains(V3(2, 4, 8)) || !b.Contains(V3(0, 0, 0)) {
		t.Error("boundary points should be contained")
	}
}

func TestLongestAxisTies(t *testing.T) {
	if got := NewBox(V3(0, 0, 0), V3(1, 1, 1)).LongestAxis(); got != X {
		t.Errorf("cube longest = %v, want x", got)
	}
	if got := NewBox(V3(0, 0, 0), V3(1, 2, 2)).LongestAxis(); got != Y {
		t.Errorf("yz tie longest = %v, want y", got)
	}
}

func TestOverlapsAndIntersect(t *testing.T) {
	a := NewBox(V3(0, 0, 0), V3(2, 2, 2))
	b := NewBox(V3(1, 1, 1), V3(3, 3, 3))
	c := NewBox(V3(5, 5, 5), V3(6, 6, 6))
	if !a.Overlaps(b) {
		t.Error("a should overlap b")
	}
	if a.Overlaps(c) {
		t.Error("a should not overlap c")
	}
	want := NewBox(V3(1, 1, 1), V3(2, 2, 2))
	if got := a.Intersect(b); got != want {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	if !a.Intersect(c).IsEmpty() {
		t.Error("disjoint intersect should be empty")
	}
	// Face-touching boxes overlap (inclusive).
	d := NewBox(V3(2, 0, 0), V3(4, 2, 2))
	if !a.Overlaps(d) {
		t.Error("face-touching boxes should overlap")
	}
}

func TestSplitAt(t *testing.T) {
	b := NewBox(V3(0, 0, 0), V3(4, 4, 4))
	lo, hi := b.SplitAt(X, 1)
	if lo.Upper.X != 1 || hi.Lower.X != 1 {
		t.Errorf("split planes wrong: %v %v", lo, hi)
	}
	if lo.Lower != b.Lower || hi.Upper != b.Upper {
		t.Error("split disturbed outer bounds")
	}
	// Clamped split.
	lo, hi = b.SplitAt(Y, 10)
	if lo.Upper.Y != 4 || hi.Lower.Y != 4 {
		t.Errorf("clamped split wrong: %v %v", lo, hi)
	}
}

func TestNormalize(t *testing.T) {
	b := NewBox(V3(-1, 0, 2), V3(1, 2, 4))
	if got := b.Normalize(V3(0, 1, 3)); got != V3(0.5, 0.5, 0.5) {
		t.Errorf("Normalize = %v", got)
	}
	if got := b.Normalize(b.Lower); got != V3(0, 0, 0) {
		t.Errorf("Normalize lower = %v", got)
	}
	if got := b.Normalize(b.Upper); got != V3(1, 1, 1) {
		t.Errorf("Normalize upper = %v", got)
	}
	// Degenerate axis maps to 0.
	flat := NewBox(V3(0, 0, 0), V3(0, 1, 1))
	if got := flat.Normalize(V3(0, 0.5, 0.5)).X; got != 0 {
		t.Errorf("degenerate axis = %v, want 0", got)
	}
}

func randBox(r *rand.Rand) Box {
	a := V3(r.Float64()*10-5, r.Float64()*10-5, r.Float64()*10-5)
	b := V3(r.Float64()*10-5, r.Float64()*10-5, r.Float64()*10-5)
	return Box{Lower: a.Min(b), Upper: a.Max(b)}
}

func TestUnionPropertyBased(t *testing.T) {
	// Union contains both operands, is commutative and associative.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randBox(r), randBox(r), randBox(r)
		u := a.Union(b)
		if !u.ContainsBox(a) || !u.ContainsBox(b) {
			return false
		}
		if u != b.Union(a) {
			return false
		}
		return a.Union(b).Union(c) == a.Union(b.Union(c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntersectPropertyBased(t *testing.T) {
	// A point is in the intersection iff it is in both boxes.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randBox(r), randBox(r)
		inter := a.Intersect(b)
		for i := 0; i < 20; i++ {
			p := V3(r.Float64()*10-5, r.Float64()*10-5, r.Float64()*10-5)
			if (a.Contains(p) && b.Contains(p)) != (!inter.IsEmpty() && inter.Contains(p)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExtendProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := EmptyBox()
		pts := make([]Vec3, 0, 16)
		for i := 0; i < 16; i++ {
			p := V3(r.NormFloat64(), r.NormFloat64(), r.NormFloat64())
			pts = append(pts, p)
			b = b.Extend(p)
		}
		for _, p := range pts {
			if !b.Contains(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVolumeMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randBox(r), randBox(r)
		u := a.Union(b)
		return u.Volume() >= math.Max(a.Volume(), b.Volume()) &&
			a.Intersect(b).Volume() <= math.Min(a.Volume(), b.Volume())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMinMaxMatchMath holds Vec3.Min and Vec3.Max, which use the builtin min
// and max, to math.Min and math.Max over every pair of NaN, ±0, ±Inf and two
// finite values, on every axis, bit for bit: -0 orders below +0, and a NaN
// operand gives NaN. The one difference is the pair of a NaN and the infinity
// math lets win — math.Min(-Inf, NaN) is -Inf, math.Max(+Inf, NaN) is +Inf —,
// where the builtins return NaN too.
func TestMinMaxMatchMath(t *testing.T) {
	negZero := math.Copysign(0, -1)
	vals := []float64{math.NaN(), negZero, 0, math.Inf(-1), math.Inf(1), -1.5, 2}
	same := func(got, want float64) bool {
		return math.Float64bits(got) == math.Float64bits(want) || math.IsNaN(got) && math.IsNaN(want)
	}
	for _, a := range vals {
		for _, b := range vals {
			nan := math.IsNaN(a) || math.IsNaN(b)
			wantMin, wantMax := math.Min(a, b), math.Max(a, b)
			if nan && math.IsInf(wantMin, -1) {
				wantMin = math.NaN()
			}
			if nan && math.IsInf(wantMax, 1) {
				wantMax = math.NaN()
			}
			for ax := X; ax <= Z; ax++ {
				va, vb := Vec3{}.SetComponent(ax, a), Vec3{}.SetComponent(ax, b)
				if got := va.Min(vb).Component(ax); !same(got, wantMin) {
					t.Errorf("Min(%v, %v) on axis %v = %v, want %v", a, b, ax, got, wantMin)
				}
				if got := va.Max(vb).Component(ax); !same(got, wantMax) {
					t.Errorf("Max(%v, %v) on axis %v = %v, want %v", a, b, ax, got, wantMax)
				}
			}
		}
	}
}

// BenchmarkBoxExtend times folding Box.Extend over a point cloud, the loop
// of particles.Set.Bounds.
func BenchmarkBoxExtend(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	pts := make([]Vec3, 1<<16)
	for i := range pts {
		pts[i] = V3(r.Float64(), r.Float64(), r.Float64())
	}
	var box Box
	for i := 0; i < b.N; i++ {
		box = EmptyBox()
		for _, p := range pts {
			box = box.Extend(p)
		}
	}
	if box.IsEmpty() {
		b.Fatal("empty")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(pts)), "ns/point")
}
