package particles

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"libbat/internal/geom"
)

func testSet(n int, seed int64) *Set {
	r := rand.New(rand.NewSource(seed))
	s := NewSet(NewSchema("mass", "temp"), n)
	for i := 0; i < n; i++ {
		s.Append(geom.V3(r.Float64(), r.Float64()*2, r.Float64()*3),
			[]float64{r.Float64() * 10, 100 + r.Float64()*50})
	}
	return s
}

func TestSchema(t *testing.T) {
	s := NewSchema("mass", "temp")
	if s.NumAttrs() != 2 {
		t.Errorf("NumAttrs = %d", s.NumAttrs())
	}
	if s.BytesPerParticle() != 12+16 {
		t.Errorf("BytesPerParticle = %d", s.BytesPerParticle())
	}
	u := UniformSchema(14)
	if u.NumAttrs() != 14 || u.BytesPerParticle() != 12+14*8 {
		t.Errorf("uniform schema wrong: %d attrs, %d B", u.NumAttrs(), u.BytesPerParticle())
	}
	// Paper: 32k particles of 3xf32 + 14xf64 = 4.06MB per rank.
	if mb := float64(32768*u.BytesPerParticle()) / (1 << 20); mb < 3.8 || mb > 4.2 {
		t.Errorf("32k uniform particles = %.2f MB, paper says 4.06", mb)
	}
	if !s.Equal(NewSchema("mass", "temp")) || s.Equal(u) {
		t.Error("Equal wrong")
	}
	if Float32.Size() != 4 || Float64.Size() != 8 {
		t.Error("type sizes wrong")
	}
}

func TestAppendAndAccess(t *testing.T) {
	s := testSet(100, 1)
	if s.Len() != 100 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Bytes() != int64(100*(12+16)) {
		t.Errorf("Bytes = %d", s.Bytes())
	}
	b := s.Bounds()
	for i := 0; i < s.Len(); i++ {
		if !b.Contains(s.Position(i)) {
			t.Fatalf("particle %d outside Bounds", i)
		}
	}
	r := s.AttrRange(0)
	for _, v := range s.Attrs[0] {
		if v < r.Min || v > r.Max {
			t.Fatal("value outside AttrRange")
		}
	}
}

func TestAppendPanicsOnBadAttrs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on attr count mismatch")
		}
	}()
	s := NewSet(NewSchema("a"), 1)
	s.Append(geom.V3(0, 0, 0), []float64{1, 2})
}

func TestAppendSet(t *testing.T) {
	a := testSet(10, 1)
	b := testSet(20, 2)
	a.AppendSet(b)
	if a.Len() != 30 {
		t.Errorf("Len = %d", a.Len())
	}
	if a.Attrs[0][10] != b.Attrs[0][0] {
		t.Error("appended attrs wrong")
	}
}

func TestSelectAndSlice(t *testing.T) {
	s := testSet(50, 3)
	sel := s.Select([]int{5, 10, 15})
	if sel.Len() != 3 {
		t.Fatalf("Select len = %d", sel.Len())
	}
	if sel.X[1] != s.X[10] || sel.Attrs[1][2] != s.Attrs[1][15] {
		t.Error("Select values wrong")
	}
	sl := s.Slice(10, 20)
	if sl.Len() != 10 || sl.X[0] != s.X[10] {
		t.Error("Slice wrong")
	}
	// Slice is a copy: mutating it must not affect the original.
	sl.X[0] = -999
	if s.X[10] == -999 {
		t.Error("Slice aliases original storage")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw, preRaw uint8) bool {
		n, pre := int(nRaw)%64, int(preRaw)%4
		s := testSet(n, seed)
		// pre particles already in the destination: the payload must land
		// after them and leave them as they were.
		got := testSet(pre, seed+1)
		kept := got.Slice(0, pre)
		if err := got.AppendMarshaled(s.Marshal()); err != nil {
			return false
		}
		if got.Len() != pre+n {
			return false
		}
		for i := 0; i < pre+n; i++ {
			want, j := kept, i
			if i >= pre {
				want, j = s, i-pre
			}
			if got.X[i] != want.X[j] || got.Y[i] != want.Y[j] || got.Z[i] != want.Z[j] {
				return false
			}
			for a := range s.Attrs {
				if got.Attrs[a][i] != want.Attrs[a][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if err := NewSet(NewSchema("a"), 0).AppendMarshaled([]byte{1, 2}); err == nil {
		t.Error("short buffer should error")
	}
	s := testSet(5, 1)
	buf := s.Marshal()
	if err := NewSet(s.Schema, 0).AppendMarshaled(buf[:len(buf)-4]); err == nil {
		t.Error("truncated buffer should error")
	}
	if err := NewSet(NewSchema("a", "b", "c"), 0).AppendMarshaled(buf); err == nil {
		t.Error("wrong schema size should error")
	}
}

// TestUnmarshalAllocatesOnce: decoding a message into an empty set grows
// its columns once, so the bytes allocated stay within the payload plus a
// small constant (the size-class rounding of ten columns).
func TestUnmarshalAllocatesOnce(t *testing.T) {
	const n = 100_000
	schema := NewSchema("a", "b", "c", "d", "e", "f", "g")
	s := NewSet(schema, n)
	attrs := make([]float64, schema.NumAttrs())
	for i := 0; i < n; i++ {
		s.Append(geom.V3(float64(i), 1, 2), attrs)
	}
	buf := s.Marshal()
	payload := uint64(len(buf) - 8)
	allocated := uint64(math.MaxUint64)
	for range 3 { // the least of three, past any stray background allocation
		got := NewSet(schema, 0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := got.AppendMarshaled(buf)
		runtime.ReadMemStats(&after)
		if err != nil || got.Len() != n {
			t.Fatalf("AppendMarshaled: %v, %d particles", err, got.Len())
		}
		allocated = min(allocated, after.TotalAlloc-before.TotalAlloc)
	}
	if allocated > payload+64<<10 {
		t.Errorf("AppendMarshaled of a %d-byte payload allocated %d bytes, want at most the payload + 64 KiB", payload, allocated)
	}
}

func TestMarshalEmpty(t *testing.T) {
	s := NewSet(NewSchema("a"), 0)
	got := NewSet(s.Schema, 0)
	if err := got.AppendMarshaled(s.Marshal()); err != nil || got.Len() != 0 {
		t.Errorf("empty round trip: %v len %d", err, got.Len())
	}
}

func BenchmarkMarshal32k(b *testing.B) {
	s := testSet(32768, 1)
	b.SetBytes(s.Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Marshal()
	}
}

// FuzzAppendMarshaled throws arbitrary bytes and attribute counts at the
// wire decoder, appending onto a set that already holds particles: it must
// return an error and leave every column as it was, or append exactly as
// many particles as the input says after the ones already there — never
// panic or allocate past the input size.
func FuzzAppendMarshaled(f *testing.F) {
	valid := testSet(9, 1).Marshal()
	flipped := append([]byte(nil), valid...)
	flipped[3] ^= 0x80 // count field: claims ~2^31 particles
	f.Add(valid, uint8(2))
	f.Add(valid[:len(valid)/2], uint8(2))
	f.Add(valid[len(valid)/2:], uint8(2))
	f.Add(flipped, uint8(2))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, nAttrs uint8) {
		schema := UniformSchema(int(nAttrs % 8))
		const pre = 3
		s := NewSet(schema, pre)
		for i := range pre {
			attrs := make([]float64, schema.NumAttrs())
			for a := range attrs {
				attrs[a] = float64(10*i + a)
			}
			s.Append(geom.V3(float64(i), -1, 2), attrs)
		}
		kept := s.Slice(0, pre)
		err := s.AppendMarshaled(data)
		if len(s.Y) != s.Len() || len(s.Z) != s.Len() {
			t.Fatalf("ragged positions: %d/%d/%d", len(s.X), len(s.Y), len(s.Z))
		}
		for a, col := range s.Attrs {
			if len(col) != s.Len() {
				t.Fatalf("ragged set: attr %d has %d values for %d particles", a, len(col), s.Len())
			}
		}
		if err != nil && s.Len() != pre {
			t.Fatalf("refused payload (%v) changed the set from %d to %d particles", err, pre, s.Len())
		}
		for i := range pre {
			if s.X[i] != kept.X[i] || s.Y[i] != kept.Y[i] || s.Z[i] != kept.Z[i] {
				t.Fatalf("decode changed particle %d's position", i)
			}
			for a := range s.Attrs {
				if s.Attrs[a][i] != kept.Attrs[a][i] {
					t.Fatalf("decode changed particle %d's attr %d", i, a)
				}
			}
		}
		if err != nil {
			return
		}
		added := s.Len() - pre
		if got := 8 + int64(added)*int64(12+8*schema.NumAttrs()); got != int64(len(data)) {
			t.Fatalf("decoded %d particles (%d bytes) from %d input bytes", added, got, len(data))
		}
	})
}
