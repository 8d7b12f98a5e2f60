// Package particles provides the structure-of-arrays particle containers
// shared by the whole library. Following the paper's data model (and the
// array-based attribute storage of HDF5/ADIOS/Silo), a particle has three
// single-precision spatial coordinates plus a set of named double-precision
// attributes described by a Schema.
package particles

import (
	"encoding/binary"
	"fmt"
	"math"

	"libbat/internal/bitmap"
	"libbat/internal/geom"
)

// AttrType describes the on-disk storage type of an attribute.
type AttrType uint8

// Supported attribute storage types.
const (
	Float64 AttrType = iota
	Float32
)

// Size returns the number of bytes the type occupies on disk.
func (t AttrType) Size() int {
	if t == Float32 {
		return 4
	}
	return 8
}

func (t AttrType) String() string {
	if t == Float32 {
		return "float32"
	}
	return "float64"
}

// AttrDesc names a single particle attribute.
type AttrDesc struct {
	Name string
	Type AttrType
}

// AttrFilter restricts a query to particles whose attribute Attr, an index
// into the schema, lies in [Min, Max].
type AttrFilter struct {
	Attr     int
	Min, Max float64
}

// Schema describes the attributes carried by every particle in a Set.
// Positions (3 x float32) are implicit and not part of the schema.
type Schema struct {
	Attrs []AttrDesc
}

// NewSchema builds a schema of float64 attributes with the given names.
func NewSchema(names ...string) Schema {
	s := Schema{Attrs: make([]AttrDesc, len(names))}
	for i, n := range names {
		s.Attrs[i] = AttrDesc{Name: n, Type: Float64}
	}
	return s
}

// UniformSchema returns a schema of n float64 attributes named a0..a(n-1),
// matching the synthetic uniform benchmark's "14 double precision
// attributes" setup.
func UniformSchema(n int) Schema {
	s := Schema{Attrs: make([]AttrDesc, n)}
	for i := range s.Attrs {
		s.Attrs[i] = AttrDesc{Name: fmt.Sprintf("a%d", i), Type: Float64}
	}
	return s
}

// NumAttrs returns the number of attributes in the schema.
func (s Schema) NumAttrs() int { return len(s.Attrs) }

// BytesPerParticle returns the storage footprint of one particle: 12 bytes
// of position plus the attribute payload.
func (s Schema) BytesPerParticle() int {
	n := 12
	for _, a := range s.Attrs {
		n += a.Type.Size()
	}
	return n
}

// RecordSize returns the bytes of one particle's wire record (AppendRecord):
// 12 of position and 8 per attribute, whatever the attribute's storage type.
func (s Schema) RecordSize() int { return 12 + 8*s.NumAttrs() }

// Equal reports whether two schemas describe the same attributes.
func (s Schema) Equal(o Schema) bool {
	if len(s.Attrs) != len(o.Attrs) {
		return false
	}
	for i := range s.Attrs {
		if s.Attrs[i] != o.Attrs[i] {
			return false
		}
	}
	return true
}

// Set is a structure-of-arrays particle container.
type Set struct {
	Schema  Schema
	X, Y, Z []float32
	// Attrs[i] holds the values of Schema.Attrs[i] for every particle.
	// Values are held as float64 in memory regardless of storage type.
	Attrs [][]float64
}

// NewSet returns an empty set with capacity for n particles.
func NewSet(schema Schema, n int) *Set {
	s := &Set{
		Schema: schema,
		X:      make([]float32, 0, n),
		Y:      make([]float32, 0, n),
		Z:      make([]float32, 0, n),
		Attrs:  make([][]float64, schema.NumAttrs()),
	}
	for i := range s.Attrs {
		s.Attrs[i] = make([]float64, 0, n)
	}
	return s
}

// Len returns the number of particles.
func (s *Set) Len() int { return len(s.X) }

// Bytes returns the total storage footprint of the set.
func (s *Set) Bytes() int64 { return int64(s.Len()) * int64(s.Schema.BytesPerParticle()) }

// Append adds one particle. attrs must have one value per schema attribute.
func (s *Set) Append(p geom.Vec3, attrs []float64) {
	if len(attrs) != s.Schema.NumAttrs() {
		panic(fmt.Sprintf("particles: appended %d attrs to schema of %d", len(attrs), s.Schema.NumAttrs()))
	}
	s.X = append(s.X, float32(p.X))
	s.Y = append(s.Y, float32(p.Y))
	s.Z = append(s.Z, float32(p.Z))
	for i, v := range attrs {
		s.Attrs[i] = append(s.Attrs[i], v)
	}
}

// Position returns the position of particle i.
func (s *Set) Position(i int) geom.Vec3 {
	return geom.Vec3{X: float64(s.X[i]), Y: float64(s.Y[i]), Z: float64(s.Z[i])}
}

// Bounds returns the tight bounding box of all particles.
func (s *Set) Bounds() geom.Box {
	b := geom.EmptyBox()
	for i := 0; i < s.Len(); i++ {
		b = b.Extend(s.Position(i))
	}
	return b
}

// AttrRange returns the value range of attribute a over all particles.
func (s *Set) AttrRange(a int) bitmap.Range {
	r := bitmap.EmptyRange()
	for _, v := range s.Attrs[a] {
		r = r.Extend(v)
	}
	return r
}

// AppendSet appends all particles of o (which must share the schema).
func (s *Set) AppendSet(o *Set) {
	if !s.Schema.Equal(o.Schema) {
		panic("particles: AppendSet schema mismatch")
	}
	s.X = append(s.X, o.X...)
	s.Y = append(s.Y, o.Y...)
	s.Z = append(s.Z, o.Z...)
	for i := range s.Attrs {
		s.Attrs[i] = append(s.Attrs[i], o.Attrs[i]...)
	}
}

// Select returns a new set containing the particles at the given indices,
// in order.
func (s *Set) Select(idx []int) *Set {
	out := NewSet(s.Schema, len(idx))
	for _, i := range idx {
		out.X = append(out.X, s.X[i])
		out.Y = append(out.Y, s.Y[i])
		out.Z = append(out.Z, s.Z[i])
		for a := range s.Attrs {
			out.Attrs[a] = append(out.Attrs[a], s.Attrs[a][i])
		}
	}
	return out
}

// Reorder permutes the set in place so that new position i holds the
// particle previously at perm[i]. perm must be a permutation of [0, Len).
func (s *Set) Reorder(perm []int) {
	if len(perm) != s.Len() {
		panic("particles: Reorder permutation length mismatch")
	}
	apply32 := func(a []float32) []float32 {
		out := make([]float32, len(a))
		for i, p := range perm {
			out[i] = a[p]
		}
		return out
	}
	s.X, s.Y, s.Z = apply32(s.X), apply32(s.Y), apply32(s.Z)
	for ai, a := range s.Attrs {
		out := make([]float64, len(a))
		for i, p := range perm {
			out[i] = a[p]
		}
		s.Attrs[ai] = out
	}
}

// Slice returns a view-copy of particles [lo, hi).
func (s *Set) Slice(lo, hi int) *Set {
	out := NewSet(s.Schema, hi-lo)
	out.X = append(out.X, s.X[lo:hi]...)
	out.Y = append(out.Y, s.Y[lo:hi]...)
	out.Z = append(out.Z, s.Z[lo:hi]...)
	for a := range s.Attrs {
		out.Attrs[a] = append(out.Attrs[a], s.Attrs[a][lo:hi]...)
	}
	return out
}

// Marshal serializes the set for network transfer between ranks as count
// u64, then one record per particle (AppendRecord). A receiver decodes it
// with AppendMarshaled.
func (s *Set) Marshal() []byte {
	n := s.Len()
	buf := make([]byte, 8, 8+n*s.Schema.RecordSize())
	binary.LittleEndian.PutUint64(buf, uint64(n))
	row := make([]float64, len(s.Attrs))
	for i := range n {
		for a, col := range s.Attrs {
			row[a] = col[i]
		}
		buf = AppendRecord(buf, s.X[i], s.Y[i], s.Z[i], row)
	}
	return buf
}

// AppendRecord appends one particle's wire record to dst: x, y, z as
// little-endian float32, then each attribute as little-endian float64.
func AppendRecord(dst []byte, x, y, z float32, attrs []float64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(x))
	dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(y))
	dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(z))
	for _, v := range attrs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// PayloadLen returns the particle count of a payload written by Marshal
// for this schema, or why buf is not one: shorter than its count field, a
// count beyond its bytes, or a length that is not that many records.
func (s Schema) PayloadLen(buf []byte) (int, error) {
	if len(buf) < 8 {
		return 0, fmt.Errorf("particles: short buffer (%d bytes)", len(buf))
	}
	nu := binary.LittleEndian.Uint64(buf)
	// Bound the count before narrowing it: each particle carries at least
	// 12 bytes of position payload, so a claimed count beyond len(buf)/12
	// is corrupt — and without this check a crafted header could overflow
	// the exact-size computation below after int conversion.
	if nu > uint64(len(buf))/12 {
		return 0, fmt.Errorf("particles: claimed count %d exceeds buffer capacity (%d bytes)", nu, len(buf))
	}
	n := int(nu)
	if want := 8 + n*s.RecordSize(); len(buf) != want {
		return 0, fmt.Errorf("particles: buffer is %d bytes, want %d for %d particles", len(buf), want, n)
	}
	return n, nil
}

// AppendMarshaled decodes a payload written by Marshal and appends its
// particles to s, whose schema the sender shared (it is fixed per dataset).
// Every check (PayloadLen) runs before anything is appended, so a refused
// payload leaves s as it was; an accepted one grows each column once, by
// its count.
func (s *Set) AppendMarshaled(buf []byte) error {
	n, err := s.Schema.PayloadLen(buf)
	if err != nil {
		return err
	}
	s.X, s.Y, s.Z = grow(s.X, n), grow(s.Y, n), grow(s.Z, n)
	for a := range s.Attrs {
		s.Attrs[a] = grow(s.Attrs[a], n)
	}
	for off := 8; off < len(buf); {
		s.X = append(s.X, math.Float32frombits(binary.LittleEndian.Uint32(buf[off:])))
		s.Y = append(s.Y, math.Float32frombits(binary.LittleEndian.Uint32(buf[off+4:])))
		s.Z = append(s.Z, math.Float32frombits(binary.LittleEndian.Uint32(buf[off+8:])))
		off += 12
		for a := range s.Attrs {
			s.Attrs[a] = append(s.Attrs[a], math.Float64frombits(binary.LittleEndian.Uint64(buf[off:])))
			off += 8
		}
	}
	return nil
}

// grow returns s with room for n more elements, doubling its capacity like
// append does; slices.Grow would also allocate a zeroed n-element
// temporary under the race detector.
func grow[T any](s []T, n int) []T {
	if cap(s)-len(s) < n {
		s = append(make([]T, 0, max(len(s)+n, 2*cap(s))), s...)
	}
	return s
}
