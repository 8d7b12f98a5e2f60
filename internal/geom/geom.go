// Package geom provides the small set of 3D geometric primitives used
// throughout the library: vectors, axis-aligned bounding boxes, and the
// axis/overlap helpers needed by the aggregation tree and the BAT layout.
package geom

import (
	"fmt"
	"math"
)

// Axis identifies one of the three spatial axes.
type Axis int

// The three spatial axes.
const (
	X Axis = iota
	Y
	Z
)

func (a Axis) String() string {
	switch a {
	case X:
		return "x"
	case Y:
		return "y"
	case Z:
		return "z"
	}
	return fmt.Sprintf("Axis(%d)", int(a))
}

// Vec3 is a point or direction in 3D space.
type Vec3 struct {
	X, Y, Z float64
}

// V3 constructs a Vec3.
func V3(x, y, z float64) Vec3 { return Vec3{x, y, z} }

// Add returns v + o.
func (v Vec3) Add(o Vec3) Vec3 { return Vec3{v.X + o.X, v.Y + o.Y, v.Z + o.Z} }

// Sub returns v - o.
func (v Vec3) Sub(o Vec3) Vec3 { return Vec3{v.X - o.X, v.Y - o.Y, v.Z - o.Z} }

// Scale returns v * s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the dot product of v and o.
func (v Vec3) Dot(o Vec3) float64 { return v.X*o.X + v.Y*o.Y + v.Z*o.Z }

// Length returns the Euclidean norm of v.
func (v Vec3) Length() float64 { return math.Sqrt(v.Dot(v)) }

// Component returns the coordinate of v along axis a.
func (v Vec3) Component(a Axis) float64 {
	switch a {
	case X:
		return v.X
	case Y:
		return v.Y
	default:
		return v.Z
	}
}

// SetComponent returns a copy of v with the coordinate along axis a replaced.
func (v Vec3) SetComponent(a Axis, val float64) Vec3 {
	switch a {
	case X:
		v.X = val
	case Y:
		v.Y = val
	default:
		v.Z = val
	}
	return v
}

// Min returns the component-wise minimum of v and o. The builtin min orders
// -0 below +0 and returns NaN when either operand is NaN — math.Min's rules,
// except that math.Min(-Inf, NaN) is -Inf — and it inlines, so Box.Extend
// does too.
func (v Vec3) Min(o Vec3) Vec3 {
	return Vec3{min(v.X, o.X), min(v.Y, o.Y), min(v.Z, o.Z)}
}

// Max returns the component-wise maximum of v and o, by the builtin max: +0
// above -0, NaN when either operand is NaN (math.Max(+Inf, NaN) is +Inf).
func (v Vec3) Max(o Vec3) Vec3 {
	return Vec3{max(v.X, o.X), max(v.Y, o.Y), max(v.Z, o.Z)}
}

// Box is an axis-aligned bounding box. A box with Lower > Upper on any axis
// is considered empty; EmptyBox returns the canonical empty box.
type Box struct {
	Lower, Upper Vec3
}

// EmptyBox returns a box that contains nothing and acts as the identity for
// Union.
func EmptyBox() Box {
	inf := math.Inf(1)
	return Box{Lower: Vec3{inf, inf, inf}, Upper: Vec3{-inf, -inf, -inf}}
}

// NewBox returns the box spanning [lower, upper].
func NewBox(lower, upper Vec3) Box { return Box{Lower: lower, Upper: upper} }

// IsEmpty reports whether the box contains no volume and no points.
func (b Box) IsEmpty() bool {
	return b.Lower.X > b.Upper.X || b.Lower.Y > b.Upper.Y || b.Lower.Z > b.Upper.Z
}

// Union returns the smallest box containing both b and o.
func (b Box) Union(o Box) Box {
	return Box{Lower: b.Lower.Min(o.Lower), Upper: b.Upper.Max(o.Upper)}
}

// Extend returns the smallest box containing b and the point p.
func (b Box) Extend(p Vec3) Box {
	return Box{Lower: b.Lower.Min(p), Upper: b.Upper.Max(p)}
}

// Size returns the extent of the box along each axis.
func (b Box) Size() Vec3 { return b.Upper.Sub(b.Lower) }

// Center returns the centroid of the box.
func (b Box) Center() Vec3 { return b.Lower.Add(b.Upper).Scale(0.5) }

// Volume returns the volume of the box, or 0 for an empty box.
func (b Box) Volume() float64 {
	if b.IsEmpty() {
		return 0
	}
	s := b.Size()
	return s.X * s.Y * s.Z
}

// LongestAxis returns the axis along which the box is widest.
func (b Box) LongestAxis() Axis {
	s := b.Size()
	if s.X >= s.Y && s.X >= s.Z {
		return X
	}
	if s.Y >= s.Z {
		return Y
	}
	return Z
}

// Contains reports whether the point p lies inside the box (inclusive).
func (b Box) Contains(p Vec3) bool {
	return p.X >= b.Lower.X && p.X <= b.Upper.X &&
		p.Y >= b.Lower.Y && p.Y <= b.Upper.Y &&
		p.Z >= b.Lower.Z && p.Z <= b.Upper.Z
}

// Overlaps reports whether b and o share any point (inclusive of faces).
func (b Box) Overlaps(o Box) bool {
	if b.IsEmpty() || o.IsEmpty() {
		return false
	}
	return b.Lower.X <= o.Upper.X && b.Upper.X >= o.Lower.X &&
		b.Lower.Y <= o.Upper.Y && b.Upper.Y >= o.Lower.Y &&
		b.Lower.Z <= o.Upper.Z && b.Upper.Z >= o.Lower.Z
}

// ContainsBox reports whether o lies entirely within b.
func (b Box) ContainsBox(o Box) bool {
	if o.IsEmpty() {
		return true
	}
	return b.Contains(o.Lower) && b.Contains(o.Upper)
}

// Intersect returns the overlap region of b and o; the result may be empty.
func (b Box) Intersect(o Box) Box {
	return Box{Lower: b.Lower.Max(o.Lower), Upper: b.Upper.Min(o.Upper)}
}

// SplitAt cuts the box with a plane perpendicular to axis at position pos,
// returning the lower and upper halves. pos is clamped into the box.
func (b Box) SplitAt(axis Axis, pos float64) (lo, hi Box) {
	pos = max(b.Lower.Component(axis), min(b.Upper.Component(axis), pos))
	lo, hi = b, b
	lo.Upper = lo.Upper.SetComponent(axis, pos)
	hi.Lower = hi.Lower.SetComponent(axis, pos)
	return lo, hi
}

// Normalize maps p into [0,1]^3 coordinates relative to the box. Degenerate
// axes (zero extent) map to 0.
func (b Box) Normalize(p Vec3) Vec3 {
	s := b.Size()
	var out Vec3
	if s.X > 0 {
		out.X = (p.X - b.Lower.X) / s.X
	}
	if s.Y > 0 {
		out.Y = (p.Y - b.Lower.Y) / s.Y
	}
	if s.Z > 0 {
		out.Z = (p.Z - b.Lower.Z) / s.Z
	}
	return out
}

func (b Box) String() string {
	return fmt.Sprintf("[(%g, %g, %g) - (%g, %g, %g)]",
		b.Lower.X, b.Lower.Y, b.Lower.Z, b.Upper.X, b.Upper.Y, b.Upper.Z)
}
