// Package morton implements 3D Morton (Z-order) codes used to build the
// shallow k-d tree of the BAT layout. Codes interleave 21 bits per
// axis into a 63-bit key; the high bits of the key form the "subprefix" that
// the shallow tree construction merges to group nearby particles.
package morton

import "libbat/internal/geom"

// Bits is the number of bits encoded per axis.
const Bits = 21

// TotalBits is the total number of bits in a Morton code (3 axes
// interleaved).
const TotalBits = 3 * Bits

// MaxCoord is the largest quantized coordinate representable per axis.
const MaxCoord = (1 << Bits) - 1

// Code is a 63-bit 3D Morton code stored in the low bits of a uint64.
type Code uint64

// spread3 inserts two zero bits between each of the low 21 bits of x.
func spread3(x uint64) uint64 {
	x &= 0x1fffff // keep 21 bits
	x = (x | x<<32) & 0x1f00000000ffff
	x = (x | x<<16) & 0x1f0000ff0000ff
	x = (x | x<<8) & 0x100f00f00f00f00f
	x = (x | x<<4) & 0x10c30c30c30c30c3
	x = (x | x<<2) & 0x1249249249249249
	return x
}

// compact3 is the inverse of spread3: it gathers every third bit of x into
// the low 21 bits of the result.
func compact3(x uint64) uint64 {
	x &= 0x1249249249249249
	x = (x ^ x>>2) & 0x10c30c30c30c30c3
	x = (x ^ x>>4) & 0x100f00f00f00f00f
	x = (x ^ x>>8) & 0x1f0000ff0000ff
	x = (x ^ x>>16) & 0x1f00000000ffff
	x = (x ^ x>>32) & 0x1fffff
	return x
}

// Encode interleaves the quantized coordinates (x, y, z), each in
// [0, MaxCoord], into a Morton code. Bit i of x lands at bit 3i of the code,
// y at 3i+1, z at 3i+2.
func Encode(x, y, z uint32) Code {
	return Code(spread3(uint64(x)) | spread3(uint64(y))<<1 | spread3(uint64(z))<<2)
}

// Decode recovers the quantized coordinates from a Morton code.
func Decode(c Code) (x, y, z uint32) {
	return uint32(compact3(uint64(c))),
		uint32(compact3(uint64(c) >> 1)),
		uint32(compact3(uint64(c) >> 2))
}

// Quantize maps a point inside bounds to integer grid coordinates in
// [0, MaxCoord]^3. Points on the upper boundary map to MaxCoord.
func Quantize(p geom.Vec3, bounds geom.Box) (x, y, z uint32) {
	n := bounds.Normalize(p)
	q := func(v float64) uint32 {
		if v <= 0 {
			return 0
		}
		if v >= 1 {
			return MaxCoord
		}
		return uint32(v * (MaxCoord + 1))
	}
	return q(n.X), q(n.Y), q(n.Z)
}

// FromPoint computes the Morton code of a point relative to bounds.
func FromPoint(p geom.Vec3, bounds geom.Box) Code {
	x, y, z := Quantize(p, bounds)
	return Encode(x, y, z)
}

// FromPoints encodes the points given as parallel single-precision
// coordinate arrays (the particle container's native layout) into dst,
// which must be at least as long as the coordinate slices. It produces
// exactly the codes FromPoint would, without constructing a Vec3 per
// particle, and is safe to call concurrently on disjoint sub-ranges:
//
//	FromPoints(dst[lo:hi], xs[lo:hi], ys[lo:hi], zs[lo:hi], bounds)
func FromPoints(dst []Code, xs, ys, zs []float32, bounds geom.Box) {
	lower, size := bounds.Lower, bounds.Size()
	q := func(v float64, lo, extent float64) uint64 {
		if extent <= 0 {
			return 0
		}
		// Same normalize-then-scale arithmetic as Quantize, so the
		// rounding (and therefore the code) is bit-identical.
		n := (v - lo) / extent
		if n <= 0 {
			return 0
		}
		if n >= 1 {
			return MaxCoord
		}
		return uint64(n * (MaxCoord + 1))
	}
	for i := range xs {
		x := q(float64(xs[i]), lower.X, size.X)
		y := q(float64(ys[i]), lower.Y, size.Y)
		z := q(float64(zs[i]), lower.Z, size.Z)
		dst[i] = Code(spread3(x) | spread3(y)<<1 | spread3(z)<<2)
	}
}

// Subprefix returns the top `bits` bits of the code, right-aligned. This is
// the key merged by the shallow-tree construction: particles sharing a
// subprefix fall in the same coarse spatial cell.
func (c Code) Subprefix(bits int) Code {
	if bits <= 0 {
		return 0
	}
	if bits >= TotalBits {
		return c
	}
	return c >> uint(TotalBits-bits)
}

// CellBounds returns the spatial region covered by a subprefix of the given
// bit length, relative to the domain bounds. Every point whose Morton code
// starts with the subprefix lies inside the returned box.
func CellBounds(prefix Code, bits int, domain geom.Box) geom.Box {
	if bits <= 0 {
		return domain
	}
	if bits > TotalBits {
		bits = TotalBits
	}
	// Shift the prefix back into position then decode the cell origin.
	c := uint64(prefix) << uint(TotalBits-bits)
	x := compact3(c)
	y := compact3(c >> 1)
	z := compact3(c >> 2)
	// Bits per axis consumed by the prefix. Interleave order within each
	// 3-bit group is x (bit 3i), y, z, and prefixes take the HIGH bits, so
	// the highest axis bits are consumed first: z gets a bit when bits%3>=1
	// counted from the top. The top bit of the code (bit 62) is z's bit 20.
	zb := (bits + 2) / 3
	yb := (bits + 1) / 3
	xb := bits / 3
	size := domain.Size()
	cell := geom.Vec3{
		X: size.X / float64(uint64(1)<<uint(xb)),
		Y: size.Y / float64(uint64(1)<<uint(yb)),
		Z: size.Z / float64(uint64(1)<<uint(zb)),
	}
	// The decoded coordinates have the consumed bits in their high
	// positions; shift down to get the cell index.
	xi := x >> uint(Bits-xb)
	yi := y >> uint(Bits-yb)
	zi := z >> uint(Bits-zb)
	lower := geom.Vec3{
		X: domain.Lower.X + float64(xi)*cell.X,
		Y: domain.Lower.Y + float64(yi)*cell.Y,
		Z: domain.Lower.Z + float64(zi)*cell.Z,
	}
	return geom.NewBox(lower, lower.Add(cell))
}
