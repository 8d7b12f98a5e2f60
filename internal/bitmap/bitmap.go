// Package bitmap implements the fixed-width binned bitmap indices used to
// accelerate attribute-subset queries in the BAT layout.
//
// Each index is exactly 32 bits: bit i covers the i-th of 32 equal-width
// bins spanning a value range. Restricting the width keeps storage fixed and
// predictable and allows deduplicating the bitmaps of a whole file through a
// small dictionary addressed by 16-bit IDs (paper §III-C2, §III-C3).
// Bitmaps merge with OR and test for potential overlap with AND; they admit
// false positives (a set bit only means "some value may fall in this bin")
// but never false negatives.
package bitmap

import (
	"errors"
	"math"
	"math/bits"
)

// Bins is the fixed number of value bins per bitmap.
const Bins = 32

// Bitmap is a 32-bin binned index over a value range.
type Bitmap uint32

// Range is a closed value interval an index is computed against.
type Range struct {
	Min, Max float64
}

// Extend grows the range to include v.
func (r Range) Extend(v float64) Range {
	return Range{Min: math.Min(r.Min, v), Max: math.Max(r.Max, v)}
}

// Union returns the smallest range covering both r and o.
func (r Range) Union(o Range) Range {
	return Range{Min: math.Min(r.Min, o.Min), Max: math.Max(r.Max, o.Max)}
}

// IsEmpty reports whether the range covers no values.
func (r Range) IsEmpty() bool { return r.Min > r.Max }

// EmptyRange returns the identity element for Extend/Union.
func EmptyRange() Range { return Range{Min: math.Inf(1), Max: math.Inf(-1)} }

// Width returns Max-Min, or 0 for empty or degenerate ranges.
func (r Range) Width() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Max - r.Min
}

// Bin returns the bin index in [0, Bins) that value v falls into relative to
// range r. Values outside the range clamp to the boundary bins; a degenerate
// range maps everything to bin 0.
func (r Range) Bin(v float64) int {
	w := r.Width()
	if w <= 0 {
		return 0
	}
	// Clamp before converting: a float beyond int64 (a query bound like
	// 1e30) does not convert to a large int but, on amd64, to the most
	// negative one, which would land in bin 0. NaN lands in bin 0.
	b := (v - r.Min) / w * Bins
	if !(b >= 0) {
		return 0
	}
	if b >= Bins {
		return Bins - 1
	}
	return int(b)
}

// BinRange returns the value interval covered by bin b of range r.
func (r Range) BinRange(b int) Range {
	w := r.Width()
	lo := r.Min + w*float64(b)/Bins
	hi := r.Min + w*float64(b+1)/Bins
	return Range{Min: lo, Max: hi}
}

// OfValue returns a bitmap with only the bin containing v set.
func OfValue(v float64, r Range) Bitmap {
	return 1 << uint(r.Bin(v))
}

// OfQuery returns the bitmap matching every bin that overlaps the query
// interval [lo, hi] relative to range r. Testing a node's bitmap with
// Overlaps against this mask conservatively answers "could any contained
// value satisfy the query?".
func OfQuery(lo, hi float64, r Range) Bitmap {
	if hi < lo || r.IsEmpty() {
		return 0
	}
	if hi < r.Min || lo > r.Max {
		return 0
	}
	b0 := r.Bin(lo)
	b1 := r.Bin(hi)
	var b Bitmap
	for i := b0; i <= b1; i++ {
		b |= 1 << uint(i)
	}
	return b
}

// Overlaps reports whether any bin is set in both bitmaps (bitwise AND).
func (b Bitmap) Overlaps(o Bitmap) bool { return b&o != 0 }

// PopCount returns the number of set bins.
func (b Bitmap) PopCount() int { return bits.OnesCount32(uint32(b)) }

// Remap re-expresses a bitmap computed against range `from` in terms of
// range `to`. Each set source bin is mapped to every destination bin its
// value interval overlaps, so the result remains conservative (no false
// negatives). This implements the aggregator-local to global range remap of
// paper §III-D.
func (b Bitmap) Remap(from, to Range) Bitmap {
	if b == 0 {
		return 0
	}
	if from == to {
		return b
	}
	if to.Width() <= 0 {
		// Degenerate destination: everything lands in bin 0.
		return 1
	}
	var out Bitmap
	for i := 0; i < Bins; i++ {
		if b&(1<<uint(i)) == 0 {
			continue
		}
		br := from.BinRange(i)
		if from.Width() <= 0 {
			// Degenerate source range: the bin holds exactly from.Min.
			br = Range{Min: from.Min, Max: from.Min}
		}
		out |= OfQuery(br.Min, br.Max, to)
	}
	return out
}

// ID indexes a Dictionary entry. The 16-bit width bounds dictionary size to
// 65536 unique bitmaps per file (paper §III-C3).
type ID uint16

// MaxDictSize is the maximum number of unique bitmaps a dictionary holds.
const MaxDictSize = 1 << 16

// ErrDictFull is returned when a dictionary exceeds MaxDictSize entries.
var ErrDictFull = errors.New("bitmap: dictionary exceeds 65536 unique bitmaps")

// Dictionary deduplicates the bitmaps of a tree, replacing each 32-bit
// bitmap with a 16-bit ID.
type Dictionary struct {
	entries []Bitmap
	index   map[Bitmap]ID
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{index: make(map[Bitmap]ID)}
}

// Intern returns the ID for b, adding it to the dictionary if new.
func (d *Dictionary) Intern(b Bitmap) (ID, error) {
	if id, ok := d.index[b]; ok {
		return id, nil
	}
	if len(d.entries) >= MaxDictSize {
		return 0, ErrDictFull
	}
	id := ID(len(d.entries))
	d.entries = append(d.entries, b)
	d.index[b] = id
	return id, nil
}

// Lookup returns the bitmap stored under id.
func (d *Dictionary) Lookup(id ID) Bitmap { return d.entries[id] }

// Len returns the number of unique bitmaps interned.
func (d *Dictionary) Len() int { return len(d.entries) }

// Entries returns the dictionary contents in ID order. The returned slice
// is the dictionary's backing store; callers must not modify it.
func (d *Dictionary) Entries() []Bitmap { return d.entries }

// FromEntries reconstructs a dictionary from serialized entries.
func FromEntries(entries []Bitmap) *Dictionary {
	d := &Dictionary{
		entries: append([]Bitmap(nil), entries...),
		index:   make(map[Bitmap]ID, len(entries)),
	}
	for i, e := range d.entries {
		if _, ok := d.index[e]; !ok {
			d.index[e] = ID(i)
		}
	}
	return d
}
