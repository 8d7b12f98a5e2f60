// Package binfmt is the little-endian codec under every format of the
// module: the BAT file (header, leaf records, dictionary, treelets,
// footer; paper §III-C), the top-level metadata (§III-D) and the
// pipelines' control messages read through Reader and write through Writer.
//
// Reader keeps the first error it meets and turns every later read into a
// no-op returning zero, so a decoder reads fields straight through and
// checks Err only where a later step depends on a value: before a magic or
// version check, before a bound that gates an allocation or a narrowing
// conversion, and once at the end.
package binfmt

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"libbat/internal/bitmap"
	"libbat/internal/geom"
	"libbat/internal/pfs"
)

// MaxStrLen is the longest string Str can frame: its length is a u16.
const MaxStrLen = math.MaxUint16

// refill is the least a Reader over an io.ReaderAt reads at a time.
const refill = 1 << 16

// Reader decodes little-endian fields from a byte buffer, or sequentially
// from the start of an io.ReaderAt, buffering ahead in 64 KiB chunks.
type Reader struct {
	src  io.ReaderAt
	ctx  context.Context
	size int64
	buf  []byte
	pos  int
	err  error
}

// NewReader reads buf, which is all there is: it never refills.
func NewReader(buf []byte) *Reader {
	return &Reader{buf: buf, size: int64(len(buf))}
}

// NewReaderAt reads the size bytes of src from offset 0. Each refill goes
// through pfs.ReadAtContext, so once ctx ends no further read is issued and
// ctx-aware sources abort mid-read.
func NewReaderAt(ctx context.Context, src io.ReaderAt, size int64) *Reader {
	return &Reader{src: src, ctx: ctx, size: size}
}

// Err returns the first error any read met, or nil.
func (r *Reader) Err() error { return r.err }

// Failf records a decoder's own refusal of a value it read as the Reader's
// error, unless an earlier one is kept already.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Offset is the number of bytes consumed so far.
func (r *Reader) Offset() int { return r.pos }

// Remaining is the number of bytes left to read.
func (r *Reader) Remaining() int64 { return r.size - int64(r.pos) }

// Consumed returns the bytes read so far.
func (r *Reader) Consumed() []byte { return r.buf[:r.pos] }

// Rest returns the buffered bytes not yet read without consuming them: all
// that remains for a Reader made by NewReader.
func (r *Reader) Rest() []byte { return r.buf[r.pos:] }

// Bytes consumes the next n bytes and returns them, aliasing the Reader's
// buffer; nil once an error has occurred.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || int64(n) > r.Remaining() {
		r.err = fmt.Errorf("truncated at offset %d (%d bytes wanted, %d remain): %w",
			r.pos, n, r.Remaining(), io.ErrUnexpectedEOF)
		return nil
	}
	if short := r.pos + n - len(r.buf); short > 0 {
		start := int64(len(r.buf))
		grow := int64(max(short, refill))
		if grow > r.size-start {
			grow = r.size - start
		}
		chunk := make([]byte, grow)
		if err := pfs.ReadFullAt(r.ctx, r.src, chunk, start); err != nil {
			r.err = err
			return nil
		}
		r.buf = append(r.buf, chunk...)
	}
	b := r.buf[r.pos : r.pos+n : r.pos+n]
	r.pos += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if b := r.Bytes(1); b != nil {
		return b[0]
	}
	return 0
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	if b := r.Bytes(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.Bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.Bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// I32 reads a two's-complement int32.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// F64 reads an IEEE 754 float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Str reads a u16 length and that many bytes.
func (r *Reader) Str() string { return string(r.Bytes(int(r.U16()))) }

// Box reads lower x, y, z then upper x, y, z as f64.
func (r *Reader) Box() geom.Box {
	lo := geom.V3(r.F64(), r.F64(), r.F64())
	return geom.NewBox(lo, geom.V3(r.F64(), r.F64(), r.F64()))
}

// Range reads min then max as f64.
func (r *Reader) Range() bitmap.Range {
	return bitmap.Range{Min: r.F64(), Max: r.F64()}
}

// Bitmaps reads n u32 bitmaps.
func (r *Reader) Bitmaps(n int) []bitmap.Bitmap {
	b := r.Bytes(4 * n)
	if b == nil {
		return nil
	}
	out := make([]bitmap.Bitmap, n)
	for i := range out {
		out[i] = bitmap.Bitmap(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// IDs reads a run of n u16 bitmap IDs into the tail of backing — one array
// for all the nodes of a tree, not one per node — and returns them.
func (r *Reader) IDs(backing *[]bitmap.ID, n int) []bitmap.ID {
	b := r.Bytes(2 * n)
	if b == nil {
		return nil
	}
	from := len(*backing)
	for i := 0; i < n; i++ {
		*backing = append(*backing, bitmap.ID(binary.LittleEndian.Uint16(b[2*i:])))
	}
	return (*backing)[from:len(*backing):len(*backing)]
}

// Writer appends little-endian fields to Buf. Buf may be a zero-length
// window with a capacity bound into a larger image, such as
// image[off:off:end]: the writes then land in place, so workers holding
// Writers over disjoint windows fill one image concurrently, and a window
// written past its capacity reallocates instead of touching its
// neighbour's bytes — a caller that checks len(Buf) against the window
// size at the end catches either mistake.
type Writer struct {
	Buf []byte
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.Buf = append(w.Buf, v) }

// U16 appends a little-endian uint16.
func (w *Writer) U16(v uint16) { w.Buf = binary.LittleEndian.AppendUint16(w.Buf, v) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.Buf = binary.LittleEndian.AppendUint32(w.Buf, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.Buf = binary.LittleEndian.AppendUint64(w.Buf, v) }

// I32 appends a two's-complement int32.
func (w *Writer) I32(v int32) { w.U32(uint32(v)) }

// F32 appends an IEEE 754 float32.
func (w *Writer) F32(v float32) { w.U32(math.Float32bits(v)) }

// F64 appends an IEEE 754 float64.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bytes appends b as is.
func (w *Writer) Bytes(b []byte) { w.Buf = append(w.Buf, b...) }

// Str appends a u16 length and s. len(s) must be at most MaxStrLen; the
// formats' builders reject longer names before anything is written.
func (w *Writer) Str(s string) {
	w.U16(uint16(len(s)))
	w.Buf = append(w.Buf, s...)
}

// Box appends lower x, y, z then upper x, y, z as f64.
func (w *Writer) Box(b geom.Box) {
	for _, v := range [6]float64{b.Lower.X, b.Lower.Y, b.Lower.Z, b.Upper.X, b.Upper.Y, b.Upper.Z} {
		w.F64(v)
	}
}

// Range appends min then max as f64.
func (w *Writer) Range(rg bitmap.Range) {
	w.F64(rg.Min)
	w.F64(rg.Max)
}

// Bitmaps appends each bitmap as a u32.
func (w *Writer) Bitmaps(bms []bitmap.Bitmap) {
	for _, b := range bms {
		w.U32(uint32(b))
	}
}

// IDs appends each bitmap ID as a u16.
func (w *Writer) IDs(ids []bitmap.ID) {
	for _, id := range ids {
		w.U16(uint16(id))
	}
}
