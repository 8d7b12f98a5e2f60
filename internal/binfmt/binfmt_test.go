package binfmt

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"libbat/internal/bitmap"
	"libbat/internal/geom"
)

// countingReaderAt serves data and counts the reads it is asked for.
type countingReaderAt struct {
	data  []byte
	reads int
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.reads++
	return bytes.NewReader(c.data).ReadAt(p, off)
}

// TestRoundTrip: every Writer primitive reads back through its Reader twin.
func TestRoundTrip(t *testing.T) {
	box := geom.NewBox(geom.V3(-1, 2, -3), geom.V3(4, 5.5, 6))
	var w Writer
	w.U8(0xab)
	w.U16(0xbeef)
	w.U32(0xdeadbeef)
	w.U64(1 << 60)
	w.I32(-7)
	w.F64(-2.5)
	w.Str("temp")
	w.Box(box)
	w.Range(bitmap.Range{Min: -1, Max: 3})
	w.Bitmaps([]bitmap.Bitmap{1, 0xffffffff})
	w.IDs([]bitmap.ID{3, 65535})

	r := NewReader(w.Buf)
	if v := r.U8(); v != 0xab {
		t.Errorf("U8 = %#x", v)
	}
	if v := r.U16(); v != 0xbeef {
		t.Errorf("U16 = %#x", v)
	}
	if v := r.U32(); v != 0xdeadbeef {
		t.Errorf("U32 = %#x", v)
	}
	if v := r.U64(); v != 1<<60 {
		t.Errorf("U64 = %#x", v)
	}
	if v := r.I32(); v != -7 {
		t.Errorf("I32 = %d", v)
	}
	if v := r.F64(); v != -2.5 {
		t.Errorf("F64 = %v", v)
	}
	if v := r.Str(); v != "temp" {
		t.Errorf("Str = %q", v)
	}
	if v := r.Box(); v != box {
		t.Errorf("Box = %v", v)
	}
	if v := r.Range(); v != (bitmap.Range{Min: -1, Max: 3}) {
		t.Errorf("Range = %v", v)
	}
	if v := r.Bitmaps(2); len(v) != 2 || v[0] != 1 || v[1] != 0xffffffff {
		t.Errorf("Bitmaps = %v", v)
	}
	var backing []bitmap.ID
	if v := r.IDs(&backing, 2); len(v) != 2 || v[0] != 3 || v[1] != 65535 {
		t.Errorf("IDs = %v", v)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != 0 || r.Offset() != len(w.Buf) {
		t.Errorf("Remaining %d, Offset %d of %d", r.Remaining(), r.Offset(), len(w.Buf))
	}
}

// TestStickyError: after the first failing read every later read returns
// zero and leaves Err as it was; the error wraps io.ErrUnexpectedEOF and
// names the offset it stopped at.
func TestStickyError(t *testing.T) {
	three := []byte{1, 2, 3}
	for _, tc := range []struct {
		name     string
		buf      []byte
		read     func(r *Reader) // consumes what fits, then fails
		atOffset string
	}{
		{"u32 of 3 bytes", three, func(r *Reader) { r.U32() }, "offset 0"},
		{"u16 then u16", three, func(r *Reader) { r.U16(); r.U16() }, "offset 2"},
		{"str longer than buf", []byte{9, 0, 'a'}, func(r *Reader) { r.Str() }, "offset 2"},
		{"negative length", three, func(r *Reader) { r.Bytes(-1) }, "offset 0"},
		{"bitmaps", three, func(r *Reader) { r.Bitmaps(1) }, "offset 0"},
		{"ids", three, func(r *Reader) { r.IDs(new([]bitmap.ID), 2) }, "offset 0"},
		{"box", make([]byte, 40), func(r *Reader) { r.Box() }, "offset 40"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(tc.buf)
			tc.read(r)
			first := r.Err()
			if !errors.Is(first, io.ErrUnexpectedEOF) {
				t.Fatalf("Err = %v, want io.ErrUnexpectedEOF", first)
			}
			if !strings.Contains(first.Error(), tc.atOffset) {
				t.Errorf("Err = %q, want it to name %s", first, tc.atOffset)
			}
			off := r.Offset()
			// Later reads of any size return zero, even ones that would fit.
			if r.U8() != 0 || r.U16() != 0 || r.U32() != 0 || r.U64() != 0 || r.I32() != 0 ||
				r.F64() != 0 || r.Str() != "" || r.Bytes(0) != nil || r.Bitmaps(0) != nil {
				t.Error("a read after the error returned non-zero")
			}
			if (r.Box() != geom.Box{}) || (r.Range() != bitmap.Range{}) {
				t.Error("a read after the error returned non-zero")
			}
			if r.Err() != first {
				t.Errorf("Err changed from %v to %v", first, r.Err())
			}
			if r.Offset() != off {
				t.Errorf("Offset moved from %d to %d after the error", off, r.Offset())
			}
		})
	}
}

// TestFailf: a decoder's own refusal becomes the Reader's sticky error and
// later reads return zero; an earlier error is kept.
func TestFailf(t *testing.T) {
	r := NewReader([]byte{1, 2, 3, 4, 5})
	r.U8()
	r.Failf("count %d", 7)
	r.Failf("second")
	if r.Err() == nil || r.Err().Error() != "count 7" {
		t.Fatalf("Err = %v, want the first refusal", r.Err())
	}
	if r.U32() != 0 || r.Offset() != 1 {
		t.Errorf("a read after Failf returned data or moved the offset to %d", r.Offset())
	}
	r = NewReader(nil)
	r.U8()
	r.Failf("late")
	if !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
		t.Errorf("Err = %v, want the truncation kept", r.Err())
	}
}

// TestRefill: a Reader over an io.ReaderAt returns the right bytes across
// the 64 KiB chunk boundary, reads no further than it must, and reports a
// short source as truncation.
func TestRefill(t *testing.T) {
	data := make([]byte, 3*refill/2)
	for i := range data {
		data[i] = byte(i * 7)
	}
	for _, tc := range []struct {
		name      string
		skip, n   int
		wantReads int
	}{
		{"within the first chunk", 10, 8, 1},
		{"straddling the boundary", refill - 3, 8, 2},
		{"starting at the boundary", refill, 8, 2},
		{"one read larger than a chunk", 0, refill + 100, 1},
		{"up to the last byte", len(data) - 4, 4, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := &countingReaderAt{data: data}
			r := NewReaderAt(context.Background(), src, int64(len(data)))
			r.Bytes(tc.skip)
			got := r.Bytes(tc.n)
			if err := r.Err(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data[tc.skip:tc.skip+tc.n]) {
				t.Errorf("bytes at %d differ", tc.skip)
			}
			if src.reads != tc.wantReads {
				t.Errorf("%d reads, want %d", src.reads, tc.wantReads)
			}
			if c := r.Consumed(); !bytes.Equal(c, data[:tc.skip+tc.n]) {
				t.Errorf("Consumed holds %d bytes, want the first %d", len(c), tc.skip+tc.n)
			}
		})
	}

	// A read past the declared size fails without touching the source.
	src := &countingReaderAt{data: data}
	r := NewReaderAt(context.Background(), src, int64(len(data)))
	r.Bytes(len(data) + 1)
	if !errors.Is(r.Err(), io.ErrUnexpectedEOF) || src.reads != 0 {
		t.Errorf("read past the end: Err %v after %d reads", r.Err(), src.reads)
	}
	// A source shorter than the declared size surfaces its own error.
	src = &countingReaderAt{data: data[:100]}
	r = NewReaderAt(context.Background(), src, int64(len(data)))
	r.Bytes(200)
	if !errors.Is(r.Err(), io.EOF) {
		t.Errorf("short source: Err = %v, want io.EOF", r.Err())
	}
}

// TestRefillCanceled: once ctx has ended a refill returns ctx's error and
// issues no read.
func TestRefillCanceled(t *testing.T) {
	data := make([]byte, 2*refill)
	for _, tc := range []struct {
		name   string
		primed int // bytes read before the cancel
	}{
		{"canceled before the first read", 0},
		{"canceled between chunks", 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			src := &countingReaderAt{data: data}
			r := NewReaderAt(ctx, src, int64(len(data)))
			r.Bytes(tc.primed)
			reads := src.reads
			cancel()
			r.Bytes(refill) // needs a refill either way
			if !errors.Is(r.Err(), context.Canceled) {
				t.Errorf("Err = %v, want context.Canceled", r.Err())
			}
			if src.reads != reads {
				t.Errorf("%d reads issued after the cancel", src.reads-reads)
			}
		})
	}
}

// TestWriterWindow: a Writer over a capacity-bounded window of a larger
// image writes in place and never past the window.
func TestWriterWindow(t *testing.T) {
	img := make([]byte, 12)
	w := Writer{Buf: img[4:4:8]}
	w.U32(0x04030201)
	if !bytes.Equal(img, []byte{0, 0, 0, 0, 1, 2, 3, 4, 0, 0, 0, 0}) {
		t.Fatalf("image after an in-window write: %v", img)
	}
	w.U8(9) // past the window: reallocates, the neighbour is untouched
	if img[8] != 0 || len(w.Buf) != 5 {
		t.Errorf("overrun wrote into the neighbour (img[8]=%d) or lost bytes (len %d)", img[8], len(w.Buf))
	}
}
