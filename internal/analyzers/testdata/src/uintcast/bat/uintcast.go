// Package bat is a uintcast fixture reproducing the PR 2 offset-wrap panic
// shape: a uint64 decoded from file bytes converted to int64 without a
// bounds check wraps negative and faults the subsequent ReadAt. The rule
// is local: every narrowing of a non-constant uint64 needs a relational
// guard on the same expression earlier in the same function, or on the
// same struct field inside a Decode* function.
package bat

import (
	"encoding/binary"
	"errors"
)

var errRange = errors.New("field out of range")

type leafRef struct {
	offset  uint64
	byteLen uint64
}

type readerAt interface {
	ReadAt(p []byte, off int64) (int, error)
}

// decodeRef populates a leafRef from raw file bytes. It is not named
// Decode* and compares nothing, so the fields earn no package-wide trust:
// every later narrowing must bound them (or be flagged).
func decodeRef(buf []byte) leafRef {
	return leafRef{
		offset:  binary.LittleEndian.Uint64(buf[0:]),
		byteLen: binary.LittleEndian.Uint64(buf[8:]),
	}
}

// loadUnchecked is the bug: ref.offset is attacker-controlled file bytes
// (stored by decodeRef) and goes into ReadAt unbounded.
func loadUnchecked(r readerAt, ref leafRef) ([]byte, error) {
	buf := make([]byte, 16)
	_, err := r.ReadAt(buf, int64(ref.offset)) // want `unchecked conversion int64\(ref\.offset\) of untrusted uint64`
	return buf, err
}

// loadGuarded is the fix the fuzzer finding led to: compare against the
// file size before converting.
func loadGuarded(r readerAt, ref leafRef, size int64) ([]byte, error) {
	if ref.offset > uint64(size) {
		return nil, errRange
	}
	buf := make([]byte, 16)
	_, err := r.ReadAt(buf, int64(ref.offset))
	return buf, err
}

// loadWaived documents a bound established somewhere the analyzer cannot
// see; the directive is the auditable escape hatch.
func loadWaived(r readerAt, ref leafRef) ([]byte, error) {
	buf := make([]byte, 16)
	//batlint:ignore uintcast offset validated against file size by the caller's retry loop
	_, err := r.ReadAt(buf, int64(ref.offset))
	return buf, err
}

// decodeCount narrows a decoded length with no bound: a crafted header can
// make the count negative after conversion.
func decodeCount(buf []byte) int {
	return int(binary.LittleEndian.Uint64(buf)) // want `unchecked conversion int\(binary\.LittleEndian\.Uint64\(buf\)\) of untrusted uint64`
}

// decodeCountGuarded bounds the uint64 before narrowing.
func decodeCountGuarded(buf []byte) (int, error) {
	cnt := binary.LittleEndian.Uint64(buf[:8])
	if cnt > uint64(len(buf))/12 {
		return 0, errRange
	}
	return int(cnt), nil
}

// decodeCountClamped bounds with the min builtin instead of a branch; the
// rule only knows relational guards, so this shape needs a waiver (or the
// branch).
func decodeCountClamped(buf []byte) int {
	return int(min(binary.LittleEndian.Uint64(buf), 1<<20)) // want `unchecked conversion int\(min\(.*\)\) of untrusted uint64`
}

// headerLen converts a constant: the compiler checks that, not batlint.
func headerLen() int {
	const fixed uint64 = 48
	return int(fixed)
}

// widen goes the lossless direction and is never a finding.
func widen(n uint32) uint64 {
	return uint64(n)
}

// encoderSide narrows a locally computed accumulator that never touches
// decoded input. The rule cannot tell, so the truncation takes a justified
// waiver (the shape of the bit writer in codec.go).
func encoderSide(vals []uint64) []byte {
	var acc uint64
	out := make([]byte, 0, len(vals))
	for _, v := range vals {
		acc |= v
		out = append(out, byte(acc)) //batlint:ignore uintcast encoder-side accumulator; truncation to the low byte is the point
	}
	return out
}

// --- values that cross a function boundary ---

// readOffset returns decoded input without narrowing it: nothing to flag.
func readOffset(buf []byte) uint64 {
	return binary.LittleEndian.Uint64(buf)
}

// useOffset narrows a helper's result unguarded: same bug, one call deep.
func useOffset(buf []byte) int {
	return int(readOffset(buf)) // want `unchecked conversion int\(readOffset\(buf\)\) of untrusted uint64`
}

// useOffsetBounded bounds the helper's result before narrowing.
func useOffsetBounded(buf []byte) int {
	off := readOffset(buf)
	if off > 1<<20 {
		return 0
	}
	return int(off)
}

// seekTo narrows its parameter unguarded. Whatever its callers checked is
// out of sight, so the finding lands here, on the narrowing itself, not
// at the call sites.
func seekTo(r readerAt, off uint64) ([]byte, error) {
	buf := make([]byte, 16)
	_, err := r.ReadAt(buf, int64(off)) // want `unchecked conversion int64\(off\) of untrusted uint64`
	return buf, err
}

// seekDecoded hands decoded input straight to the narrowing helper: it
// narrows nothing itself, so the one finding is seekTo's.
func seekDecoded(r readerAt, buf []byte) ([]byte, error) {
	return seekTo(r, binary.LittleEndian.Uint64(buf))
}

// validOffset bounds its parameter, but in a helper: that does not guard
// a narrowing in the caller.
func validOffset(off uint64, size int64) bool {
	return off < uint64(size)
}

// readValidated establishes the bound in the helper and narrows here: the
// accepted trade of the local rule is that this takes a waiver.
func readValidated(r readerAt, buf []byte, size int64) ([]byte, error) {
	off := binary.LittleEndian.Uint64(buf)
	if !validOffset(off, size) {
		return nil, errRange
	}
	out := make([]byte, 16)
	//batlint:ignore uintcast off < size established by validOffset above
	_, err := r.ReadAt(out, int64(off))
	return out, err
}

// --- the Decode* package-wide trust rule ---

// header models the cross-function Decode rule: fields bounded against the
// file size in Decode are trusted for narrowing everywhere in the package.
type header struct {
	count  uint64 // bounded in Decode
	offset uint64 // bounded in Decode
	stride uint64 // never bounded in Decode
}

// Decode is the validation point the analyzer recognizes by name.
func Decode(buf []byte, size int64) (*header, error) {
	h := &header{
		count:  binary.LittleEndian.Uint64(buf[0:]),
		offset: binary.LittleEndian.Uint64(buf[8:]),
		stride: binary.LittleEndian.Uint64(buf[16:]),
	}
	if h.count > uint64(size) {
		return nil, errRange
	}
	if h.offset > uint64(size) {
		return nil, errRange
	}
	return h, nil
}

// useDecodedCount narrows a field Decode bounded: no finding, no waiver.
func useDecodedCount(h *header) int {
	return int(h.count)
}

// readDecodedOffset is the retired-waiver shape: offset was checked
// against the file size in Decode, so the conversion is safe here.
func readDecodedOffset(r readerAt, h *header) ([]byte, error) {
	buf := make([]byte, 16)
	_, err := r.ReadAt(buf, int64(h.offset))
	return buf, err
}

// useUncheckedStride narrows a field Decode never compared: still flagged.
func useUncheckedStride(h *header) int {
	return int(h.stride) // want `unchecked conversion int\(h\.stride\) of untrusted uint64`
}

// validateStride bounds stride, but outside Decode: that establishes no
// package-wide trust, so useUncheckedStride above stays a finding.
func validateStride(h *header) bool {
	return h.stride < 4096
}
