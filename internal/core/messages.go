// Package core implements the paper's two-phase I/O pipelines over the
// simulated MPI fabric: spatially aware adaptive aggregation writes
// (§III, Figure 1) and client/server two-phase reads (§IV, Figure 3). All
// ranks call Write/Read collectively, exactly as a simulation would call
// the paper's C API from every MPI rank.
package core

import (
	"fmt"
	"math"
	"time"

	"libbat/internal/bat"
	"libbat/internal/binfmt"
	"libbat/internal/bitmap"
	"libbat/internal/geom"
	"libbat/internal/meta"
)

// Message tags of the pipelines' point-to-point messages.
const (
	tagData = iota + 1
	tagQuery
	tagReply
)

// leafAssign tells an aggregator about one leaf it must receive and write.
type leafAssign struct {
	Leaf    int
	Bounds  geom.Box
	Senders []int // member ranks holding particles (may include the aggregator)
	Counts  []int64
}

// assignMsg is rank 0's scatter payload (Figure 1a, end).
type assignMsg struct {
	// Aggregator is the rank this rank must send its particles to, or -1
	// if it holds none.
	Aggregator int
	// Leaves are the leaves this rank aggregates (usually zero or one).
	Leaves []leafAssign
}

// reportMsg carries an aggregator's per-leaf report to rank 0 in the
// write's closing gather (Figure 1d). Err marks a leaf whose build or write
// failed; rank 0 then skips the metadata and the write fails everywhere.
type reportMsg struct {
	meta.LeafReport
	Err string
}

// The control messages are fixed little-endian layouts over binfmt (DESIGN.md
// §10 tabulates them); a string is a u32 length and its bytes. Peer bytes
// are untrusted: a decoder bounds each count by the bytes left before it
// allocates, refuses trailing bytes, so an accepted message re-encodes to
// the same bytes, and never panics.

// encodeInfo is a rank's part of the plan's gather (Figure 1a): its count
// and bounds.
func encodeInfo(count int64, bounds geom.Box) []byte {
	w := binfmt.Writer{Buf: make([]byte, 0, 56)}
	w.U64(uint64(count))
	w.Box(bounds)
	return w.Buf
}

func decodeInfo(raw []byte) (int64, geom.Box, error) {
	r := binfmt.NewReader(raw)
	count, bounds := nonNegative(r), r.Box()
	return count, bounds, finish(r)
}

func encodeAssign(a assignMsg) []byte {
	var w binfmt.Writer
	w.I32(int32(a.Aggregator))
	w.U32(uint32(len(a.Leaves)))
	for _, la := range a.Leaves {
		w.U32(uint32(la.Leaf))
		w.Box(la.Bounds)
		w.U32(uint32(len(la.Senders)))
		for i, s := range la.Senders {
			w.U32(uint32(s))
			w.U64(uint64(la.Counts[i]))
		}
	}
	return w.Buf
}

func decodeAssign(raw []byte) (assignMsg, error) {
	r := binfmt.NewReader(raw)
	a := assignMsg{Aggregator: int(r.I32()), Leaves: make([]leafAssign, count(r, 56))}
	for l := range a.Leaves {
		la := &a.Leaves[l]
		la.Leaf, la.Bounds = int(r.U32()), r.Box()
		n := count(r, 12)
		la.Senders, la.Counts = make([]int, n), make([]int64, n)
		for i := range n {
			la.Senders[i], la.Counts[i] = int(r.U32()), nonNegative(r)
		}
	}
	return a, finish(r)
}

// checkAssign refuses an assignment its rank cannot carry out in a world of
// size ranks: an aggregator outside [0, size), or none (−1) for a rank
// holding particles, or a leaf member outside [0, size) or named twice. The
// first would panic in fabric.Send, the others leave an aggregator waiting
// forever on a member's particles.
func checkAssign(a assignMsg, size, nLocal int) error {
	if a.Aggregator < -1 || a.Aggregator >= size {
		return fmt.Errorf("aggregator %d outside the %d ranks", a.Aggregator, size)
	}
	if a.Aggregator < 0 && nLocal > 0 {
		return fmt.Errorf("%d particles but no aggregator", nLocal)
	}
	for _, la := range a.Leaves {
		seen := make([]bool, size)
		for _, s := range la.Senders {
			if s < 0 || s >= size {
				return fmt.Errorf("leaf %d member %d outside the %d ranks", la.Leaf, s, size)
			}
			if seen[s] {
				return fmt.Errorf("leaf %d names member %d twice", la.Leaf, s)
			}
			seen[s] = true
		}
	}
	return nil
}

// encodeRecord builds one rank's part of the write's closing gather: its
// phase timings, fixed width so the gather's bytes do not depend on the
// measured times, then, on an aggregator, its leaf reports.
func encodeRecord(pt PhaseTimes, reports []reportMsg) []byte {
	var w binfmt.Writer
	for _, d := range pt.fields() {
		w.U64(uint64(*d))
	}
	for _, rm := range reports {
		w.U32(uint32(rm.Leaf))
		putStr(&w, rm.FileName)
		w.U64(uint64(rm.Count))
		w.Box(rm.Bounds)
		w.U32(uint32(len(rm.LocalRanges)))
		for a, rg := range rm.LocalRanges {
			w.Range(rg)
			w.U32(uint32(rm.RootBitmaps[a]))
		}
		putStr(&w, rm.Err)
	}
	return w.Buf
}

func decodeRecord(raw []byte) (PhaseTimes, []reportMsg, error) {
	r := binfmt.NewReader(raw)
	var pt PhaseTimes
	for _, d := range pt.fields() {
		*d = time.Duration(nonNegative(r))
	}
	var reports []reportMsg
	for r.Err() == nil && r.Remaining() > 0 {
		var rm reportMsg
		rm.Leaf, rm.FileName, rm.Count, rm.Bounds = int(r.U32()), getStr(r), nonNegative(r), r.Box()
		nA := count(r, 20)
		rm.LocalRanges, rm.RootBitmaps = make([]bitmap.Range, nA), make([]bitmap.Bitmap, nA)
		for a := range nA {
			rm.LocalRanges[a], rm.RootBitmaps[a] = r.Range(), bitmap.Bitmap(r.U32())
		}
		rm.Err = getStr(r)
		reports = append(reports, rm)
	}
	return pt, reports, finish(r)
}

// encodeQuery asks a read aggregator for the particles of one leaf that
// match the requester's query (Figure 3c): a checkpoint-restart read's
// plain bounds, or an in situ analysis's filters and progressive quality
// window too (§IV-B).
func encodeQuery(leaf int, q bat.Query) []byte {
	var w binfmt.Writer
	w.U32(uint32(leaf))
	if q.Bounds == nil {
		w.U8(0)
	} else {
		w.U8(1)
		w.Box(*q.Bounds)
	}
	w.U32(uint32(len(q.Filters)))
	for _, f := range q.Filters {
		w.U32(uint32(f.Attr))
		w.F64(f.Min)
		w.F64(f.Max)
	}
	w.F64(q.PrevQuality)
	w.F64(q.Quality)
	return w.Buf
}

func decodeQuery(raw []byte) (int, bat.Query, error) {
	r := binfmt.NewReader(raw)
	leaf, q := int(r.U32()), bat.Query{}
	if has := r.U8(); has == 1 {
		b := r.Box()
		q.Bounds = &b
	} else if has > 1 {
		r.Failf("bounds presence byte %d", has)
	}
	q.Filters = make([]bat.AttrFilter, count(r, 20))
	for i := range q.Filters {
		q.Filters[i] = bat.AttrFilter{Attr: int(r.U32()), Min: r.F64(), Max: r.F64()}
	}
	q.PrevQuality, q.Quality = r.F64(), r.F64()
	return leaf, q, finish(r)
}

// putStr and getStr frame a string with a u32 length, not binfmt's u16,
// so a long file name arrives whole for meta.Build to refuse by name.
func putStr(w *binfmt.Writer, s string) {
	w.U32(uint32(len(s)))
	w.Buf = append(w.Buf, s...)
}

func getStr(r *binfmt.Reader) string { return string(r.Bytes(int(r.U32()))) }

// count reads a u32 count of items of at least size bytes each, refusing
// one the bytes left cannot hold.
func count(r *binfmt.Reader, size int64) int {
	n := r.U32()
	if int64(n)*size > r.Remaining() {
		r.Failf("%d items of %d bytes in the %d bytes left", n, size, r.Remaining())
		return 0
	}
	return int(n)
}

// nonNegative reads a u64 count or duration, refusing one past int64.
func nonNegative(r *binfmt.Reader) int64 {
	v := r.U64()
	if v > math.MaxInt64 {
		r.Failf("value %d past int64", v)
		return 0
	}
	return int64(v)
}

// finish returns r's first error, or one for bytes left after the message.
func finish(r *binfmt.Reader) error {
	if n := r.Remaining(); r.Err() == nil && n > 0 {
		return fmt.Errorf("%d trailing bytes", n)
	}
	return r.Err()
}
