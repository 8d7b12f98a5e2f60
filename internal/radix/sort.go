// Package radix is a parallel LSD radix sort over 64-bit keys with satellite
// values — the comparison-free replacement for sort.Slice in the BAT build's
// Morton ordering (Cornerstone makes the same move for its octree build: the
// sort is bandwidth-bound, so count/scatter passes beat a comparator).
//
// The sort is stable, so ties keep their input order and the result is a
// pure function of (keys, vals): the output is byte-identical no matter how
// many workers run it.
package radix

import (
	"runtime"

	"libbat/internal/par"
)

const (
	sortDigitBits = 8
	sortBuckets   = 1 << sortDigitBits
	sortPasses    = 64 / sortDigitBits
)

// SerialCutoff is the key count below which a pass over the keys runs on
// one worker: forking costs more than it saves. SortPairs applies it, and so
// does the BAT build's Morton encoding ahead of the sort.
const SerialCutoff = 1 << 14

// SortPairs stably sorts keys ascending, permuting vals alongside, using an
// LSD radix sort on 8-bit digits. Digit positions on which every key agrees
// are skipped (Morton codes share their high bytes whenever the domain is
// much larger than the data extent), so the typical build pays for five or
// six passes, not eight. workers < 1 means runtime.GOMAXPROCS(0), and 1
// runs every pass on the calling goroutine; the sorted result is identical
// for every count. The key type is any uint64-shaped integer so
// morton.Code sorts without a copy.
func SortPairs[K ~uint64](keys []K, vals []int, workers int) {
	n := len(keys)
	if n < 2 {
		return
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n < SerialCutoff {
		workers = 1
	}
	if workers > n {
		workers = n
	}

	// One parallel sweep counts all digit histograms up front; a pass whose
	// histogram is a single bucket would be the identity permutation.
	var hist [sortPasses][sortBuckets]int64
	countAll(keys, workers, &hist)

	tmpK := make([]K, n)
	tmpV := make([]int, n)
	src, dst := keys, tmpK
	srcV, dstV := vals, tmpV
	for pass := 0; pass < sortPasses; pass++ {
		if isSingleBucket(&hist[pass], int64(n)) {
			continue
		}
		scatterPass(src, srcV, dst, dstV, uint(pass*sortDigitBits), workers)
		src, dst = dst, src
		srcV, dstV = dstV, srcV
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
		copy(vals, srcV)
	}
}

// countAll fills hist with the digit histogram of every pass in one sweep
// over keys, one partial histogram per worker chunk.
func countAll[K ~uint64](keys []K, workers int, hist *[sortPasses][sortBuckets]int64) {
	part := make([][sortPasses][sortBuckets]int64, workers)
	par.Range(len(keys), workers, func(w, lo, hi int) {
		h := &part[w]
		for _, k := range keys[lo:hi] {
			for p := 0; p < sortPasses; p++ {
				h[p][(uint64(k)>>(uint(p)*sortDigitBits))&(sortBuckets-1)]++
			}
		}
	})
	for w := range part {
		for p := 0; p < sortPasses; p++ {
			for b := 0; b < sortBuckets; b++ {
				hist[p][b] += part[w][p][b]
			}
		}
	}
}

func isSingleBucket(h *[sortBuckets]int64, n int64) bool {
	for _, c := range h {
		if c == n {
			return true
		}
		if c != 0 {
			return false
		}
	}
	return false
}

// scatterPass performs one stable counting-sort pass on the digit at bit
// offset shift. Each worker counts its chunk, a digit-major prefix sum
// assigns every (digit, worker) pair a disjoint output region, and the
// workers scatter concurrently. Chunk-major offsets within a digit keep the
// pass stable, so the output does not depend on the worker count.
func scatterPass[K ~uint64](src []K, srcV []int, dst []K, dstV []int, shift uint, workers int) {
	counts := make([][sortBuckets]int, workers)
	par.Range(len(src), workers, func(w, lo, hi int) {
		c := &counts[w]
		for _, k := range src[lo:hi] {
			c[(uint64(k)>>shift)&(sortBuckets-1)]++
		}
	})

	// Digit-major, then chunk-major: worker w's run of digit d starts after
	// every earlier digit and after digit-d runs of earlier workers.
	sum := 0
	for b := 0; b < sortBuckets; b++ {
		for w := 0; w < workers; w++ {
			counts[w][b], sum = sum, sum+counts[w][b]
		}
	}

	par.Range(len(src), workers, func(w, lo, hi int) {
		scatter(src[lo:hi], srcV[lo:hi], dst, dstV, shift, counts[w])
	})
}

// scatter moves each key of src, with its value, to the next free slot of
// its digit's region, starting from the offsets next. next is a copy: the
// loop runs faster over a local array than through a pointer the closure
// holds.
func scatter[K ~uint64](src []K, srcV []int, dst []K, dstV []int, shift uint, next [sortBuckets]int) {
	for i, k := range src {
		d := (k >> shift) & (sortBuckets - 1)
		dst[next[d]] = k
		dstV[next[d]] = srcV[i]
		next[d]++
	}
}
