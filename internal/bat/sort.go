// Stage 1 of the build pipeline: Morton-encode every particle and produce
// the Morton-sorted particle order. Both halves are chunked across the
// build's worker pool; the sort is the stable radix sort from
// internal/radix, so the resulting order is a pure function of the input
// (ties between coincident particles keep their input order) and the
// pipeline output cannot depend on the worker count.
package bat

import (
	"libbat/internal/geom"
	"libbat/internal/morton"
	"libbat/internal/par"
	"libbat/internal/particles"
	"libbat/internal/radix"
)

// sortByMorton returns the particles' Morton codes in sorted order together
// with the matching particle order: sortedCodes[i] is the code of particle
// order[i], and sortedCodes is ascending with ties in input order.
func sortByMorton(set *particles.Set, domain geom.Box, workers int) (sortedCodes []morton.Code, order []int) {
	n := set.Len()
	codes := make([]morton.Code, n)
	order = make([]int, n)
	for i := range order {
		order[i] = i
	}
	if n < radix.SerialCutoff {
		workers = 1
	}
	par.Range(n, workers, func(_, lo, hi int) {
		morton.FromPoints(codes[lo:hi], set.X[lo:hi], set.Y[lo:hi], set.Z[lo:hi], domain)
	})
	radix.SortPairs(codes, order, workers)
	return codes, order
}
