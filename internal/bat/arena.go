package bat

import (
	"math"

	"libbat/internal/geom"
	"libbat/internal/particles"
)

// buildArena is one treelet worker's reusable scratch memory. Every buffer
// is sized to the largest treelet the worker has seen and reused across
// treelets, so steady-state treelet construction allocates per treelet (its
// node records, layout order and bitmap backing) instead of per node.
//
// An arena is owned by exactly one worker goroutine; nothing in it is
// shared, and its contents never outlive the treelet being built.
type buildArena struct {
	coords []float64 // split-axis coordinate per partition element
	sel    []float64 // quickselect scratch (mutated by the selection)
	parts  []int     // stable three-way partition staging
	lod    []int     // stratified-sample staging (LODPerNode picks)

	// pending lists the treelet's nodes by index, each node's range of the
	// build's idx and its depth: buildTreelet makes node i from pending[i]
	// into nodes[i] and appends a split node's two children.
	pending []pendingNode
	nodes   []node

	// Codec scratch: type-rounded reference values, the column being
	// packed (an attribute's grid indices, then a position column's keys),
	// its per-node frames, and an attribute's two frame columns. Like the buffers above, these grow to the largest
	// treelet seen and are reused; encoded payloads are allocated exactly
	// (they outlive the arena).
	refVals []float64
	qbuf    []uint64
	frames  []blockFrame
	cols    []uint64

	// Position scratch (sortNodes): each axis's keys in layout order and the
	// treelet's k-d cells, kept for encodeTreeletPositions, and one node
	// range's sort words.
	keys      [3][]uint64
	kd        kdCells
	sortWords []uint64
}

// pendingNode is a treelet node before it is made: idx[lo:hi] at depth.
type pendingNode struct {
	lo, hi, depth int
}

// ensure grows the arena to hold a treelet of n particles sampling k LOD
// picks per node.
func (a *buildArena) ensure(n, k int) {
	if cap(a.coords) < n {
		a.coords = make([]float64, n)
		a.sel = make([]float64, n)
		a.parts = make([]int, n)
	}
	if cap(a.lod) < k {
		a.lod = make([]int, k)
	}
}

// axisSlice returns the raw coordinate array of one axis, so partitioning
// reads a single float32 per particle instead of materializing a Vec3.
func axisSlice(set *particles.Set, axis geom.Axis) []float32 {
	switch axis {
	case geom.X:
		return set.X
	case geom.Y:
		return set.Y
	default:
		return set.Z
	}
}

// stratifiedSampleInPlace picks k evenly spaced elements (the stratum
// midpoints) from pts and rearranges pts in place so the remainder keeps
// its order at the front and the picks sit at the tail:
//
//	pts = [ rest (input order) | lod (pick order) ]
//
// Picks are strictly increasing (the stride exceeds 1 whenever k < n), so a
// single forward compaction never reads a slot it has already overwritten.
// The same loop that moves each remainder element forward takes rest's tight
// bounds: each axis starts at rest's first element, takes a float32
// coordinate below its minimum or else above its maximum, and widens to
// float64 at the end, so ±0 and NaN coordinates give the box (and
// LongestAxis the axis) of a fold started from that element.
func stratifiedSampleInPlace(set *particles.Set, pts []int, k int, a *buildArena) (lod, rest []int, bounds geom.Box) {
	n := len(pts)
	if k >= n {
		return pts, nil, geom.EmptyBox()
	}
	// The pick positions first, each in the staging slot its particle then
	// replaces.
	picks := a.lod[:k]
	stride := float64(n) / float64(k)
	for s := range picks {
		picks[s] = min(int(stride*float64(s)+stride/2), n-1)
	}
	first := 0 // rest's first element: the end of a run of picks 0, 1, 2, …
	for first < k && picks[first] == first {
		first++
	}
	p0 := pts[first]
	minX, maxX := set.X[p0], set.X[p0]
	minY, maxY := set.Y[p0], set.Y[p0]
	minZ, maxZ := set.Z[p0], set.Z[p0]
	w, s := 0, 0
	for i, p := range pts {
		if s < k && i == picks[s] {
			picks[s] = p
			s++
			continue
		}
		pts[w] = p
		w++
		if v := set.X[p]; v < minX {
			minX = v
		} else if v > maxX {
			maxX = v
		}
		if v := set.Y[p]; v < minY {
			minY = v
		} else if v > maxY {
			maxY = v
		}
		if v := set.Z[p]; v < minZ {
			minZ = v
		} else if v > maxZ {
			maxZ = v
		}
	}
	copy(pts[w:], picks)
	return pts[w:], pts[:w], geom.NewBox(
		geom.V3(float64(minX), float64(minY), float64(minZ)),
		geom.V3(float64(maxX), float64(maxY), float64(maxZ)))
}

// medianPartition rearranges rest so that rest[:mid] have coordinates
// strictly below split and rest[mid:] have coordinates >= split, with both
// sides nonempty, choosing split at (or just above) the median coordinate
// along axis: one of the float32 coordinates. It reports ok=false when every
// coordinate is identical (no split exists). The element order within each
// side follows the input order, keeping builds deterministic. All scratch
// comes from the arena; the call allocates nothing.
func medianPartition(set *particles.Set, rest []int, axis geom.Axis, a *buildArena) (mid int, split float32, ok bool) {
	n := len(rest)
	coords := a.coords[:n]
	ax := axisSlice(set, axis)
	for i, p := range rest {
		coords[i] = float64(ax[p])
	}
	sel := a.sel[:n]
	copy(sel, coords)
	med := quickselect(sel, n/2)

	// Count the three classes (and the smallest above-median value) first,
	// then scatter stably into the staging buffer.
	nLess, nEq := 0, 0
	minGreater := math.Inf(1)
	for _, c := range coords {
		switch {
		case c < med:
			nLess++
		case c > med:
			if c < minGreater {
				minGreater = c
			}
		default:
			nEq++
		}
	}
	tmp := a.parts[:n]
	switch {
	case nLess > 0:
		// Split below the median value: less | equal+greater.
		split, mid = float32(med), nLess
		cl, ce, cg := 0, nLess, nLess+nEq
		for i, p := range rest {
			switch c := coords[i]; {
			case c < med:
				tmp[cl] = p
				cl++
			case c > med:
				tmp[cg] = p
				cg++
			default:
				tmp[ce] = p
				ce++
			}
		}
		copy(rest, tmp)
		return mid, split, true
	case nLess+nEq < n:
		// Median is the minimum: split at the next distinct value.
		split, mid = float32(minGreater), nEq
		ce, cg := 0, nEq
		for i, p := range rest {
			if coords[i] > med {
				tmp[cg] = p
				cg++
			} else {
				tmp[ce] = p
				ce++
			}
		}
		copy(rest, tmp)
		return mid, split, true
	default:
		return 0, 0, false
	}
}
