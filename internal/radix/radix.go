// Package radix implements Karras's parallel bottom-up radix tree
// construction over sorted Morton codes (paper §III-C1, [40]). Every
// internal node of the tree is computed independently from the code array,
// which lets the whole construction run in parallel. The resulting radix
// tree is directly interpretable as a k-d tree: an internal node's common
// bit prefix identifies the split axis and position.
//
// The BAT layout feeds this builder the deduplicated 12-bit subprefixes of
// the particles' Morton codes to obtain its shallow tree.
package radix

import (
	"math/bits"

	"libbat/internal/morton"
	"libbat/internal/par"
)

// Node is an internal radix tree node. Child references >= 0 index internal
// nodes; negative references encode ^leafIndex. First and Last delimit the
// (inclusive) range of leaves the node covers.
type Node struct {
	Left, Right int32
	First, Last int32
}

// LeafRef encodes leaf index i as a child reference.
func LeafRef(i int) int32 { return int32(^i) }

// IsLeafRef decodes a child reference, reporting whether it names a leaf.
func IsLeafRef(c int32) (int, bool) {
	if c < 0 {
		return int(^c), true
	}
	return 0, false
}

// Tree is a radix tree over n sorted, unique codes: leaves are the codes in
// order and the n-1 internal nodes are stored with the root at index 0.
// For n < 2 there are no internal nodes.
type Tree struct {
	Codes []morton.Code
	Nodes []Node
}

// delta returns the length of the common bit prefix (counted over the full
// 64-bit words) of codes i and j, or -1 if j is out of range. Codes must be
// unique, so delta(i,j) < 64 for i != j.
func delta(codes []morton.Code, i, j int) int {
	if j < 0 || j >= len(codes) {
		return -1
	}
	x := uint64(codes[i]) ^ uint64(codes[j])
	return bits.LeadingZeros64(x)
}

// Build constructs the radix tree over codes, which must be sorted
// ascending and unique. Every internal node is one independent task; up to
// workers goroutines build them, and workers <= 1, like a tree of fewer than
// 4096 internal nodes, builds them all on the calling goroutine. The tree is
// the same for every worker count.
func Build(codes []morton.Code, workers int) *Tree {
	t := &Tree{Codes: codes}
	n := len(codes)
	if n < 2 {
		return t
	}
	t.Nodes = make([]Node, n-1)
	if n-1 < 4096 {
		workers = 1
	}
	par.Range(n-1, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			t.buildNode(i)
		}
	})
	return t
}

// buildNode computes internal node i following Karras's algorithm: find the
// direction and extent of the leaf range sharing a longer prefix with leaf
// i than with its other neighbor, then binary-search the split position.
func (t *Tree) buildNode(i int) {
	codes := t.Codes
	// Direction of the range: towards the neighbor with the longer common
	// prefix.
	d := 1
	if delta(codes, i, i+1) < delta(codes, i, i-1) {
		d = -1
	}
	deltaMin := delta(codes, i, i-d)
	// Exponential search for an upper bound on the range length.
	lmax := 2
	for delta(codes, i, i+lmax*d) > deltaMin {
		lmax *= 2
	}
	// Binary search the exact other end of the range.
	l := 0
	for tt := lmax / 2; tt >= 1; tt /= 2 {
		if delta(codes, i, i+(l+tt)*d) > deltaMin {
			l += tt
		}
	}
	j := i + l*d
	// Binary search the split position: the last leaf (in direction d)
	// sharing more than deltaNode bits with leaf i.
	deltaNode := delta(codes, i, j)
	s := 0
	for tt := (l + 1) / 2; ; tt = (tt + 1) / 2 {
		if delta(codes, i, i+(s+tt)*d) > deltaNode {
			s += tt
		}
		if tt <= 1 {
			break
		}
	}
	gamma := i + s*d
	if d < 0 {
		gamma--
	}
	first, last := i, j
	if d < 0 {
		first, last = j, i
	}
	node := Node{First: int32(first), Last: int32(last)}
	if first == gamma {
		node.Left = LeafRef(gamma)
	} else {
		node.Left = int32(gamma)
	}
	if last == gamma+1 {
		node.Right = LeafRef(gamma + 1)
	} else {
		node.Right = int32(gamma + 1)
	}
	t.Nodes[i] = node
}

// NumLeaves returns the number of leaves (codes).
func (t *Tree) NumLeaves() int { return len(t.Codes) }

// SharedPrefix returns the bits shared by every code covered by internal
// node n, right-aligned, together with their count. codeBits states how
// many low bits of the word each code occupies (morton.TotalBits for full
// codes, or the subprefix width for the shallow tree's merged codes).
func (t *Tree) SharedPrefix(n, codeBits int) (prefix morton.Code, length int) {
	nd := t.Nodes[n]
	d := delta(t.Codes, int(nd.First), int(nd.Last))
	// delta counts from bit 63 of the word; the code's top bit is
	// codeBits-1.
	length = d - (64 - codeBits)
	if length < 0 {
		length = 0
	}
	if length > codeBits {
		length = codeBits
	}
	prefix = t.Codes[nd.First] >> uint(codeBits-length)
	return prefix, length
}
