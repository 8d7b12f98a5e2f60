package radix

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"libbat/internal/morton"
)

// uniqueSortedCodes generates n unique sorted codes bounded by maxCode.
func uniqueSortedCodes(r *rand.Rand, n int, maxCode uint64) []morton.Code {
	seen := map[morton.Code]bool{}
	out := make([]morton.Code, 0, n)
	for len(out) < n {
		c := morton.Code(r.Uint64() % maxCode)
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// validate checks the structural invariants of a radix tree: an in-order
// traversal from the root visits every leaf exactly once in order, node
// ranges match their subtrees, and all codes in a left subtree share a
// strictly longer prefix boundary (are strictly less) than the right.
func validate(t *testing.T, tr *Tree) {
	t.Helper()
	n := tr.NumLeaves()
	if n < 2 {
		if len(tr.Nodes) != 0 {
			t.Fatalf("tree over %d leaves has %d internal nodes", n, len(tr.Nodes))
		}
		return
	}
	if len(tr.Nodes) != n-1 {
		t.Fatalf("want %d internal nodes, got %d", n-1, len(tr.Nodes))
	}
	var order []int
	var rec func(ref int32) (first, last int)
	rec = func(ref int32) (int, int) {
		if li, ok := IsLeafRef(ref); ok {
			order = append(order, li)
			return li, li
		}
		nd := tr.Nodes[ref]
		lf, ll := rec(nd.Left)
		rf, rl := rec(nd.Right)
		if ll+1 != rf {
			t.Fatalf("node %d children not contiguous: left [%d,%d] right [%d,%d]", ref, lf, ll, rf, rl)
		}
		if int(nd.First) != lf || int(nd.Last) != rl {
			t.Fatalf("node %d range [%d,%d] != subtree [%d,%d]", ref, nd.First, nd.Last, lf, rl)
		}
		// Left codes strictly less than right codes (sorted input).
		if tr.Codes[ll] >= tr.Codes[rf] {
			t.Fatalf("node %d split violates order", ref)
		}
		return lf, rl
	}
	f, l := rec(0)
	if f != 0 || l != n-1 {
		t.Fatalf("root covers [%d,%d], want [0,%d]", f, l, n-1)
	}
	for i, li := range order {
		if li != i {
			t.Fatalf("in-order traversal out of order at %d: %v", i, order[:i+1])
		}
	}
}

func TestBuildTiny(t *testing.T) {
	if tr := Build(nil, 1); tr.NumLeaves() != 0 || len(tr.Nodes) != 0 {
		t.Error("empty build wrong")
	}
	if tr := Build([]morton.Code{5}, 1); tr.NumLeaves() != 1 || len(tr.Nodes) != 0 {
		t.Error("single leaf build wrong")
	}
	tr := Build([]morton.Code{2, 9}, 1)
	validate(t, tr)
}

func TestBuildSmallKnown(t *testing.T) {
	// The example-style input: codes with clear prefix structure.
	codes := []morton.Code{0b00001, 0b00010, 0b00100, 0b00101, 0b10011, 0b11000, 0b11001, 0b11110}
	tr := Build(codes, 1)
	validate(t, tr)
	// Root splits between 0b00101 (index 3) and 0b10011 (index 4): the
	// top differing bit.
	root := tr.Nodes[0]
	if root.First != 0 || root.Last != 7 {
		t.Fatalf("root range [%d,%d]", root.First, root.Last)
	}
	lf, _ := IsLeafRef(root.Left)
	if root.Left >= 0 {
		lf = int(tr.Nodes[root.Left].Last)
	}
	if lf != 3 {
		t.Errorf("root left subtree should end at leaf 3, got %d", lf)
	}
}

func TestBuildRandomized(t *testing.T) {
	f := func(seed int64, sizeRaw uint16) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + int(sizeRaw)%300
		codes := uniqueSortedCodes(r, n, 1<<20)
		tr := Build(codes, 1)
		// Inline validation (return false instead of Fatal).
		ok := true
		var rec func(ref int32) (int, int)
		rec = func(ref int32) (int, int) {
			if li, isLeaf := IsLeafRef(ref); isLeaf {
				return li, li
			}
			nd := tr.Nodes[ref]
			lf, ll := rec(nd.Left)
			rf, rl := rec(nd.Right)
			if ll+1 != rf || int(nd.First) != lf || int(nd.Last) != rl {
				ok = false
			}
			return lf, rl
		}
		f0, l0 := rec(0)
		return ok && f0 == 0 && l0 == n-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBuildDense(t *testing.T) {
	// Consecutive codes 0..n-1 give a balanced-ish binary radix tree.
	n := 1024
	codes := make([]morton.Code, n)
	for i := range codes {
		codes[i] = morton.Code(i)
	}
	tr := Build(codes, 1)
	validate(t, tr)
}

func TestBuildParallelLarge(t *testing.T) {
	// Above the parallel threshold: the concurrent build is a valid tree,
	// node for node the one the calling goroutine builds alone.
	r := rand.New(rand.NewSource(11))
	codes := uniqueSortedCodes(r, 10000, 1<<40)
	tr := Build(codes, 8)
	validate(t, tr)
	serial := Build(codes, 1)
	for i := range serial.Nodes {
		if tr.Nodes[i] != serial.Nodes[i] {
			t.Fatalf("node %d: %+v with 8 workers, %+v with 1", i, tr.Nodes[i], serial.Nodes[i])
		}
	}
}

func TestSharedPrefix(t *testing.T) {
	// 4-bit codes: 0b0000, 0b0011, 0b1100, 0b1111.
	codes := []morton.Code{0b0000, 0b0011, 0b1100, 0b1111}
	tr := Build(codes, 1)
	validate(t, tr)
	// Root shares no bits.
	if _, l := tr.SharedPrefix(0, 4); l != 0 {
		t.Errorf("root shared prefix length = %d", l)
	}
	// Find the internal node covering leaves 0-1: shares prefix 0b00.
	for i, nd := range tr.Nodes {
		if nd.First == 0 && nd.Last == 1 {
			p, l := tr.SharedPrefix(i, 4)
			if l != 2 || p != 0b00 {
				t.Errorf("node[0,1] prefix = %b len %d", p, l)
			}
		}
		if nd.First == 2 && nd.Last == 3 {
			p, l := tr.SharedPrefix(i, 4)
			if l != 2 || p != 0b11 {
				t.Errorf("node[2,3] prefix = %b len %d", p, l)
			}
		}
	}
}

func TestSharedPrefixConsistency(t *testing.T) {
	// Every code under a node must actually share the node's prefix.
	r := rand.New(rand.NewSource(3))
	const codeBits = 24
	codes := uniqueSortedCodes(r, 500, 1<<codeBits)
	tr := Build(codes, 1)
	for i := range tr.Nodes {
		p, l := tr.SharedPrefix(i, codeBits)
		for j := tr.Nodes[i].First; j <= tr.Nodes[i].Last; j++ {
			if tr.Codes[j]>>uint(codeBits-l) != p {
				t.Fatalf("node %d: code %d does not share prefix", i, j)
			}
		}
	}
}

func BenchmarkBuild64k(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	codes := uniqueSortedCodes(r, 65536, 1<<45)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(codes, runtime.GOMAXPROCS(0))
	}
}
