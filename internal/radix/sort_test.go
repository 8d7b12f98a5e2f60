package radix

import (
	"math/rand"
	"sort"
	"testing"
)

// refSortPairs is the reference: a stable comparison sort by key.
func refSortPairs(keys []uint64, vals []int) {
	type pair struct {
		k uint64
		v int
	}
	ps := make([]pair, len(keys))
	for i := range keys {
		ps[i] = pair{keys[i], vals[i]}
	}
	sort.SliceStable(ps, func(a, b int) bool { return ps[a].k < ps[b].k })
	for i, p := range ps {
		keys[i] = p.k
		vals[i] = p.v
	}
}

func genKeys(r *rand.Rand, n int, shape string) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		switch shape {
		case "uniform63":
			keys[i] = r.Uint64() >> 1
		case "dup-heavy":
			keys[i] = uint64(r.Intn(7))
		case "low-bits":
			// High bytes constant: exercises the skipped-pass path.
			keys[i] = 0xabcd<<32 | uint64(r.Intn(1<<16))
		case "sorted":
			keys[i] = uint64(i)
		case "reversed":
			keys[i] = uint64(n - i)
		}
	}
	return keys
}

func TestSortPairsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	shapes := []string{"uniform63", "dup-heavy", "low-bits", "sorted", "reversed"}
	sizes := []int{0, 1, 2, 3, 100, 1000, SerialCutoff + 500}
	for _, shape := range shapes {
		for _, n := range sizes {
			for _, workers := range []int{1, 2, 3, 8} {
				keys := genKeys(r, n, shape)
				vals := make([]int, n)
				for i := range vals {
					vals[i] = i
				}
				wantK := append([]uint64(nil), keys...)
				wantV := append([]int(nil), vals...)
				refSortPairs(wantK, wantV)

				SortPairs(keys, vals, workers)
				for i := range keys {
					if keys[i] != wantK[i] || vals[i] != wantV[i] {
						t.Fatalf("%s n=%d workers=%d: mismatch at %d: got (%d,%d) want (%d,%d)",
							shape, n, workers, i, keys[i], vals[i], wantK[i], wantV[i])
					}
				}
			}
		}
	}
}

func TestSortPairsWorkerCountInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	n := SerialCutoff * 2
	keys := genKeys(r, n, "uniform63")
	vals := make([]int, n)
	for i := range vals {
		vals[i] = i
	}
	var refK []uint64
	var refV []int
	for _, workers := range []int{1, 2, 5, 16} {
		k := append([]uint64(nil), keys...)
		v := append([]int(nil), vals...)
		SortPairs(k, v, workers)
		if refK == nil {
			refK, refV = k, v
			continue
		}
		for i := range k {
			if k[i] != refK[i] || v[i] != refV[i] {
				t.Fatalf("workers=%d diverges at %d", workers, i)
			}
		}
	}
}

func BenchmarkSortPairs(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	n := 1_000_000
	keys := genKeys(r, n, "uniform63")
	vals := make([]int, n)
	k := make([]uint64, n)
	v := make([]int, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(k, keys)
		copy(v, vals)
		SortPairs(k, v, 0)
	}
}
