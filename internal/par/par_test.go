package par

import (
	"bytes"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
)

func TestChunkRangeCoversAll(t *testing.T) {
	for _, n := range []int{0, 1, 5, 17, 100} {
		for workers := 1; workers <= 8; workers++ {
			covered := 0
			prevHi := 0
			for w := 0; w < workers; w++ {
				lo, hi := Chunk(n, workers, w)
				if lo < prevHi {
					t.Fatalf("n=%d w=%d/%d: overlap lo=%d prevHi=%d", n, w, workers, lo, prevHi)
				}
				if lo != prevHi && lo < n {
					t.Fatalf("n=%d w=%d/%d: gap before %d", n, w, workers, lo)
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != n {
				t.Fatalf("n=%d workers=%d: covered %d", n, workers, covered)
			}
		}
	}
}

// TestLoopsVisitEachIndexOnce runs both loops over every (n, workers) pair
// and requires each index to be visited exactly once, by a worker index in
// [0, workers).
func TestLoopsVisitEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 17, 1000} {
		for _, workers := range []int{1, 2, 7, n + 3} {
			check := func(loop string, visits []atomic.Int32, badWorker *atomic.Int32) {
				t.Helper()
				if b := badWorker.Load(); b != 0 {
					t.Errorf("%s n=%d workers=%d: %d calls with a worker index out of range", loop, n, workers, b)
				}
				for i := range visits {
					if v := visits[i].Load(); v != 1 {
						t.Errorf("%s n=%d workers=%d: index %d visited %d times", loop, n, workers, i, v)
					}
				}
			}

			visits := make([]atomic.Int32, n)
			var badWorker atomic.Int32
			Range(n, workers, func(w, lo, hi int) {
				if w < 0 || w >= max(workers, 1) {
					badWorker.Add(1)
				}
				for i := lo; i < hi; i++ {
					visits[i].Add(1)
				}
			})
			check("Range", visits, &badWorker)

			// A permuted order (7 is coprime with every n above): Each must
			// visit the items it names, not 0..n-1.
			order := make([]int, n)
			for k := range order {
				order[k] = (k*7 + 3) % n
			}
			visits = make([]atomic.Int32, n)
			badWorker.Store(0)
			Each(order, workers, func(w, i int) {
				if w < 0 || w >= max(workers, 1) {
					badWorker.Add(1)
				}
				visits[i].Add(1)
			})
			check("Each", visits, &badWorker)
		}
	}
}

func TestEachOneWorkerFollowsOrder(t *testing.T) {
	order := []int{4, 0, 3, 1, 2}
	var got []int
	Each(order, 1, func(w, i int) {
		if w != 0 {
			t.Errorf("worker index %d with one worker", w)
		}
		got = append(got, i)
	})
	if len(got) != len(order) {
		t.Fatalf("visited %v, want %v", got, order)
	}
	for k := range order {
		if got[k] != order[k] {
			t.Fatalf("visited %v, want %v", got, order)
		}
	}
}

// TestOneWorkerRunsInline requires both loops to call body on the caller's
// own goroutine when workers <= 1, so a one-worker build forks nothing.
func TestOneWorkerRunsInline(t *testing.T) {
	caller := goroutineID()
	for _, workers := range []int{-1, 0, 1} {
		calls := 0
		Range(100, workers, func(w, lo, hi int) {
			calls++
			if id := goroutineID(); id != caller {
				t.Errorf("Range workers=%d: body on goroutine %d, caller is %d", workers, id, caller)
			}
		})
		Each([]int{2, 0, 1}, workers, func(w, i int) {
			calls++
			if id := goroutineID(); id != caller {
				t.Errorf("Each workers=%d: body on goroutine %d, caller is %d", workers, id, caller)
			}
		})
		if calls != 4 {
			t.Errorf("workers=%d: %d calls, want 1 from Range and 3 from Each", workers, calls)
		}
	}
	// The converse, so the probe above can tell goroutines apart: with two
	// workers the bodies run elsewhere.
	var elsewhere atomic.Int32
	Range(100, 2, func(w, lo, hi int) {
		if goroutineID() != caller {
			elsewhere.Add(1)
		}
	})
	if elsewhere.Load() != 2 {
		t.Errorf("Range workers=2: %d of 2 chunks ran off the calling goroutine", elsewhere.Load())
	}
}

// goroutineID reads the running goroutine's id from the first line of its
// stack trace ("goroutine 7 [running]:").
func goroutineID() uint64 {
	var buf [64]byte
	line := buf[:runtime.Stack(buf[:], false)]
	line = bytes.TrimPrefix(line, []byte("goroutine "))
	line = line[:bytes.IndexByte(line, ' ')]
	id, err := strconv.ParseUint(string(line), 10, 64)
	if err != nil {
		panic("par: unreadable goroutine id: " + err.Error())
	}
	return id
}
