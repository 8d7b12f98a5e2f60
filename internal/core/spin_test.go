//go:build unix

package core

import (
	"fmt"
	"syscall"
	"testing"
	"time"

	"libbat/internal/fabric"
	"libbat/internal/leakcheck"
	"libbat/internal/pfs"
	"libbat/internal/workloads"
)

// cpuTime returns the user plus system CPU time this process has used.
func cpuTime(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Skipf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestCollectiveReadDoesNotSpin: ranks waiting on a stalled leaf, or in the
// barrier behind it, block instead of polling. A 64-rank restart read whose
// leaf 0 stalls for half a second may cost this process only a little more
// CPU than the same read unstalled, and returns the same particles.
func TestCollectiveReadDoesNotSpin(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumented work swamps the CPU measurement")
	}
	leakcheck.Check(t)
	const ranks = 64
	w, err := workloads.NewUniform(ranks, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	mem := pfs.NewMem()
	if st := runWrite(t, w, 0, mem, "step0", DefaultWriteConfig(16*1024)); st.NumFiles < 2 {
		t.Fatalf("need several leaf files, got %d", st.NumFiles)
	}
	fau := pfs.NewFaulty(mem, pfs.FaultConfig{})

	// read runs one restart read and returns its CPU time, its wall time
	// and every rank's particle count.
	read := func() (cpu, wall time.Duration, counts []int) {
		counts = make([]int, ranks)
		start, before := time.Now(), cpuTime(t)
		err := fabric.Run(ranks, func(c *fabric.Comm) error {
			got, _, err := Read(c, fau, "step0", w.Decomp().RankBounds(c.Rank()))
			if err != nil {
				return fmt.Errorf("rank %d: %w", c.Rank(), err)
			}
			counts[c.Rank()] = got.Len()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return cpuTime(t) - before, time.Since(start), counts
	}

	baseCPU, _, want := read()
	const stall = 500 * time.Millisecond
	fau.StallReads(LeafFileName("step0", 0))
	time.AfterFunc(stall, fau.ReleaseStalls)
	cpu, wall, got := read()
	if fau.Stalled() == 0 || wall < stall {
		t.Fatalf("the read did not wait on the stalled leaf (%d stalls, %v)", fau.Stalled(), wall)
	}
	for r := range got {
		if got[r] != want[r] {
			t.Fatalf("rank %d: %d particles after the stall, %d without", r, got[r], want[r])
		}
	}
	if extra := cpu - baseCPU; extra > stall/4 {
		t.Fatalf("a %v stall cost %v of CPU beyond the unstalled read (%v vs %v), want under %v",
			stall, extra, cpu, baseCPU, stall/4)
	}
	t.Logf("unstalled read %v CPU; stalled read %v CPU over %v", baseCPU, cpu, wall)
}
