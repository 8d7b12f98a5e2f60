package core

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"

	"libbat/internal/bat"
	"libbat/internal/fabric"
	"libbat/internal/pfs"
	"libbat/internal/workloads"
)

// goroutineProbe is a storage that records the largest goroutine count it
// sees at any Open.
type goroutineProbe struct {
	pfs.Storage
	peak atomic.Int64
}

func (p *goroutineProbe) Open(name string) (pfs.File, error) {
	n := int64(runtime.NumGoroutine())
	for {
		old := p.peak.Load()
		if n <= old || p.peak.CompareAndSwap(old, n) {
			break
		}
	}
	return p.Storage.Open(name)
}

// TestReadGoroutinesPerRank: a collective read runs two goroutines per rank,
// the rank's own and its receiver, whatever GOMAXPROCS is. A 16-rank
// whole-domain read at GOMAXPROCS 1, 2 and 8 may never have more than
// 2 × ranks + 2 goroutines above the count it started from while a leaf
// opens.
func TestReadGoroutinesPerRank(t *testing.T) {
	const ranks = 16
	w, err := workloads.NewUniform(ranks, 200, 2)
	if err != nil {
		t.Fatal(err)
	}
	store := pfs.NewMem()
	if st := runWrite(t, w, 0, store, "g", DefaultWriteConfig(8<<10)); st.NumFiles < 4 {
		t.Fatalf("need several leaf files, got %d", st.NumFiles)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		probe := &goroutineProbe{Storage: store}
		base := runtime.NumGoroutine()
		err := fabric.Run(ranks, func(c *fabric.Comm) error {
			_, _, err := ReadQueryCtx(context.Background(), c, probe, "g", bat.Query{})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if peak, limit := probe.peak.Load(), int64(base+2*ranks+2); peak > limit {
			t.Errorf("GOMAXPROCS %d: %d goroutines at a leaf open, want at most %d (baseline %d + 2 × %d ranks + 2)",
				procs, peak, limit, base, ranks)
		}
	}
}
