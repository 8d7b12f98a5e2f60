package core

import (
	"context"
	"hash/fnv"
	"runtime"
	"testing"
	"time"

	"libbat/internal/bat"
	"libbat/internal/fabric"
	"libbat/internal/obs"
	"libbat/internal/pfs"
	"libbat/internal/workloads"
)

// TestPhaseTimesAreSpans: every phase time a write or a restart read reports
// is, to the nanosecond, the summed duration of that rank's spans of the
// phase's name, so a trace of a run and its stats read one clock.
func TestPhaseTimesAreSpans(t *testing.T) {
	const ranks = 16
	w, err := workloads.NewUniform(ranks, 2000, 2)
	if err != nil {
		t.Fatal(err)
	}
	store := pfs.NewMem()
	wcol, rcol := obs.New(), obs.New()
	wstats := make([]*WriteStats, ranks)
	f := fabric.New(ranks)
	f.SetObserver(wcol)
	err = f.Run(func(c *fabric.Comm) error {
		var err error
		wstats[c.Rank()], err = Write(c, store, "spans", w.Generate(0, c.Rank()),
			w.Decomp().RankBounds(c.Rank()), DefaultWriteConfig(64<<10))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	rstats := make([]*ReadStats, ranks)
	f = fabric.New(ranks)
	f.SetObserver(rcol)
	err = f.Run(func(c *fabric.Comm) error {
		var err error
		_, rstats[c.Rank()], err = Read(c, store, "spans", w.Decomp().RankBounds(c.Rank()))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	sums := func(col *obs.Collector) map[int]map[string]time.Duration {
		out := map[int]map[string]time.Duration{}
		for _, sp := range col.Spans() {
			if out[sp.Rank] == nil {
				out[sp.Rank] = map[string]time.Duration{}
			}
			out[sp.Rank][sp.Name] += sp.Dur
		}
		return out
	}
	wsum, rsum := sums(wcol), sums(rcol)
	var most PhaseTimes
	for r := range ranks {
		check := func(field string, got time.Duration, spans map[string]time.Duration, names ...string) {
			t.Helper()
			var want time.Duration
			for _, n := range names {
				want += spans[n]
			}
			if got != want {
				t.Errorf("rank %d: %s = %v, its %v spans sum to %v", r, field, got, names, want)
			}
		}
		pt := wstats[r].PhaseTimes
		check("TreeBuild", pt.TreeBuild, wsum[r], "write.tree-build")
		check("GatherScatter", pt.GatherScatter, wsum[r], "write.gather", "write.scatter")
		check("Transfer", pt.Transfer, wsum[r], "write.exchange")
		check("BATBuild", pt.BATBuild, wsum[r], "write.bat-build")
		check("FileWrite", pt.FileWrite, wsum[r], "write.file-write")
		check("Metadata", pt.Metadata, wsum[r], "write.metadata")
		most.raiseTo(pt)
		rs := rstats[r]
		check("ReadStats.Metadata", rs.Metadata, rsum[r], "read.meta")
		check("ReadStats.FileRead", rs.FileRead, rsum[r], "read.serve")
		check("ReadStats.Transfer", rs.Transfer, rsum[r], "read.transfer")
		if rs.Metadata <= 0 || rs.Transfer <= 0 || pt.GatherScatter <= 0 {
			t.Errorf("rank %d: a phase every rank runs took no time: %+v, %+v", r, pt, rs)
		}
	}
	// PhaseMax is the field-wise maximum of the phase times the ranks
	// returned.
	if pm := wstats[0].PhaseMax; pm == nil || *pm != most {
		t.Errorf("PhaseMax = %+v, the ranks' maxima are %+v", pm, most)
	}
}

// TestReadDeterminism: a collective read answers with the selected leaves in
// ascending leaf index, each in its file's order, whatever order the replies
// arrive in. Every rank reads the whole domain 20 times, cycling GOMAXPROCS
// through 1, 2 and 8, and each rank's answer must hash the same every time,
// and the same as every other rank's.
func TestReadDeterminism(t *testing.T) {
	const ranks, reads = 16, 20
	w, err := workloads.NewUniform(ranks, 2000, 2)
	if err != nil {
		t.Fatal(err)
	}
	store := pfs.NewMem()
	runWrite(t, w, 0, store, "order", DefaultWriteConfig(64<<10))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first [ranks]uint64
	for i := range reads {
		procs := []int{1, 2, 8}[i%3]
		runtime.GOMAXPROCS(procs)
		var sums [ranks]uint64
		err := fabric.Run(ranks, func(c *fabric.Comm) error {
			set, _, err := ReadQueryCtx(context.Background(), c, store, "order", bat.Query{})
			if err != nil {
				return err
			}
			h := fnv.New64a()
			h.Write(set.Marshal())
			sums[c.Rank()] = h.Sum64()
			if set.Len() != ranks*2000 {
				t.Errorf("read %d, rank %d: %d particles, want %d", i, c.Rank(), set.Len(), ranks*2000)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = sums
		}
		for r, s := range sums {
			if s != first[r] || s != first[0] {
				t.Fatalf("read %d at GOMAXPROCS %d: rank %d's answer hashes to %x, first read's to %x, rank 0's to %x",
					i, procs, r, s, first[r], first[0])
			}
		}
	}
}
