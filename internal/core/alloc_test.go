package core

import (
	"runtime"
	"testing"

	"libbat/internal/fabric"
	"libbat/internal/particles"
	"libbat/internal/pfs"
	"libbat/internal/workloads"
)

// TestWriteReadAllocBounded holds what a collective write and its restart
// read allocate, as a multiple of the raw particle bytes they move. Each
// particle crosses the fabric once as a record and is decoded straight into
// the set that keeps it, so neither phase copies a payload through a
// throwaway set. On this world (16 ranks × 20 000 uniform particles of four
// attributes, 4 MB target, OS storage) the write allocated 5.94× its raw
// bytes and the read 10.17× while payloads were unmarshaled into a set of
// their own and served leaves were gathered into one before they were
// marshaled, and 5.04× and 5.49× once neither was. The read sized its
// answer once from its replies' counts at 5.45× (GOMAXPROCS 1 to 8), the
// same as when it grew the answer reply by reply; its bound sits 10 %
// above that.
func TestWriteReadAllocBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations swamp the bound")
	}
	const (
		ranks       = 16
		writeBound  = 5.5
		readBound   = 6.0
		targetBytes = 4 << 20
	)
	w, err := workloads.NewUniform(ranks, 20_000, 4)
	if err != nil {
		t.Fatal(err)
	}
	store, err := pfs.NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	local := make([]*particles.Set, ranks)
	var raw int64
	for r := range local {
		local[r] = w.Generate(0, r)
		raw += local[r].Bytes()
	}
	measure := func(body func(c *fabric.Comm) error) float64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := fabric.Run(ranks, body); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(raw)
	}

	cfg := DefaultWriteConfig(targetBytes)
	cfg.BAT.Workers = 2 // the build's scratch grows with its workers: pin them
	write := measure(func(c *fabric.Comm) error {
		_, err := Write(c, store, "alloc", local[c.Rank()], w.Decomp().RankBounds(c.Rank()), cfg)
		return err
	})
	var got [ranks]int
	read := measure(func(c *fabric.Comm) error {
		set, _, err := Read(c, store, "alloc", w.Decomp().RankBounds(c.Rank()))
		if err == nil {
			got[c.Rank()] = set.Len()
		}
		return err
	})
	var n int64
	for _, g := range got {
		n += int64(g)
	}
	if n != w.Counts(0)[0]*ranks {
		t.Fatalf("restart read returned %d particles, want %d", n, w.Counts(0)[0]*ranks)
	}
	t.Logf("%d raw bytes: write allocated %.2f×, restart read %.2f×", raw, write, read)
	if write > writeBound {
		t.Errorf("write allocated %.2f× its raw particle bytes, want at most %.1f×", write, writeBound)
	}
	if read > readBound {
		t.Errorf("restart read allocated %.2f× its raw particle bytes, want at most %.1f×", read, readBound)
	}
}
