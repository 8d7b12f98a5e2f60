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

// TestServeLeafReplyCappedAtCount: a reply grows by doubling but never past
// the whole leaf's length from its count in the metadata, so a query that
// takes a leaf whole — no filter, the whole quality window, no box or one
// that holds the leaf — gets a reply whose capacity is its length, and a
// partial one a reply no larger than that.
func TestServeLeafReplyCappedAtCount(t *testing.T) {
	w, err := workloads.NewUniform(4, 3000, 2)
	if err != nil {
		t.Fatal(err)
	}
	mem := pfs.NewMem()
	runWrite(t, w, 0, mem, "whole", DefaultWriteConfig(32*1024))
	ds, err := OpenDataset(context.Background(), mem, "whole")
	if err != nil {
		t.Fatal(err)
	}
	schema := ds.Meta().Schema
	domain := ds.Meta().Domain
	for leaf, lm := range ds.Meta().Leaves {
		full := replyHdrSize + 8 + int(lm.Count)*schema.RecordSize()
		for name, q := range map[string]bat.Query{
			"default":      {},
			"quality 1":    {Quality: 1},
			"domain box":   {Bounds: &domain},
			"leaf box":     {Bounds: &lm.Bounds, Quality: 1},
			"half quality": {Quality: 0.5},
		} {
			reply, _ := serveLeaf(context.Background(), nil, 0, ds, leaf, q)
			pr := parseReply(reply, schema)
			if pr.err != nil {
				t.Fatalf("leaf %d, %s: %v", leaf, name, pr.err)
			}
			if name == "half quality" {
				if pr.n == 0 || int64(pr.n) >= lm.Count || cap(reply) > full {
					t.Fatalf("leaf %d at half quality served %d of %d particles in a reply of capacity %d, want at most %d",
						leaf, pr.n, lm.Count, cap(reply), full)
				}
				continue
			}
			if int64(pr.n) != lm.Count || cap(reply) != len(reply) {
				t.Fatalf("leaf %d, %s: %d of %d particles in a reply of %d bytes, capacity %d",
					leaf, name, pr.n, lm.Count, len(reply), cap(reply))
			}
		}
	}
}
