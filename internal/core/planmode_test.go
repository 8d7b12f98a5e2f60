package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"libbat/internal/aggtree"
	"libbat/internal/fabric"
	"libbat/internal/geom"
	"libbat/internal/perf"
	"libbat/internal/pfs"
	"libbat/internal/workloads"
)

// storeContents snapshots every file in a memory store.
func storeContents(t *testing.T, store *pfs.Mem) map[string][]byte {
	t.Helper()
	names, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(names))
	for _, name := range names {
		f, err := store.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, f.Size())
		if _, err := f.ReadAt(data, 0); err != nil && f.Size() > 0 {
			t.Fatalf("reading %s: %v", name, err)
		}
		f.Close()
		out[name] = data
	}
	return out
}

// TestPlanModesProduceIdenticalDatasets is the end-to-end counterpart of the
// aggtree equivalence property test: a full collective write planned
// centrally and one planned distributedly must leave byte-identical leaf
// files and metadata in the store.
func TestPlanModesProduceIdenticalDatasets(t *testing.T) {
	for _, tc := range []struct {
		name  string
		ranks int
		ppr   int
	}{
		{"uniform-16", 16, 400},
		{"uniform-24", 24, 300},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := workloads.NewUniform(tc.ranks, int64(tc.ppr), 3)
			if err != nil {
				t.Fatal(err)
			}
			stores := map[PlanMode]*pfs.Mem{
				PlanCentralized: pfs.NewMem(),
				PlanDistributed: pfs.NewMem(),
			}
			for mode, store := range stores {
				cfg := DefaultWriteConfig(16 * 1024)
				cfg.Plan = mode
				stats := runWrite(t, w, 0, store, "step0", cfg)
				if stats.NumFiles < 2 {
					t.Fatalf("%v: expected multiple files, got %d", mode, stats.NumFiles)
				}
				if stats.TotalCount != int64(tc.ranks*tc.ppr) {
					t.Fatalf("%v: TotalCount = %d", mode, stats.TotalCount)
				}
				if stats.LeafSizes.NumFiles != stats.NumFiles {
					t.Fatalf("%v: LeafSizes.NumFiles = %d, NumFiles = %d", mode, stats.LeafSizes.NumFiles, stats.NumFiles)
				}
			}
			cen := storeContents(t, stores[PlanCentralized])
			dist := storeContents(t, stores[PlanDistributed])
			if len(cen) != len(dist) {
				t.Fatalf("centralized wrote %d files, distributed %d", len(cen), len(dist))
			}
			for name, want := range cen {
				got, ok := dist[name]
				if !ok {
					t.Fatalf("distributed store missing %s", name)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s differs between plan modes (%d vs %d bytes)", name, len(want), len(got))
				}
			}
		})
	}
}

// TestPlanModeResolve pins the PlanAuto switchover policy, and the
// threshold to the modeled crossover on both system profiles.
func TestPlanModeResolve(t *testing.T) {
	for _, p := range []perf.Profile{perf.Stampede2(), perf.Summit()} {
		if x := p.PlanCrossover(perf.DefaultPlanParams(), 0.25, 1<<10, 1<<22); x != DefaultDistPlanThreshold {
			t.Errorf("%s: modeled plan crossover %d != DefaultDistPlanThreshold %d",
				p.Name, x, DefaultDistPlanThreshold)
		}
	}
	for _, tc := range []struct {
		mode     PlanMode
		strategy Strategy
		size     int
		want     PlanMode
	}{
		{PlanAuto, Adaptive, 16, PlanCentralized},
		{PlanAuto, Adaptive, 512, PlanCentralized},
		{PlanAuto, Adaptive, DefaultDistPlanThreshold - 1, PlanCentralized},
		{PlanAuto, Adaptive, DefaultDistPlanThreshold, PlanDistributed},
		{PlanAuto, AUG, 1 << 20, PlanCentralized},
		{PlanCentralized, Adaptive, 1 << 20, PlanCentralized},
		{PlanDistributed, Adaptive, 2, PlanDistributed},
	} {
		if got := tc.mode.resolve(tc.strategy, tc.size); got != tc.want {
			t.Errorf("resolve(%v, %v, %d) = %v, want %v",
				tc.mode, tc.strategy, tc.size, got, tc.want)
		}
	}
}

// TestPlanModeAutoNotSlower times both planners on the largest world the
// benchmark runs (uniform512-plan: 512 ranks x 800 particles, 1 MB target)
// and fails if PlanAuto resolves to the one measured more than 2x slower.
// The default sat on that side from PR 10 on: at 512 ranks auto chose a plan
// ~450x slower than the one it passed over.
func TestPlanModeAutoNotSlower(t *testing.T) {
	const ranks = 512
	w, err := workloads.NewUniform(ranks, 800, 4)
	if err != nil {
		t.Fatal(err)
	}
	infos := workloads.RankInfos(w, 0)
	cfg := aggtree.DefaultConfig(1<<20, w.Schema().BytesPerParticle())

	start := time.Now()
	if _, err := aggtree.Build(infos, cfg); err != nil {
		t.Fatal(err)
	}
	elapsed := map[PlanMode]time.Duration{PlanCentralized: time.Since(start)}

	start = time.Now()
	err = fabric.Run(ranks, func(c *fabric.Comm) error {
		_, err := aggtree.DistributedBuild(c, infos[c.Rank()], aggtree.DistConfig{Config: cfg})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	elapsed[PlanDistributed] = time.Since(start)

	chosen := PlanAuto.resolve(Adaptive, ranks)
	other := PlanDistributed
	if chosen == PlanDistributed {
		other = PlanCentralized
	}
	t.Logf("%d ranks: centralized %v, distributed %v, auto -> %v",
		ranks, elapsed[PlanCentralized], elapsed[PlanDistributed], chosen)
	if elapsed[chosen] > 2*elapsed[other] {
		t.Errorf("PlanAuto resolves to %v at %d ranks, measured %v against %v for %v",
			chosen, ranks, elapsed[chosen], elapsed[other], other)
	}
}

// TestPlanModeParseAndString round-trips the CLI values.
func TestPlanModeParseAndString(t *testing.T) {
	for _, s := range []string{"auto", "centralized", "distributed"} {
		m, err := ParsePlanMode(s)
		if err != nil {
			t.Fatal(err)
		}
		if m.String() != s {
			t.Errorf("ParsePlanMode(%q).String() = %q", s, m.String())
		}
	}
	if _, err := ParsePlanMode("bogus"); err == nil {
		t.Error("bogus plan mode should error")
	}
}

// TestPlanDistributedRejectsAUG: the AUG baseline has no distributed
// builder; requesting one must fail identically on every rank.
func TestPlanDistributedRejectsAUG(t *testing.T) {
	w, err := workloads.NewUniform(4, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	store := pfs.NewMem()
	runErr := fabric.Run(4, func(c *fabric.Comm) error {
		cfg := DefaultWriteConfig(1 << 20)
		cfg.Strategy = AUG
		cfg.Plan = PlanDistributed
		_, err := Write(c, store, "x", w.Generate(0, c.Rank()), w.Decomp().RankBounds(c.Rank()), cfg)
		if err == nil {
			return fmt.Errorf("rank %d: AUG + distributed plan should error", c.Rank())
		}
		return nil
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
}

// TestPlanDistributedEmptyWrite: an all-empty world through the distributed
// planner still yields a valid (empty) dataset readable afterwards.
func TestPlanDistributedEmptyWrite(t *testing.T) {
	const ranks = 8
	store := pfs.NewMem()
	w, err := workloads.NewUniform(ranks, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	runErr := fabric.Run(ranks, func(c *fabric.Comm) error {
		local := w.Generate(0, c.Rank()).Slice(0, 0)
		cfg := DefaultWriteConfig(1 << 20)
		cfg.Plan = PlanDistributed
		st, err := Write(c, store, "empty", local, w.Decomp().RankBounds(c.Rank()), cfg)
		if err != nil {
			return fmt.Errorf("rank %d: %w", c.Rank(), err)
		}
		if c.Rank() == 0 && st.NumFiles != 0 {
			return fmt.Errorf("empty world wrote %d files", st.NumFiles)
		}
		return nil
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	var total int
	err = fabric.Run(2, func(c *fabric.Comm) error {
		got, _, err := Read(c, store, "empty", geom.NewBox(geom.V3(0, 0, 0), geom.V3(1, 1, 1)))
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			total = got.Len()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 0 {
		t.Fatalf("empty dataset returned %d particles", total)
	}
}
