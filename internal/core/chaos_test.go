package core

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"libbat/internal/bat"
	"libbat/internal/fabric"
	"libbat/internal/geom"
	"libbat/internal/leakcheck"
	"libbat/internal/meta"
	"libbat/internal/pfs"
	"libbat/internal/workloads"
)

// runRanks runs body on a fabric of n ranks under a deadlock guard: a
// collective that fails to unwind every rank within the deadline fails the
// test instead of hanging the suite.
func runRanks(t *testing.T, n int, body func(c *fabric.Comm) error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fabric.Run(n, body) }()
	select {
	case err := <-done:
		return err
	case <-time.After(90 * time.Second):
		t.Fatal("collective deadlocked: ranks did not unwind within 90s")
		return nil
	}
}

func fullDomain() geom.Box {
	return geom.NewBox(geom.V3(0, 0, 0), geom.V3(1, 1, 1))
}

// readAll pulls a whole file out of a store.
func readAll(t *testing.T, store pfs.Storage, name string) []byte {
	t.Helper()
	f, err := store.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, f.Size())
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	return buf
}

// TestChaosTransientFaults runs the 16-rank write pipeline straight over a
// storage layer that injects seeded transient faults (failed writes, torn
// writes, failed opens, failed reads), with nothing retrying them. Each
// run must end complete or absent: either every rank's write succeeds and
// a full-domain read on every rank returns the whole dataset, or every
// rank returns an error and no leaf or metadata file of the dataset is
// left in storage. After a successful write the same injector serves one
// read, where each rank must return the whole dataset or an error, never a
// silently short result; completeness itself is read back from the storage
// under the injector.
func TestChaosTransientFaults(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			leakcheck.Check(t)
			w, err := workloads.NewUniform(16, 200, 2)
			if err != nil {
				t.Fatal(err)
			}
			osStore, err := pfs.NewOS(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			faulty := pfs.NewFaulty(osStore, pfs.FaultConfig{
				Seed:           seed,
				WriteFailProb:  0.15,
				TornWriteProb:  0.05,
				OpenFailProb:   0.10,
				ReadFailProb:   0.10,
				MaxConsecutive: 2,
			})

			cfg := DefaultWriteConfig(16 * 1024)
			var mu sync.Mutex
			errs := make([]error, 16)
			err = runRanks(t, 16, func(c *fabric.Comm) error {
				local := w.Generate(0, c.Rank())
				_, werr := Write(c, faulty, "chaos", local, w.Decomp().RankBounds(c.Rank()), cfg)
				mu.Lock()
				errs[c.Rank()] = werr
				mu.Unlock()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			failed := 0
			for _, werr := range errs {
				if werr != nil {
					failed++
				}
			}
			switch failed {
			case 0:
				total := 16 * 200
				readAllRanks := func(store pfs.Storage, faulted bool) error {
					return runRanks(t, 16, func(c *fabric.Comm) error {
						got, _, rerr := Read(c, store, "chaos", fullDomain())
						if rerr != nil {
							if faulted {
								return nil // reported, not silent
							}
							return fmt.Errorf("rank %d: %w", c.Rank(), rerr)
						}
						if got.Len() != total {
							return fmt.Errorf("rank %d read %d particles and no error, want %d", c.Rank(), got.Len(), total)
						}
						return nil
					})
				}
				if err := readAllRanks(faulty, true); err != nil {
					t.Fatalf("read under transient faults lost particles silently: %v", err)
				}
				if err := readAllRanks(osStore, false); err != nil {
					t.Fatalf("write succeeded but the dataset is incomplete: %v", err)
				}
			case len(errs):
				names, err := osStore.List()
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range names {
					if strings.HasPrefix(n, "chaos") && (strings.HasSuffix(n, ".bat") || strings.HasSuffix(n, ".batm")) {
						t.Errorf("failed write left %s behind", n)
					}
				}
			default:
				t.Fatalf("%d of %d ranks failed; the write must succeed or fail on every rank: %v",
					failed, len(errs), errs)
			}
			if faulty.Injected() == 0 {
				t.Error("fault injector fired zero faults; chaos test exercised nothing")
			}
			t.Logf("seed %d: %d faults injected, %d of %d ranks failed", seed, faulty.Injected(), failed, len(errs))
		})
	}
}

// TestChaosPermanentAggregatorFault makes one leaf file permanently
// unwritable. The error-agreement collective must unwind all 16 ranks —
// every rank returns an error naming the write, none deadlocks — and the
// rollback must leave no partial output behind.
func TestChaosPermanentAggregatorFault(t *testing.T) {
	w, err := workloads.NewUniform(16, 200, 2)
	if err != nil {
		t.Fatal(err)
	}
	osStore, err := pfs.NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	faulty := pfs.NewFaulty(osStore, pfs.FaultConfig{Seed: 7})
	faulty.FailWritesPermanently(LeafFileName("chaos", 0))

	cfg := DefaultWriteConfig(16 * 1024)
	var mu sync.Mutex
	errs := make([]error, 16)
	runErr := runRanks(t, 16, func(c *fabric.Comm) error {
		local := w.Generate(0, c.Rank())
		_, werr := Write(c, faulty, "chaos", local, w.Decomp().RankBounds(c.Rank()), cfg)
		mu.Lock()
		errs[c.Rank()] = werr
		mu.Unlock()
		return nil
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	for r, werr := range errs {
		if werr == nil {
			t.Errorf("rank %d write returned nil, want the agreed failure", r)
		}
	}

	names, err := osStore.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Errorf("rollback left %d files behind: %v", len(names), names)
	}
}

// TestChaosBitFlipLeafPartial writes a clean dataset, flips one bit in a
// leaf file, and reads it back on 2 ranks. The flip must not kill the
// collective: every rank gets the surviving particles plus an error
// wrapping ErrPartial, with the damaged leaf identified in LeafErrors.
func TestChaosBitFlipLeafPartial(t *testing.T) {
	w, err := workloads.NewUniform(4, 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	store := pfs.NewMem()
	cfg := DefaultWriteConfig(8 * 1024)
	runWrite(t, w, 0, store, "chaos", cfg)

	m, err := meta.Decode(readAll(t, store, MetaFileName("chaos")))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Leaves) < 2 {
		t.Fatalf("want multiple leaves, got %d", len(m.Leaves))
	}
	victim := 0
	victimName := m.Leaves[victim].FileName
	victimCount := int(m.Leaves[victim].Count)
	total := 4 * 300

	// Flip a bit that the format checksums provably catch (open, Verify,
	// or query time); offsets that land in padding are skipped.
	buf := readAll(t, store, victimName)
	flipped := false
	for off := 16; off < len(buf); off += 101 {
		mut := append([]byte(nil), buf...)
		mut[off] ^= 1 << (off % 8)
		if detectsCorruption(mut) {
			if err := store.WriteFile(victimName, mut); err != nil {
				t.Fatal(err)
			}
			flipped = true
			break
		}
	}
	if !flipped {
		t.Fatal("no detectable bit flip found in the leaf file")
	}

	err = runRanks(t, 2, func(c *fabric.Comm) error {
		got, stats, rerr := Read(c, store, "chaos", fullDomain())
		if !errors.Is(rerr, ErrPartial) {
			return fmt.Errorf("rank %d: want ErrPartial, got %v", c.Rank(), rerr)
		}
		if got == nil || got.Len() != total-victimCount {
			n := -1
			if got != nil {
				n = got.Len()
			}
			return fmt.Errorf("rank %d: partial read returned %d particles, want %d",
				c.Rank(), n, total-victimCount)
		}
		if stats == nil || stats.LeafErrors[victim] == nil {
			return fmt.Errorf("rank %d: damaged leaf %d not reported in LeafErrors", c.Rank(), victim)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// detectsCorruption reports whether the BAT checksums catch the damage in
// buf at open, verify, or query time.
func detectsCorruption(buf []byte) bool {
	f, err := bat.FromBuffer(buf)
	if err != nil {
		return true
	}
	if f.Verify() != nil {
		return true
	}
	_, err = f.QueryWithConfig(bat.Query{}, bat.QueryConfig{}, func(geom.Vec3, []float64) error { return nil })
	return err != nil
}

// TestChaosMetaBitFlip damages the metadata file. Query routing needs the
// metadata on every rank, so this must fail the whole collective — every
// rank returns an error from the metadata agreement, none hangs waiting
// for queries that will never come.
func TestChaosMetaBitFlip(t *testing.T) {
	w, err := workloads.NewUniform(4, 200, 2)
	if err != nil {
		t.Fatal(err)
	}
	store := pfs.NewMem()
	runWrite(t, w, 0, store, "chaos", DefaultWriteConfig(8*1024))

	buf := readAll(t, store, MetaFileName("chaos"))
	buf[len(buf)/3] ^= 0x08 // any bit: the v2 trailer checksums the whole buffer
	if err := store.WriteFile(MetaFileName("chaos"), buf); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	errs := make([]error, 4)
	runErr := runRanks(t, 4, func(c *fabric.Comm) error {
		_, _, rerr := Read(c, store, "chaos", fullDomain())
		mu.Lock()
		errs[c.Rank()] = rerr
		mu.Unlock()
		return nil
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	for r, rerr := range errs {
		if rerr == nil {
			t.Errorf("rank %d read damaged metadata without error", r)
		}
	}
}
