package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"libbat/internal/bat"
	"libbat/internal/fabric"
	"libbat/internal/geom"
	"libbat/internal/oracle"
	"libbat/internal/particles"
	"libbat/internal/pfs"
	"libbat/internal/workloads"
)

// TestTimeSeriesWriteRead exercises the paper's actual usage pattern: a
// simulation writing many timesteps into one store, each independently
// readable.
func TestTimeSeriesWriteRead(t *testing.T) {
	cb, err := workloads.NewCoalBoiler(8)
	if err != nil {
		t.Fatal(err)
	}
	cb.SetGrowth(0, 20, 4000, 16000)
	store := pfs.NewMem()
	steps := []int{0, 10, 20}
	for _, step := range steps {
		base := fmt.Sprintf("ts%04d", step)
		runWrite(t, cb, step, store, base, DefaultWriteConfig(40*1024))
	}
	// Each step remains readable with the right count; later writes must
	// not disturb earlier ones.
	for _, step := range steps {
		base := fmt.Sprintf("ts%04d", step)
		m := openMeta(t, store, base)
		if want := workloads.TotalCount(cb, step); m.TotalCount() != want {
			t.Errorf("step %d: metadata count %d != %d", step, m.TotalCount(), want)
		}
	}
	// Counts grew over the series.
	if openMeta(t, store, "ts0000").TotalCount() >= openMeta(t, store, "ts0020").TotalCount() {
		t.Error("time series did not grow")
	}
}

// TestCorruptLeafFile ensures a damaged leaf file surfaces as an error,
// never a panic or silent wrong data.
func TestCorruptLeafFile(t *testing.T) {
	w, err := workloads.NewUniform(4, 500, 2)
	if err != nil {
		t.Fatal(err)
	}
	store := pfs.NewMem()
	runWrite(t, w, 0, store, "c", DefaultWriteConfig(20*1024))
	m := openMeta(t, store, "c")
	victim := m.Leaves[0].FileName

	corrupt := func(mutate func([]byte) []byte) error {
		f, err := store.Open(victim)
		if err != nil {
			return err
		}
		buf := make([]byte, f.Size())
		f.ReadAt(buf, 0)
		f.Close()
		if err := store.WriteFile(victim, mutate(buf)); err != nil {
			return err
		}
		// A full read must now fail.
		return fabric.Run(2, func(c *fabric.Comm) error {
			_, _, err := Read(c, store, "c", w.Decomp().Domain)
			if err == nil {
				return fmt.Errorf("read of corrupted dataset succeeded")
			}
			return nil
		})
	}
	// Truncation.
	if err := corrupt(func(b []byte) []byte { return b[:len(b)/3] }); err != nil {
		t.Errorf("truncated leaf: %v", err)
	}
	// Bad magic.
	if err := corrupt(func(b []byte) []byte {
		b = append([]byte(nil), b...)
		copy(b, "JUNK")
		return b
	}); err != nil {
		t.Errorf("bad magic: %v", err)
	}
	// Missing file entirely.
	if err := corrupt(func(b []byte) []byte { return nil }); err != nil {
		t.Errorf("emptied leaf: %v", err)
	}
}

// TestMissingMetadata ensures reads of nonexistent datasets error cleanly.
func TestMissingMetadata(t *testing.T) {
	store := pfs.NewMem()
	err := fabric.Run(2, func(c *fabric.Comm) error {
		_, _, err := Read(c, store, "nope", geom.Box{})
		if err == nil {
			return fmt.Errorf("read of missing dataset succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPipelinePropertyBased pushes the generator's cases through the full
// write/read pipeline: each case's world written under its own config, then
// one collective read in which every rank asks a different one of the
// case's queries, each answer held against the oracle.
func TestPipelinePropertyBased(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		c := oracle.Generate(seed)
		cfg := DefaultWriteConfig(c.Target)
		cfg.BAT = c.Build
		if c.AUG {
			cfg.Strategy = AUG
		}
		store := pfs.NewMem()
		err := fabric.Run(c.Ranks, func(comm *fabric.Comm) error {
			local, bounds := c.Rank(comm.Rank())
			_, err := Write(comm, store, "prop", local, bounds, cfg)
			return err
		})
		if err != nil {
			t.Fatalf("seed %d write: %v", seed, err)
		}
		ref := c.Reference()
		qs := ref.Queries(seed)
		err = fabric.Run(len(qs), func(comm *fabric.Comm) error {
			nq := qs[comm.Rank()]
			got, _, err := ReadQueryCtx(context.Background(), comm, store, "prop", nq.Query)
			if err == nil {
				err = ref.Check(nq.Query, oracle.RowsOf(got))
			}
			if err != nil {
				return fmt.Errorf("seed %d, rank %d, %s query: %w", seed, comm.Rank(), nq.Name, err)
			}
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	}
}

// TestLargeFabricWrite validates the goroutine fabric at a four-digit rank
// count (1024 ranks, tiny payloads).
func TestLargeFabricWrite(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-rank run")
	}
	w, err := workloads.NewUniform(1024, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	store := pfs.NewMem()
	stats := runWrite(t, w, 0, store, "big", DefaultWriteConfig(64*1024))
	if stats.TotalCount != 1024*32 {
		t.Fatalf("wrote %d", stats.TotalCount)
	}
	if stats.NumFiles < 4 {
		t.Errorf("files = %d", stats.NumFiles)
	}
	// Read back on far fewer ranks.
	var mu sync.Mutex
	var total int
	err = fabric.Run(16, func(c *fabric.Comm) error {
		lo := float64(c.Rank()) / 16
		box := geom.NewBox(geom.V3(lo, 0, 0), geom.V3(lo+1.0/16, 1, 1))
		got, _, err := Read(c, store, "big", box)
		if err != nil {
			return err
		}
		mu.Lock()
		total += got.Len()
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total < 1024*32 {
		t.Errorf("read %d of %d", total, 1024*32)
	}
}

// TestReadQueryFiltered exercises the distributed in situ analytics path:
// collective reads with attribute filters and LOD windows.
func TestReadQueryFiltered(t *testing.T) {
	w, err := workloads.NewUniform(8, 600, 2)
	if err != nil {
		t.Fatal(err)
	}
	store := pfs.NewMem()
	cfg := DefaultWriteConfig(25 * 1024)
	runWrite(t, w, 0, store, "rq", cfg)
	sets := make([]*particles.Set, 8)
	for r := range sets {
		sets[r] = w.Generate(0, r)
	}
	ref := oracle.New(cfg.BAT, sets...)
	// Attribute 0 correlates with x (uniform workload); rank 0 filters it
	// to [2, 6] while the others run a tiny spatial query to vary traffic.
	err = fabric.Run(4, func(c *fabric.Comm) error {
		q := bat.Query{Filters: []bat.AttrFilter{{Attr: 0, Min: 2, Max: 6}}}
		if c.Rank() != 0 {
			box := geom.NewBox(geom.V3(0, 0, 0), geom.V3(0.1, 0.1, 0.1))
			q = bat.Query{Bounds: &box}
		}
		got, _, err := ReadQueryCtx(context.Background(), c, store, "rq", q)
		if err != nil {
			return err
		}
		return ref.Check(q, oracle.RowsOf(got))
	})
	if err != nil {
		t.Fatal(err)
	}
	// A collective LOD read: quality windows tile the full set on one rank
	// while others idle on an empty region.
	var tiled []oracle.Row
	for _, win := range oracle.Windows(bat.Query{}, 4) {
		err = fabric.Run(2, func(c *fabric.Comm) error {
			q := win
			if c.Rank() != 0 {
				far := geom.NewBox(geom.V3(99, 99, 99), geom.V3(100, 100, 100))
				q = bat.Query{Bounds: &far}
			}
			got, _, err := ReadQueryCtx(context.Background(), c, store, "rq", q)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				tiled = append(tiled, oracle.RowsOf(got)...)
			} else if got.Len() != 0 {
				return fmt.Errorf("far query returned %d", got.Len())
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Check(bat.Query{}, tiled); err != nil {
		t.Errorf("four LOD windows: %v", err)
	}
}

func TestExchange(t *testing.T) {
	// Every rank sends particle i to rank i%size; totals are conserved
	// and each particle lands exactly where addressed.
	const size = 6
	schema := particles.NewSchema("src", "idx")
	err := fabric.Run(size, func(c *fabric.Comm) error {
		outgoing := make([]*particles.Set, size)
		for r := range outgoing {
			outgoing[r] = particles.NewSet(schema, 0)
		}
		for i := 0; i < 30; i++ {
			dst := i % size
			outgoing[dst].Append(geom.V3(float64(i), 0, 0),
				[]float64{float64(c.Rank()), float64(i)})
		}
		got, err := Exchange(c, schema, outgoing)
		if err != nil {
			return err
		}
		// Each rank receives 5 particles from each of size ranks.
		if got.Len() != 5*size {
			return fmt.Errorf("rank %d received %d particles", c.Rank(), got.Len())
		}
		for i := 0; i < got.Len(); i++ {
			if int(got.Attrs[1][i])%size != c.Rank() {
				return fmt.Errorf("rank %d received particle addressed to %d",
					c.Rank(), int(got.Attrs[1][i])%size)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExchangeNilAndErrors(t *testing.T) {
	schema := particles.NewSchema("a")
	err := fabric.Run(3, func(c *fabric.Comm) error {
		// Nil destinations are empty sends.
		outgoing := make([]*particles.Set, 3)
		if c.Rank() == 0 {
			outgoing[1] = particles.NewSet(schema, 0)
			outgoing[1].Append(geom.V3(1, 2, 3), []float64{9})
		}
		got, err := Exchange(c, schema, outgoing)
		if err != nil {
			return err
		}
		want := 0
		if c.Rank() == 1 {
			want = 1
		}
		if got.Len() != want {
			return fmt.Errorf("rank %d got %d particles, want %d", c.Rank(), got.Len(), want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wrong number of destinations errors without communicating.
	f := fabric.New(1)
	if _, err := Exchange(f.Comm(0), schema, nil); err == nil {
		t.Error("short outgoing should error")
	}
}

// TestExchangeRankOrder: Exchange returns the rank's own particles first,
// then each peer's in ascending rank order, so repeated exchanges of the
// same sets give identical results on every rank; and back-to-back
// exchanges each return only their own round's particles, even when a fast
// peer has already sent its next round.
func TestExchangeRankOrder(t *testing.T) {
	const size, perDst, rounds = 8, 3, 50
	schema := particles.NewSchema("src", "round")
	outgoing := func(rank, round int) []*particles.Set {
		out := make([]*particles.Set, size)
		for r := range out {
			out[r] = particles.NewSet(schema, perDst)
			for i := range perDst {
				out[r].Append(geom.V3(float64(r), float64(i), 0), []float64{float64(rank), float64(round)})
			}
		}
		return out
	}
	err := fabric.Run(size, func(c *fabric.Comm) error {
		// The order every round must produce on this rank.
		srcs := []int{c.Rank()}
		for r := range size {
			if r != c.Rank() {
				srcs = append(srcs, r)
			}
		}
		var want []float64
		for _, src := range srcs {
			for range perDst {
				want = append(want, float64(src))
			}
		}
		// A rank runs every round whatever an earlier one found, so no peer
		// waits forever on a rank that gave up.
		var firstErr error
		for round := range rounds {
			got, err := Exchange(c, schema, outgoing(c.Rank(), round))
			switch {
			case firstErr != nil:
			case err != nil:
				firstErr = err
			case !slices.Equal(got.Attrs[0], want):
				firstErr = fmt.Errorf("rank %d round %d: sources %v, want %v", c.Rank(), round, got.Attrs[0], want)
			default:
				for i, r := range got.Attrs[1] {
					if int(r) != round || got.X[i] != float32(c.Rank()) {
						firstErr = fmt.Errorf("rank %d round %d: particle %d is round %v's for rank %v",
							c.Rank(), round, i, r, got.X[i])
						break
					}
				}
			}
		}
		return firstErr
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWriteFailureCompletes injects storage faults into leaf and metadata
// writes: the collective must fail with an error on the affected ranks and
// never deadlock.
func TestWriteFailureCompletes(t *testing.T) {
	w, err := workloads.NewUniform(8, 400, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Fail one leaf file's write.
	store := &pfs.Faulty{
		Storage:    pfs.NewMem(),
		FailWrites: map[string]bool{LeafFileName("fw", 1): true},
	}
	sawError := false
	var mu sync.Mutex
	err = fabric.Run(8, func(c *fabric.Comm) error {
		local := w.Generate(0, c.Rank())
		_, werr := Write(c, store, "fw", local, w.Decomp().RankBounds(c.Rank()),
			DefaultWriteConfig(20*1024))
		if werr != nil {
			mu.Lock()
			sawError = true
			mu.Unlock()
		}
		return nil // collective must complete on every rank
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawError {
		t.Error("no rank reported the injected leaf write failure")
	}
	// No metadata file may exist for the poisoned write.
	if _, err := store.Open(MetaFileName("fw")); err == nil {
		t.Error("metadata written despite leaf failure")
	}

	// Fail the metadata write itself: only rank 0 observes it.
	store2 := &pfs.Faulty{
		Storage:    pfs.NewMem(),
		FailWrites: map[string]bool{MetaFileName("fm"): true},
	}
	err = fabric.Run(8, func(c *fabric.Comm) error {
		local := w.Generate(0, c.Rank())
		_, werr := Write(c, store2, "fm", local, w.Decomp().RankBounds(c.Rank()),
			DefaultWriteConfig(20*1024))
		if c.Rank() == 0 && werr == nil {
			return fmt.Errorf("rank 0 missed the metadata write failure")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWriteOutcomeText pins every rank's error when one file of the write
// fails: the failed ranks in order, rank 0 first since its closing gather
// saw the failure, the failing rank's own error wrapped, and the first
// failed rank's message everywhere else.
func TestWriteOutcomeText(t *testing.T) {
	w, err := workloads.NewUniform(8, 400, 2)
	if err != nil {
		t.Fatal(err)
	}
	const leafFault = "core: writing %[1]s: pfs: injected fault: write %[1]s"
	for _, tc := range []struct {
		fail      string
		owner     int    // the rank whose own error is the fault
		ownText   string // that rank's error
		otherText string // every other rank's error
	}{
		{LeafFileName("fw", 1), 1,
			"core: write failed on rank(s) [0 1]: " + fmt.Sprintf(leafFault, "fw.l00001.bat"),
			"core: write failed on rank(s) [0 1]: core: leaf 1 failed: " + fmt.Sprintf(leafFault, "fw.l00001.bat")},
		{LeafFileName("fw", 3), 3,
			"core: write failed on rank(s) [0 3]: " + fmt.Sprintf(leafFault, "fw.l00003.bat"),
			"core: write failed on rank(s) [0 3]: core: leaf 3 failed: " + fmt.Sprintf(leafFault, "fw.l00003.bat")},
		{MetaFileName("fw"), 0,
			"core: write failed on rank(s) [0]: pfs: injected fault: write fw.batm",
			"core: write failed on rank(s) [0]: pfs: injected fault: write fw.batm"},
	} {
		store := &pfs.Faulty{Storage: pfs.NewMem(), FailWrites: map[string]bool{tc.fail: true}}
		errs := make([]error, 8)
		err := fabric.Run(8, func(c *fabric.Comm) error {
			_, errs[c.Rank()] = Write(c, store, "fw", w.Generate(0, c.Rank()),
				w.Decomp().RankBounds(c.Rank()), DefaultWriteConfig(20*1024))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for r, got := range errs {
			want := tc.otherText
			if r == tc.owner {
				want = tc.ownText
			}
			if got == nil || got.Error() != want {
				t.Errorf("failing %s, rank %d: got %v, want %q", tc.fail, r, got, want)
			}
		}
	}
}

// TestWritePlanAbort forces a planning failure on rank 0 (invalid target
// size); every rank must return an error without deadlocking, and the plan
// agreement must give every rank rank 0's planning error: rank 0 the only
// failed rank, no rank failing on a decode of its own.
func TestWritePlanAbort(t *testing.T) {
	w, err := workloads.NewUniform(4, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	store := pfs.NewMem()
	errs := make([]error, 4)
	err = fabric.Run(4, func(c *fabric.Comm) error {
		local := w.Generate(0, c.Rank())
		cfg := DefaultWriteConfig(0) // invalid: triggers plan failure
		_, werr := Write(c, store, "abort", local, w.Decomp().RankBounds(c.Rank()), cfg)
		errs[c.Rank()] = werr
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	const want = "core: write plan failed on rank(s) [0]: aggtree: target file size must be positive, got 0"
	for r, werr := range errs {
		if werr == nil {
			t.Errorf("rank %d did not observe the abort", r)
		} else if werr.Error() != want {
			t.Errorf("rank %d: got %q, want %q", r, werr, want)
		}
	}
	if names, _ := store.List(); len(names) != 0 {
		t.Errorf("aborted write left %v", names)
	}
}

func TestPhaseMaxAggregation(t *testing.T) {
	w, err := workloads.NewUniform(8, 800, 2)
	if err != nil {
		t.Fatal(err)
	}
	store := pfs.NewMem()
	stats := runWrite(t, w, 0, store, "pm", DefaultWriteConfig(40*1024))
	if stats.PhaseMax == nil {
		t.Fatal("PhaseMax not populated on rank 0")
	}
	pm := stats.PhaseMax
	// The critical path includes real aggregation work.
	if pm.Transfer <= 0 && pm.BATBuild <= 0 {
		t.Errorf("PhaseMax lacks aggregation time: %+v", pm)
	}
	if pm.FileWrite <= 0 {
		t.Errorf("PhaseMax lacks file write time: %+v", pm)
	}
	if pm.Metadata <= 0 {
		t.Errorf("PhaseMax lacks metadata time: %+v", pm)
	}
	// Maxima dominate rank 0's own view.
	if pm.BATBuild < stats.BATBuild || pm.FileWrite < stats.FileWrite {
		t.Errorf("PhaseMax below rank 0's own timings: %+v vs rank0 %+v", pm, stats.PhaseTimes)
	}
	if pm.Total() <= 0 {
		t.Error("zero total")
	}
}

// TestWriteDeterminism: two runs of the same write must produce
// byte-identical files — the aggregation plan, BAT builds, and metadata
// are all deterministic even with parallel construction.
func TestWriteDeterminism(t *testing.T) {
	cb, err := workloads.NewCoalBoiler(12)
	if err != nil {
		t.Fatal(err)
	}
	cb.SetGrowth(0, 10, 30000, 30000)
	stores := [2]*pfs.Mem{pfs.NewMem(), pfs.NewMem()}
	for _, store := range stores {
		runWrite(t, cb, 5, store, "det", DefaultWriteConfig(100*1024))
	}
	namesA, _ := stores[0].List()
	namesB, _ := stores[1].List()
	if len(namesA) != len(namesB) {
		t.Fatalf("file counts differ: %d vs %d", len(namesA), len(namesB))
	}
	for i, name := range namesA {
		if namesB[i] != name {
			t.Fatalf("file names differ: %s vs %s", name, namesB[i])
		}
		read := func(s *pfs.Mem) []byte {
			f, err := s.Open(name)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			buf := make([]byte, f.Size())
			f.ReadAt(buf, 0)
			return buf
		}
		a, b := read(stores[0]), read(stores[1])
		if len(a) != len(b) {
			t.Fatalf("%s: sizes differ %d vs %d", name, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("%s differs at byte %d", name, j)
			}
		}
	}
}

// TestWriteTrafficExact: two runs of the same seeded write on fresh fabrics
// must send the same messages and the same bytes, so a change in the
// write's wire traffic shows in fabric.BytesSent as an exact difference.
// Every message's size must follow from the data and the plan alone, not
// from measured times.
func TestWriteTrafficExact(t *testing.T) {
	w, err := workloads.NewUniform(8, 400, 2)
	if err != nil {
		t.Fatal(err)
	}
	var bytes, msgs [2]int64
	for i := range bytes {
		f := fabric.New(8)
		err := f.Run(func(c *fabric.Comm) error {
			_, err := Write(c, pfs.NewMem(), "exact", w.Generate(1, c.Rank()),
				w.Decomp().RankBounds(c.Rank()), DefaultWriteConfig(20*1024))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		bytes[i], msgs[i] = f.BytesSent(), f.MessagesSent()
	}
	if bytes[0] != bytes[1] || msgs[0] != msgs[1] {
		t.Errorf("identical writes sent %d B in %d messages, then %d B in %d",
			bytes[0], msgs[0], bytes[1], msgs[1])
	}
	// The control plane's messages: the gather, scatter and closing gather
	// and the outcome broadcast are 7 each at 8 ranks, the plan agreement's
	// allreduce 14; the rest is the particle transfer.
	if msgs[0] != 46 {
		t.Errorf("write sent %d messages, want 46", msgs[0])
	}
	// The bytes, from the layouts (DESIGN.md §10). The plan has 8 leaves of
	// one member rank each, leaf i aggregated by rank i. A binomial-tree
	// gather or scatter at 8 ranks sends 7 packs (a u32 count each) holding
	// 12 entries (a u32 rank and u32 length each, then the part):
	//   info gather: 7*4 + 12*(8 + 56)                         =   796
	//   scatter, 76 B per assignment (8 + 4 + 48 + 4 + 12):
	//                7*4 + 12*(8 + 76)                         =  1036
	//   closing gather, 176 B per record: 48 of phase times, a
	//   report of 4 + (4 + 16) + 8 + 48 + 4 + 2*20 + 4 = 128:
	//                7*4 + 12*(8 + 176)                        =  2236
	//   agreement and verdict broadcast (nobody failed)        =     0
	//   4 leaves' particles from a rank not their aggregator,
	//   each 8 + 400*28 bytes                                  = 44832
	// With gob control messages it was 56 880 B.
	if bytes[0] != 48900 {
		t.Errorf("write sent %d B, want 48900", bytes[0])
	}
}

// TestReadTrafficExact: two identical seeded restart reads on fresh fabrics
// send the same messages and bytes, so a change in the read's wire traffic
// shows in fabric.BytesSent as an exact difference.
func TestReadTrafficExact(t *testing.T) {
	w, err := workloads.NewUniform(8, 400, 2)
	if err != nil {
		t.Fatal(err)
	}
	store := pfs.NewMem()
	runWrite(t, w, 1, store, "exact", DefaultWriteConfig(20*1024))
	var bytes, msgs [2]int64
	for i := range bytes {
		f := fabric.New(8)
		err := f.Run(func(c *fabric.Comm) error {
			_, _, err := Read(c, store, "exact", w.Decomp().RankBounds(c.Rank()))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		bytes[i], msgs[i] = f.BytesSent(), f.MessagesSent()
	}
	if bytes[0] != bytes[1] || msgs[0] != msgs[1] {
		t.Errorf("identical reads sent %d B in %d messages, then %d B in %d",
			bytes[0], msgs[0], bytes[1], msgs[1])
	}
	// The metadata agreement's allreduce sends 14 empty messages; 56 leaf
	// queries to a remote reader get one reply each. In bytes (DESIGN.md
	// §10):
	//   56 bounds-only queries of 4 + 1 + 48 + 4 + 16 = 73 B   =  4088
	//   56 reply headers of 5 + 8 B                            =   728
	//   4 ranks' 400 particles from a remote leaf, 28 B each   = 44800
	// With gob queries it was 60 522 B.
	if msgs[0] != 126 || bytes[0] != 49616 {
		t.Errorf("read sent %d B in %d messages, want 49616 B in 126", bytes[0], msgs[0])
	}
}
