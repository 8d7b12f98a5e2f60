package core

import (
	"errors"
	"fmt"
	"time"

	"libbat/internal/aggtree"
	"libbat/internal/aug"
	"libbat/internal/bat"
	"libbat/internal/fabric"
	"libbat/internal/geom"
	"libbat/internal/meta"
	"libbat/internal/obs"
	"libbat/internal/particles"
	"libbat/internal/pfs"
)

// Strategy selects the aggregation algorithm.
type Strategy int

// Aggregation strategies: the paper's adaptive tree and the AUG baseline
// of Kumar et al. [27], implemented within the library for a direct
// algorithmic comparison (§VI-A.2).
const (
	Adaptive Strategy = iota
	AUG
)

func (s Strategy) String() string {
	if s == AUG {
		return "aug"
	}
	return "adaptive"
}

// DefaultDistPlanThreshold is the world size at which the modeled cost of
// aggtree.DistributedBuild (perf.ModelDistributedPlan) drops below that of
// the centralized plan Write runs (perf.ModelCentralizedPlan): the crossover
// perf.PlanCrossover finds on both system profiles, which
// TestDistPlanThresholdIsModeledCrossover pins. Write does not read it; the
// benchmark uses it to pick the model its perf.plan_model_ratio compares
// against. No world this repository can run is near it: at 512 ranks the
// benchmark's uniform512-plan layer metrics put the centralized plan at
// ~1 ms (aggtree.build_ms) and the distributed protocol's ~1 900 collective
// rounds (aggtree.dist_rounds) at ~1.3 s (aggtree.dist_build_ms).
const DefaultDistPlanThreshold = 1 << 19

// WriteConfig configures a collective write.
type WriteConfig struct {
	// TargetFileSize is the tunable aggregation granularity (bytes).
	TargetFileSize int64
	// Strategy picks adaptive (default) or AUG aggregation.
	Strategy Strategy
	// Tree holds the adaptive tree options; TargetFileSize and
	// BytesPerParticle are filled in from this config and the schema.
	Tree aggtree.Config
	// BAT holds the layout build options.
	BAT bat.BuildConfig
	// Timeout bounds every blocking wait on a peer message (an
	// aggregator waiting for a sender's particles, rank 0 waiting for a
	// leaf report), converting a vanished peer into a fabric.ErrTimeout
	// instead of a deadlock. Zero means wait forever.
	Timeout time.Duration
}

// DefaultWriteConfig returns the paper's evaluation configuration for the
// given target file size.
func DefaultWriteConfig(targetFileSize int64) WriteConfig {
	return WriteConfig{
		TargetFileSize: targetFileSize,
		Strategy:       Adaptive,
		Tree:           aggtree.DefaultConfig(targetFileSize, 1), // bpp fixed at write time
		BAT:            bat.DefaultBuildConfig(),
		Timeout:        30 * time.Second,
	}
}

// WriteStats reports what one rank observed during a collective write.
// Rank 0's copy includes the plan-wide fields (NumFiles, leaf stats).
type WriteStats struct {
	// Per-phase wall-clock time on this rank; Total is the rank's
	// end-to-end write time.
	PhaseTimes

	// Plan-wide information (valid on rank 0).
	NumFiles   int
	TotalCount int64
	LeafSizes  aggtree.SizeStats
	// PhaseMax holds the per-phase maximum across all ranks (valid on
	// rank 0) — the critical-path view the paper's breakdown figures
	// plot, since the slowest rank gates each phase.
	PhaseMax *PhaseTimes
}

// PhaseTimes is one rank's (or the critical-path) phase timing vector.
type PhaseTimes struct {
	TreeBuild     time.Duration
	GatherScatter time.Duration
	Transfer      time.Duration
	BATBuild      time.Duration
	FileWrite     time.Duration
	Metadata      time.Duration
}

// Total sums the phases.
func (p PhaseTimes) Total() time.Duration {
	return p.TreeBuild + p.GatherScatter + p.Transfer + p.BATBuild + p.FileWrite + p.Metadata
}

// raiseTo raises each phase of p to at least its value in o.
func (p *PhaseTimes) raiseTo(o PhaseTimes) {
	p.TreeBuild = max(p.TreeBuild, o.TreeBuild)
	p.GatherScatter = max(p.GatherScatter, o.GatherScatter)
	p.Transfer = max(p.Transfer, o.Transfer)
	p.BATBuild = max(p.BATBuild, o.BATBuild)
	p.FileWrite = max(p.FileWrite, o.FileWrite)
	p.Metadata = max(p.Metadata, o.Metadata)
}

// LeafFileName names the BAT file of one aggregation leaf.
func LeafFileName(base string, leaf int) string {
	return fmt.Sprintf("%s.l%05d.bat", base, leaf)
}

// MetaFileName names the top-level metadata file.
func MetaFileName(base string) string { return base + ".batm" }

// Write performs the paper's spatially aware adaptive two-phase write. It
// is collective: every rank of the fabric must call it with its local
// particles (which may be empty) and its spatial bounds. Files are written
// to store under base; rank 0 additionally writes the top-level metadata.
//
// Failures anywhere in the pipeline (a bad plan, a failed leaf build or
// file write, a vanished peer) complete the collective protocol before
// surfacing, so no rank is left deadlocked. The pipeline ends with an
// error-agreement collective: if any rank failed, every rank returns an
// error naming the failed ranks, and files written for the poisoned
// dataset (leaf files, metadata) are removed so no partial dataset stays
// visible. cfg.Timeout bounds each blocking peer wait.
func Write(c *fabric.Comm, store pfs.Storage, base string, local *particles.Set,
	bounds geom.Box, cfg WriteConfig) (*WriteStats, error) {

	stats := &WriteStats{}
	schema := local.Schema
	bpp := schema.BytesPerParticle()

	col := c.Observer()
	whole := col.Start(c.Rank(), "write")
	defer whole.End()

	// Phase a: build the aggregation plan (Figure 1a). Rank 0 gathers every
	// rank's count and bounds, builds the tree, and scatters each rank its
	// assignment.
	start := time.Now()
	var asg assignMsg
	var asgErr error // rank failed to obtain its assignment; skip the body
	var tree *aggtree.Tree
	var leaves []aggtree.Leaf
	if c.Rank() == 0 {
		gatherSp := col.Start(c.Rank(), "write.gather")
		infos := c.Gather(0, encode(infoMsg{Count: int64(local.Len()), Bounds: bounds}))
		gatherSp.End()
		parts, planErr := func() ([][]byte, error) {
			ranks := make([]aggtree.RankInfo, c.Size())
			for r, raw := range infos {
				var im infoMsg
				if err := decode(raw, &im); err != nil {
					return nil, fmt.Errorf("core: decoding rank %d info: %w", r, err)
				}
				ranks[r] = aggtree.RankInfo{Rank: r, Bounds: im.Bounds, Count: im.Count}
			}
			treeStart := time.Now()
			buildSp := col.Start(c.Rank(), "write.tree-build")
			var err error
			switch cfg.Strategy {
			case AUG:
				leaves, err = aug.Build(ranks, aug.Config{
					TargetFileSize:   cfg.TargetFileSize,
					BytesPerParticle: bpp,
				})
			default:
				tcfg := cfg.Tree
				tcfg.TargetFileSize = cfg.TargetFileSize
				tcfg.BytesPerParticle = bpp
				tree, err = aggtree.Build(ranks, tcfg)
				if tree != nil {
					leaves = tree.Leaves
				}
			}
			buildSp.End()
			if err != nil {
				return nil, err
			}
			stats.TreeBuild = time.Since(treeStart)
			rankAgg := aggtree.AssignAggregators(leaves, c.Size())
			stats.NumFiles = len(leaves)
			stats.LeafSizes = aggtree.LeafSizeStats(leaves, bpp)
			for _, l := range leaves {
				stats.TotalCount += l.Count
			}
			// Build per-rank assignment messages.
			msgs := make([]assignMsg, c.Size())
			for r := range msgs {
				msgs[r].Aggregator = rankAgg[r]
			}
			for li, l := range leaves {
				la := leafAssign{Leaf: li, Bounds: l.Bounds}
				for _, r := range l.Ranks {
					la.Senders = append(la.Senders, r)
					la.Counts = append(la.Counts, ranks[r].Count)
				}
				msgs[l.Aggregator].Leaves = append(msgs[l.Aggregator].Leaves, la)
			}
			parts := make([][]byte, c.Size())
			for r := range parts {
				parts[r] = encode(msgs[r])
			}
			return parts, nil
		}()
		if planErr != nil {
			// Planning failed before anything was scattered: tell every
			// rank to abort collectively. Every rank takes this barrier.
			abort := encode(assignMsg{Abort: planErr.Error()})
			parts = make([][]byte, c.Size())
			for r := range parts {
				parts[r] = abort
			}
			c.Scatterv(0, parts)
			c.Barrier()
			return nil, planErr
		}
		scatterSp := col.Start(c.Rank(), "write.scatter")
		err := decode(c.Scatterv(0, parts), &asg)
		scatterSp.End()
		if err != nil {
			asgErr = fmt.Errorf("core: decoding assignment: %w", err)
		}
	} else {
		gatherSp := col.Start(c.Rank(), "write.gather")
		c.Gather(0, encode(infoMsg{Count: int64(local.Len()), Bounds: bounds}))
		gatherSp.End()
		scatterSp := col.Start(c.Rank(), "write.scatter")
		err := decode(c.Scatterv(0, nil), &asg)
		scatterSp.End()
		if err != nil {
			// The assignment is unusable; this rank sits out the data
			// phases and lets the error agreement unwind everyone. Peers
			// waiting on its particles hit cfg.Timeout instead of hanging.
			asgErr = fmt.Errorf("core: rank %d decoding assignment: %w", c.Rank(), err)
		} else if asg.Abort != "" {
			c.Barrier()
			return nil, fmt.Errorf("core: write aborted by rank 0: %s", asg.Abort)
		}
	}
	stats.GatherScatter = time.Since(start) - stats.TreeBuild

	var written []string
	bodyErr := asgErr
	if asgErr == nil {
		written, bodyErr = writeBody(c, store, base, local, cfg, asg, schema, stats)
	}
	localErr := bodyErr

	// Gather every rank's phase timings so rank 0 can report the
	// critical-path breakdown (the view Figures 6/10/12 plot).
	phaseGather := c.Gather(0, encode(stats.PhaseTimes))

	if c.Rank() == 0 {
		pm := &PhaseTimes{}
		for r, raw := range phaseGather {
			var pt PhaseTimes
			if err := decode(raw, &pt); err != nil {
				if localErr == nil {
					localErr = fmt.Errorf("core: decoding rank %d timings: %w", r, err)
				}
				continue
			}
			pm.raiseTo(pt)
		}
		stats.PhaseMax = pm

		// Phase d: gather the aggregators' reports and write the
		// top-level metadata (Figure 1d). Error-marked reports poison the
		// write but are still collected so the collective completes; a
		// report that never arrives (its aggregator died) surfaces as a
		// timeout rather than a hang.
		metaStart := time.Now()
		metaSp := col.Start(c.Rank(), "write.metadata")
		reports := make([]meta.LeafReport, 0, len(leaves))
		var leafErr error
		for received := 0; received < len(leaves); received++ {
			raw, _, err := c.RecvTimeout(fabric.AnySource, tagReport, cfg.Timeout)
			if err != nil {
				leafErr = fmt.Errorf("core: collecting leaf reports (%d of %d): %w",
					received, len(leaves), err)
				break
			}
			var rm reportMsg
			if err := decode(raw, &rm); err != nil {
				leafErr = fmt.Errorf("core: decoding report: %w", err)
				continue
			}
			if rm.Err != "" {
				if leafErr == nil {
					leafErr = fmt.Errorf("core: leaf %d failed: %s", rm.Leaf, rm.Err)
				}
				continue
			}
			reports = append(reports, rm.toMeta())
		}
		if leafErr == nil && localErr == nil {
			m, err := meta.Build(tree, leaves, schema, reports)
			if err == nil && cfg.BAT.Compress {
				// Mirror the leaf files' codec declaration into the
				// top-level metadata so tools see the configuration
				// without opening a leaf.
				m.Compression = &meta.CompressionMeta{
					ErrorBounds: cfg.BAT.AttrBounds(schema.NumAttrs()),
					LODScale:    cfg.BAT.EffectiveLODScale(),
				}
			}
			if err == nil {
				err = store.WriteFile(MetaFileName(base), m.Encode())
			}
			leafErr = err
		}
		stats.Metadata += time.Since(metaStart)
		metaSp.End()
		pm.Metadata = max(pm.Metadata, stats.Metadata)
		if localErr == nil {
			localErr = leafErr
		}
	}

	// Error agreement in place of a completion barrier: every rank learns
	// whether the write succeeded everywhere. On failure, each rank removes
	// the leaf files it wrote (and rank 0 the metadata), so a poisoned
	// write leaves no partial dataset behind.
	if collErr := agreeOnError(c, "write", localErr); collErr != nil {
		// Cleanup failures don't change the outcome (the write already
		// failed) but they do mean stray files survive, so they ride
		// along on the returned error instead of vanishing.
		for _, name := range written {
			if err := store.Remove(name); err != nil {
				collErr = errors.Join(collErr, fmt.Errorf("core: removing %s: %w", name, err))
			}
		}
		if c.Rank() == 0 {
			if err := store.Remove(MetaFileName(base)); err != nil {
				collErr = errors.Join(collErr, fmt.Errorf("core: removing %s: %w", MetaFileName(base), err))
			}
		}
		return nil, collErr
	}
	return stats, nil
}

// WriteWorld runs one collective Write on a fresh in-process world of
// `ranks` goroutine ranks and returns rank 0's stats. input(r) supplies rank
// r's particles and spatial bounds, called on that rank's goroutine. col
// (nil disables telemetry) observes the fabric and the store. It is how the
// commands and the figure harness materialize a dataset; a simulation linking
// the library calls Write on the ranks it already has.
func WriteWorld(ranks int, store pfs.Storage, base string, cfg WriteConfig, col *obs.Collector,
	input func(rank int) (*particles.Set, geom.Box)) (*WriteStats, error) {

	store = pfs.Observe(store, col)
	f := fabric.New(ranks)
	f.SetObserver(col)
	var rootStats *WriteStats // written by rank 0 only, read after Run returns
	err := f.Run(func(c *fabric.Comm) error {
		local, bounds := input(c.Rank())
		st, err := Write(c, store, base, local, bounds, cfg)
		if err != nil {
			return fmt.Errorf("rank %d: %w", c.Rank(), err)
		}
		if c.Rank() == 0 {
			rootStats = st
		}
		return nil
	})
	return rootStats, err
}

// writeBody runs phases b-c on every rank: send local data to the
// assigned aggregator, and, when aggregating, receive each leaf's data,
// build its BAT, write the file, and report to rank 0. It returns the
// names of the leaf files this rank wrote, so a failed collective can
// remove them.
func writeBody(c *fabric.Comm, store pfs.Storage, base string, local *particles.Set,
	cfg WriteConfig, asg assignMsg, schema particles.Schema, stats *WriteStats) ([]string, error) {

	// Phase b: nonblocking send of local data to the aggregator
	// (Figure 1b). Ranks without particles skip the transfer.
	xferStart := time.Now()
	if local.Len() > 0 {
		if asg.Aggregator < 0 {
			return nil, fmt.Errorf("core: rank %d has %d particles but no aggregator", c.Rank(), local.Len())
		}
		if asg.Aggregator != c.Rank() {
			c.Isend(asg.Aggregator, tagData, local.Marshal())
		}
	}

	bcfg := cfg.BAT
	if bcfg.Obs == nil {
		bcfg.Obs = c.Observer()
	}
	// Label the build's bat_build_* spans with the aggregator's rank so
	// the per-rank trace shows which aggregator spent the time.
	bcfg.ObsRank = c.Rank()

	// Phase c: aggregate each assigned leaf (Figure 1c). No leaf
	// subcommunicators exist — an aggregator may serve a leaf it is not a
	// member of, so transfers are plain point-to-point (§III-B). A failed
	// leaf sends an error report so rank 0's collection (and the final
	// barrier) still complete.
	var firstErr error
	var written []string
	for _, la := range asg.Leaves {
		report, err := aggregateLeaf(c, store, base, local, bcfg, la, schema, stats,
			&xferStart, cfg.Timeout)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			report = reportMsg{Leaf: la.Leaf, Err: err.Error()}
		} else {
			written = append(written, report.FileName)
		}
		c.Isend(0, tagReport, encode(report))
	}
	if len(asg.Leaves) == 0 {
		stats.Transfer += time.Since(xferStart)
	}
	return written, firstErr
}

// aggregateLeaf receives one leaf's particles, builds its BAT, and
// writes the file, returning the report for rank 0. Incoming transfers are
// always drained, even on failure, so no stray messages survive the call;
// a sender that never delivers (it died before the data phase) turns into
// a timeout error after cfg.Timeout instead of hanging the aggregator.
func aggregateLeaf(c *fabric.Comm, store pfs.Storage, base string, local *particles.Set,
	bcfg bat.BuildConfig, la leafAssign, schema particles.Schema, stats *WriteStats,
	xferStart *time.Time, timeout time.Duration) (reportMsg, error) {

	col := c.Observer()
	var total int64
	for _, n := range la.Counts {
		total += n
	}
	xferSp := col.Start(c.Rank(), "write.exchange")
	combined := particles.NewSet(schema, int(total))
	reqs := make([]*fabric.Request, 0, len(la.Senders))
	for _, s := range la.Senders {
		if s == c.Rank() {
			combined.AppendSet(local)
			continue
		}
		reqs = append(reqs, c.Irecv(s, tagData))
	}
	var recvErr error
	var aggBytes int64
	for _, r := range reqs {
		raw, _, err := r.WaitTimeout(timeout)
		if err != nil {
			recvErr = fmt.Errorf("core: leaf %d: %w", la.Leaf, err)
			continue
		}
		aggBytes += int64(len(raw))
		part, err := particles.Unmarshal(raw, schema)
		if err != nil {
			recvErr = fmt.Errorf("core: leaf %d: %w", la.Leaf, err)
			continue
		}
		combined.AppendSet(part)
	}
	xferSp.End()
	if recvErr != nil {
		return reportMsg{}, recvErr
	}
	if int64(combined.Len()) != total {
		return reportMsg{}, fmt.Errorf("core: leaf %d received %d particles, expected %d",
			la.Leaf, combined.Len(), total)
	}
	stats.Transfer += time.Since(*xferStart)
	if col != nil {
		r := obs.Rank(c.Rank())
		col.Add("core_aggregated_bytes_total", aggBytes, r)
		col.Add("core_aggregated_particles_total", int64(combined.Len()), r)
	}

	// Build the leaf's BAT and write the file.
	batStart := time.Now()
	buildSp := col.Start(c.Rank(), "write.bat-build")
	built, err := bat.Build(combined, la.Bounds, bcfg)
	buildSp.End()
	if err != nil {
		return reportMsg{}, fmt.Errorf("core: leaf %d bat build: %w", la.Leaf, err)
	}
	stats.BATBuild += time.Since(batStart)

	writeStart := time.Now()
	writeSp := col.Start(c.Rank(), "write.file-write")
	name := LeafFileName(base, la.Leaf)
	err = store.WriteFile(name, built.Buf)
	writeSp.End()
	if err != nil {
		return reportMsg{}, fmt.Errorf("core: writing %s: %w", name, err)
	}
	stats.FileWrite += time.Since(writeStart)
	if col != nil {
		col.Add("core_leaves_written_total", 1, obs.Rank(c.Rank()))
	}
	*xferStart = time.Now()

	return reportMsg{
		Leaf:        la.Leaf,
		FileName:    name,
		Count:       int64(combined.Len()),
		Bounds:      la.Bounds,
		LocalRanges: built.Ranges,
		RootBitmaps: built.RootBitmaps,
	}, nil
}
