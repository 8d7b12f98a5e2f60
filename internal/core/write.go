package core

import (
	"errors"
	"fmt"
	"slices"
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
}

// DefaultWriteConfig returns the paper's evaluation configuration for the
// given target file size.
func DefaultWriteConfig(targetFileSize int64) WriteConfig {
	return WriteConfig{
		TargetFileSize: targetFileSize,
		Strategy:       Adaptive,
		Tree:           aggtree.DefaultConfig(targetFileSize, 1), // bpp fixed at write time
		BAT:            bat.DefaultBuildConfig(),
	}
}

// WriteStats reports what one rank observed during a collective write.
// Rank 0's copy includes the plan-wide fields (NumFiles, leaf stats).
type WriteStats struct {
	// Per-phase wall-clock time on this rank; Total sums it, which leaves
	// out rank 0's planning outside the tree build and the closing gather.
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

// PhaseTimes is one rank's (or the critical-path) phase timing vector, in
// wall-clock time on the rank's own clock. Each field is the summed
// duration of the rank's obs spans of the names it gives, so a trace of
// the write and its stats agree to the nanosecond (DESIGN.md §6).
type PhaseTimes struct {
	// TreeBuild is write.tree-build: rank 0 building the plan's tree (or
	// AUG grid).
	TreeBuild time.Duration
	// GatherScatter is write.gather plus write.scatter: the gather of the
	// ranks' counts and bounds, then the assignment scatter through the end
	// of the plan agreement. Rank 0's planning between them is not in it.
	// PhaseMax takes the slowest rank's, which on goroutine ranks sharing
	// CPUs also counts the work of ranks already past the agreement, not
	// the control plane's time alone.
	GatherScatter time.Duration
	// Transfer is write.exchange: a sender marshaling and sending its
	// particles, and an aggregator receiving each of its leaves'.
	Transfer time.Duration
	// BATBuild is write.bat-build: bat.Build over the leaves the rank
	// aggregates.
	BATBuild time.Duration
	// FileWrite is write.file-write: those leaves' file writes.
	FileWrite time.Duration
	// Metadata is write.metadata: rank 0 reading the closing gather's
	// records and writing the .batm.
	Metadata time.Duration
}

// fields points at the phases in declaration order, the order of the
// closing gather's record.
func (p *PhaseTimes) fields() [6]*time.Duration {
	return [6]*time.Duration{&p.TreeBuild, &p.GatherScatter, &p.Transfer, &p.BATBuild, &p.FileWrite, &p.Metadata}
}

// Total sums the phases.
func (p PhaseTimes) Total() time.Duration {
	return p.TreeBuild + p.GatherScatter + p.Transfer + p.BATBuild + p.FileWrite + p.Metadata
}

// raiseTo raises each phase of p to at least its value in o.
func (p *PhaseTimes) raiseTo(o PhaseTimes) {
	of := o.fields()
	for i, f := range p.fields() {
		*f = max(*f, *of[i])
	}
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
// Every rank runs one control plane: a gather of the ranks' counts and
// bounds, rank 0's plan, a scatter of the assignments, and a plan
// agreement. Once the plan is agreed, every wait in the write is for a
// message a peer sends unconditionally (DESIGN.md §7), so a failure after
// it (a failed leaf build or file write, a failed metadata write) strands
// no rank. The write ends with one gather of the ranks' timings and leaf
// reports, which brings every failure to rank 0, and rank 0's verdict,
// broadcast to all: if any rank failed, every rank returns an error naming
// the failed ranks, and files written for the poisoned dataset (leaf
// files, metadata) are removed so no partial dataset stays visible.
func Write(c *fabric.Comm, store pfs.Storage, base string, local *particles.Set,
	bounds geom.Box, cfg WriteConfig) (*WriteStats, error) {

	stats := &WriteStats{}
	schema := local.Schema

	col := c.Observer()
	whole := col.Start(c.Rank(), "write")
	defer whole.End()

	// Phase a: build the aggregation plan (Figure 1a). Rank 0 gathers every
	// rank's count and bounds, builds the tree, and scatters each rank its
	// assignment, or empty parts when planning failed.
	gatherSp := col.Start(c.Rank(), "write.gather")
	infos := c.Gather(0, encodeInfo(int64(local.Len()), bounds))
	stats.GatherScatter = gatherSp.End()
	var parts [][]byte
	var err error
	if c.Rank() == 0 {
		if parts, err = planWrite(c, infos, cfg, schema.BytesPerParticle(), stats); err != nil {
			parts = make([][]byte, c.Size())
		}
	}
	scatterSp := col.Start(c.Rank(), "write.scatter")
	asg, err := agreePlan(c, c.Scatterv(0, parts), local.Len(), err)
	stats.GatherScatter += scatterSp.End()
	if err != nil {
		return nil, err
	}

	written, reports, localErr := writeBody(c, store, base, local, cfg, asg, schema, stats)

	// Phase d: gather every rank's timings, for the critical-path breakdown
	// Figures 6/10/12 plot, together with the reports of the leaves it
	// aggregated, and write the top-level metadata (Figure 1d). An
	// error-marked report poisons the write.
	records := c.Gather(0, encodeRecord(stats.PhaseTimes, reports))
	var verdict []byte
	if c.Rank() == 0 {
		metaSp := col.Start(c.Rank(), "write.metadata")
		pm, leafReports, failures, err := collectRecords(records)
		if err == nil && localErr == nil {
			var m *meta.Meta
			if m, err = meta.Build(schema, stats.NumFiles, leafReports); err == nil {
				err = store.WriteFile(MetaFileName(base), m.Encode())
			}
		}
		stats.Metadata = metaSp.End()
		pm.Metadata = max(pm.Metadata, stats.Metadata)
		stats.PhaseMax = pm
		if localErr == nil {
			localErr = err
		}
		if localErr != nil {
			verdict = appendFailure(nil, 0, localErr.Error())
		}
		verdict = append(verdict, failures...)
	}

	// Rank 0's verdict in place of a completion barrier: every rank learns
	// whether the write succeeded everywhere, in the failure records
	// agreeOnError uses. On failure, each rank removes the leaf files it
	// wrote (and rank 0 the metadata), so a poisoned write leaves no
	// partial dataset behind.
	if collErr := agreedError("write", c.Bcast(0, verdict), localErr); collErr != nil {
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

// agreePlan is the plan agreement: each rank decodes its part of the
// assignment scatter and checks it against the world, and votes with the
// failure, or on rank 0 with planErr, before any aggregator waits on its
// members' particles. An empty part is a failed plan's, with no vote of its
// own.
func agreePlan(c *fabric.Comm, part []byte, nLocal int, planErr error) (assignMsg, error) {
	var asg assignMsg
	err := planErr
	if len(part) > 0 {
		var derr error
		if asg, derr = decodeAssign(part); derr != nil {
			err = fmt.Errorf("core: rank %d decoding assignment: %w", c.Rank(), derr)
		} else if derr = checkAssign(asg, c.Size(), nLocal); derr != nil {
			err = fmt.Errorf("core: rank %d cannot use its assignment: %w", c.Rank(), derr)
		}
	}
	return asg, agreeOnError(c, "write plan", err)
}

// planWrite runs on rank 0: it builds the aggregation plan from the
// gathered rank infos and returns each rank's encoded assignment, filling
// in stats' plan-wide fields and TreeBuild.
func planWrite(c *fabric.Comm, infos [][]byte, cfg WriteConfig, bpp int,
	stats *WriteStats) ([][]byte, error) {

	ranks := make([]aggtree.RankInfo, c.Size())
	for r, raw := range infos {
		n, bounds, err := decodeInfo(raw)
		if err != nil {
			return nil, fmt.Errorf("core: decoding rank %d info: %w", r, err)
		}
		ranks[r] = aggtree.RankInfo{Rank: r, Bounds: bounds, Count: n}
	}
	buildSp := c.Observer().Start(c.Rank(), "write.tree-build")
	var leaves []aggtree.Leaf
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
		var tree *aggtree.Tree
		if tree, err = aggtree.Build(ranks, tcfg); err == nil {
			leaves = tree.Leaves
		}
	}
	stats.TreeBuild = buildSp.End()
	if err != nil {
		return nil, err
	}
	rankAgg := aggtree.AssignAggregators(leaves, c.Size())
	stats.NumFiles = len(leaves)
	stats.LeafSizes = aggtree.LeafSizeStats(leaves, bpp)
	for _, l := range leaves {
		stats.TotalCount += l.Count
	}
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
		parts[r] = encodeAssign(msgs[r])
	}
	return parts, nil
}

// collectRecords runs on rank 0 over the closing gather: it raises the
// per-phase maxima over every rank's timings and returns them with the
// leaf reports and the failure records of the other ranks whose leaves
// failed, each carrying that rank's first failed leaf's message (the error
// the rank itself returns). Rank 0's own error is the first undecodable
// record or error-marked report; the rest are still read, so PhaseMax
// covers every rank that sent usable timings.
func collectRecords(records [][]byte) (*PhaseTimes, []meta.LeafReport, []byte, error) {
	pm := &PhaseTimes{}
	var reports []meta.LeafReport
	var failures []byte
	var firstErr error
	for r, raw := range records {
		pt, rms, err := decodeRecord(raw)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("core: decoding rank %d record: %w", r, err)
			}
			continue
		}
		pm.raiseTo(pt)
		rankFailed := false
		for _, rm := range rms {
			if rm.Err != "" {
				if firstErr == nil {
					firstErr = fmt.Errorf("core: leaf %d failed: %s", rm.Leaf, rm.Err)
				}
				if r != 0 && !rankFailed {
					failures = appendFailure(failures, r, rm.Err)
					rankFailed = true
				}
				continue
			}
			reports = append(reports, rm.LeafReport)
		}
	}
	return pm, reports, failures, firstErr
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
// build its BAT and write the file. It returns the names of the leaf files
// this rank wrote, so a failed collective can remove them, and one report
// per leaf it aggregated, error-marked when that leaf failed.
func writeBody(c *fabric.Comm, store pfs.Storage, base string, local *particles.Set,
	cfg WriteConfig, asg assignMsg, schema particles.Schema, stats *WriteStats) ([]string, []reportMsg, error) {

	// Phase b: send local data to the aggregator (Figure 1b). Sends are
	// buffered, so this never waits. Ranks without particles skip the
	// transfer.
	if local.Len() > 0 && asg.Aggregator != c.Rank() {
		sendSp := c.Observer().Start(c.Rank(), "write.exchange")
		c.Send(asg.Aggregator, tagData, local.Marshal())
		stats.Transfer += sendSp.End()
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
	// leaf still gets a report, marked with its error.
	var firstErr error
	var written []string
	reports := make([]reportMsg, 0, len(asg.Leaves))
	for _, la := range asg.Leaves {
		report, err := aggregateLeaf(c, store, base, local, bcfg, la, schema, stats)
		msg := reportMsg{LeafReport: report}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			msg.Leaf, msg.Err = la.Leaf, err.Error()
		} else {
			written = append(written, report.FileName)
		}
		reports = append(reports, msg)
	}
	return written, reports, firstErr
}

// aggregateLeaf receives one leaf's particles, builds its BAT, and
// writes the file, returning the report for rank 0. Every sender's
// particles are received, even on failure, so no stray messages survive
// the call; each sender sent them unconditionally once the plan was agreed.
// Each member's count is checked against the plan's before the leaf is
// sized, and the leaf is sized from what arrived, so a hostile count costs
// an error, not an allocation.
func aggregateLeaf(c *fabric.Comm, store pfs.Storage, base string, local *particles.Set,
	bcfg bat.BuildConfig, la leafAssign, schema particles.Schema, stats *WriteStats) (meta.LeafReport, error) {

	col := c.Observer()
	xferSp := col.Start(c.Rank(), "write.exchange")
	payloads := make([][]byte, len(la.Senders))
	var recvErr error
	var aggBytes int64
	total := 0
	for i, s := range la.Senders {
		n, err := local.Len(), error(nil)
		if s != c.Rank() {
			raw, _ := c.Recv(s, tagData)
			aggBytes += int64(len(raw))
			payloads[i] = raw
			n, err = schema.PayloadLen(raw)
		}
		if err == nil && int64(n) != la.Counts[i] {
			err = fmt.Errorf("holds %d particles, the plan says %d", n, la.Counts[i])
		}
		if err != nil && recvErr == nil {
			recvErr = fmt.Errorf("core: leaf %d member %d: %w", la.Leaf, s, err)
		}
		total += n
	}
	if recvErr != nil {
		stats.Transfer += xferSp.End()
		return meta.LeafReport{}, recvErr
	}
	// The aggregator's own particles go first, then each sender's in member
	// order, decoded straight into combined: the build's input order, which
	// the leaf's bytes depend on.
	combined := particles.NewSet(schema, total)
	if slices.Contains(la.Senders, c.Rank()) {
		combined.AppendSet(local)
	}
	for _, raw := range payloads {
		if raw != nil {
			combined.AppendMarshaled(raw) // checked above
		}
	}
	stats.Transfer += xferSp.End()
	if col != nil {
		r := obs.Rank(c.Rank())
		col.Add("core_aggregated_bytes_total", aggBytes, r)
		col.Add("core_aggregated_particles_total", int64(combined.Len()), r)
	}

	// Build the leaf's BAT and write the file.
	buildSp := col.Start(c.Rank(), "write.bat-build")
	built, err := bat.Build(combined, la.Bounds, bcfg)
	stats.BATBuild += buildSp.End()
	if err != nil {
		return meta.LeafReport{}, fmt.Errorf("core: leaf %d bat build: %w", la.Leaf, err)
	}

	writeSp := col.Start(c.Rank(), "write.file-write")
	name := LeafFileName(base, la.Leaf)
	err = store.WriteFile(name, built.Buf)
	stats.FileWrite += writeSp.End()
	if err != nil {
		return meta.LeafReport{}, fmt.Errorf("core: writing %s: %w", name, err)
	}
	if col != nil {
		col.Add("core_leaves_written_total", 1, obs.Rank(c.Rank()))
	}

	return meta.LeafReport{
		Leaf:        la.Leaf,
		FileName:    name,
		Count:       int64(combined.Len()),
		Bounds:      la.Bounds,
		LocalRanges: built.Ranges,
		RootBitmaps: built.RootBitmaps,
	}, nil
}
