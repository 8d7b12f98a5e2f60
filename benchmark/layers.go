package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"libbat"
	"libbat/internal/aggtree"
	"libbat/internal/bat"
	"libbat/internal/checksum"
	"libbat/internal/core"
	"libbat/internal/fabric"
	"libbat/internal/morton"
	"libbat/internal/particles"
	"libbat/internal/perf"
	"libbat/internal/radix"
	"libbat/internal/workloads"
)

// layerMetrics lists the layers' own metrics (layers are this repo's
// modules). README.md says which trip metric each should move.
var layerMetrics = []metric{
	{Name: "workloads.generate_s", Unit: "s", Better: "lower"},
	{Name: "oracle.build_s", Unit: "s", Better: "lower"},
	{Name: "fabric.allreduce_us", Unit: "us", Better: "lower"},
	{Name: "fabric.alltoallv_us", Unit: "us", Better: "lower"},
	{Name: "fabric.p2p_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "fabric.write_msgs", Unit: "count", Better: "lower"},
	{Name: "fabric.write_bytes", Unit: "B", Better: "lower"},
	{Name: "fabric.read_msgs", Unit: "count", Better: "lower"},
	{Name: "fabric.read_bytes", Unit: "B", Better: "lower"},
	{Name: "aggtree.build_ms", Unit: "ms", Better: "lower"},
	{Name: "aggtree.dist_build_ms", Unit: "ms", Better: "lower"},
	{Name: "aggtree.dist_rounds", Unit: "count", Better: "lower"},
	{Name: "aggtree.dist_peak_members", Unit: "count", Better: "lower"},
	{Name: "aggtree.leaves", Unit: "count", Better: "lower"},
	{Name: "aggtree.leaf_max_over_avg", Unit: "ratio", Better: "lower"},
	{Name: "core.write.tree_ms", Unit: "ms", Better: "lower"},
	{Name: "core.write.gather_scatter_ms", Unit: "ms", Better: "lower"},
	{Name: "core.write.transfer_ms", Unit: "ms", Better: "lower"},
	{Name: "core.write.bat_build_ms", Unit: "ms", Better: "lower"},
	{Name: "core.write.file_write_ms", Unit: "ms", Better: "lower"},
	{Name: "core.write.metadata_ms", Unit: "ms", Better: "lower"},
	{Name: "core.read.metadata_ms", Unit: "ms", Better: "lower"},
	{Name: "core.read.file_read_ms", Unit: "ms", Better: "lower"},
	{Name: "core.read.transfer_ms", Unit: "ms", Better: "lower"},
	{Name: "bat.build_ms", Unit: "ms", Better: "lower"},
	{Name: "bat.build_w1_ms", Unit: "ms", Better: "lower"},
	{Name: "bat.build_allocs_per_particle", Unit: "count", Better: "lower"},
	{Name: "radix.sort_mkeys_per_s", Unit: "Mkeys/s", Better: "higher"},
	{Name: "morton.encode_mpps", Unit: "Mparticles/s", Better: "higher"},
	{Name: "bat.overhead_fraction", Unit: "ratio", Better: "lower"},
	{Name: "bat.treelets", Unit: "count", Better: "lower"},
	{Name: "bat.max_treelet_depth", Unit: "count", Better: "lower"},
	{Name: "bat.codec.ratio", Unit: "ratio", Better: "higher"},
	{Name: "bat.codec.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "bat.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "bat.treelet_load_ms", Unit: "ms", Better: "lower"},
	{Name: "bat.scan_warm_ns_per_particle", Unit: "ns", Better: "lower"},
	{Name: "bat.scan_allocs_per_particle", Unit: "count", Better: "lower"},
	{Name: "bat.parallel_speedup", Unit: "ratio", Better: "higher"},
	{Name: "bat.query.false_positive_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bat.query.pruned_subtrees", Unit: "count", Better: "higher"},
	{Name: "bat.query.treelets_per_box", Unit: "count", Better: "lower"},
	{Name: "bat.cache.hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "bat.cache.evictions", Unit: "count", Better: "lower"},
	{Name: "bat.cache.bytes_mb", Unit: "MB", Better: "lower"},
	{Name: "bat.verify_ms", Unit: "ms", Better: "lower"},
	{Name: "checksum.crc_gb_per_s", Unit: "GB/s", Better: "higher"},
	{Name: "pfs.write_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "pfs.read_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "pfs.open_us", Unit: "us", Better: "lower"},
	{Name: "pfs.files_written", Unit: "count", Better: "lower"},
	{Name: "pfs.bytes_written", Unit: "B", Better: "lower"},
	{Name: "libbat.open_ms", Unit: "ms", Better: "lower"},
	{Name: "libbat.count_ms", Unit: "ms", Better: "lower"},
	{Name: "libbat.histogram_ms", Unit: "ms", Better: "lower"},
	{Name: "libbat.density_grid_ms", Unit: "ms", Better: "lower"},
	{Name: "batserve.start_ms", Unit: "ms", Better: "lower"},
	{Name: "batserve.info_ms", Unit: "ms", Better: "lower"},
	{Name: "batserve.full_scan_mpps", Unit: "Mpoints/s", Better: "higher"},
	{Name: "batserve.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "batserve.bytes_per_point", Unit: "B", Better: "lower"},
	{Name: "batserve.admission_rejected", Unit: "count", Better: "lower"},
	{Name: "perf.write_model_ratio", Unit: "ratio", Better: "lower"},
	{Name: "perf.plan_model_ratio", Unit: "ratio", Better: "lower"},
	{Name: "obs.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.heap_alloc_mb_per_write", Unit: "MB", Better: "lower"},
}

// timeMedian runs f reps times and returns the median duration.
func timeMedian(reps int, f func()) time.Duration {
	v := make([]float64, reps)
	for i := range v {
		start := time.Now()
		f()
		v[i] = float64(time.Since(start))
	}
	return time.Duration(median(v))
}

// mallocs returns the heap objects allocated while f ran.
func mallocs(f func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}

// probes times each layer from outside, through its exported functions, on
// the inputs of this workload, and adds the results to out.
func (t *trip) probes(out map[string]float64) error {
	t.fabricProbes(out)
	if err := t.planProbes(out); err != nil {
		return fmt.Errorf("aggtree probes: %w", err)
	}
	if err := t.buildProbes(out); err != nil {
		return fmt.Errorf("bat build probes: %w", err)
	}
	if err := t.leafProbes(out); err != nil {
		return fmt.Errorf("bat leaf probes: %w", err)
	}
	if err := t.pfsProbes(out); err != nil {
		return fmt.Errorf("pfs probes: %w", err)
	}
	if err := t.datasetProbes(out); err != nil {
		return fmt.Errorf("libbat probes: %w", err)
	}
	if err := t.serverProbes(out); err != nil {
		return fmt.Errorf("batserve probes: %w", err)
	}
	return nil
}

// fabricProbes times the collectives the planner leans on, at this world
// size, and a large point-to-point transfer (the particle exchange).
func (t *trip) fabricProbes(out map[string]float64) {
	p := len(t.sets)
	collective := func(reps int, call func(c *fabric.Comm)) float64 {
		var el time.Duration
		fabric.Run(p, func(c *fabric.Comm) error {
			c.Barrier()
			start := time.Now()
			for i := 0; i < reps; i++ {
				call(c)
			}
			if c.Rank() == 0 {
				el = time.Since(start)
			}
			return nil
		})
		return float64(el) / 1e3 / float64(reps)
	}
	keep := func(acc, _ []byte) []byte { return acc }
	out["fabric.allreduce_us"] = collective(200, func(c *fabric.Comm) { c.Allreduce(make([]byte, 24), keep) })
	// An Alltoallv moves P*P messages: cap the total near two million.
	reps := min(max(2_000_000/(p*p), 3), 200)
	out["fabric.alltoallv_us"] = collective(reps, func(c *fabric.Comm) {
		parts := make([][]byte, p)
		for i := range parts {
			parts[i] = make([]byte, 64)
		}
		c.Alltoallv(parts)
	})
	const pingPongs = 50
	var el time.Duration
	fabric.Run(2, func(c *fabric.Comm) error {
		buf := make([]byte, 1<<20)
		start := time.Now()
		for i := 0; i < pingPongs; i++ {
			if c.Rank() == 0 {
				c.Send(1, 0, buf)
				c.Recv(1, 0)
			} else {
				c.Recv(0, 0)
				c.Send(0, 0, buf)
			}
		}
		if c.Rank() == 0 {
			el = time.Since(start)
		}
		return nil
	})
	out["fabric.p2p_mb_per_s"] = 2 * pingPongs / el.Seconds()
}

// planProbes times both planners on this workload's rank infos and puts the
// measured write beside the analytic model (Stampede2 profile).
func (t *trip) planProbes(out map[string]float64) error {
	p := len(t.sets)
	bpp := t.sets[0].Schema.BytesPerParticle()
	infos := workloads.RankInfos(t.w, t.seed)
	cfg := t.cfg.Tree
	cfg.TargetFileSize, cfg.BytesPerParticle = t.spec.target, bpp

	var tree *aggtree.Tree
	var err error
	out["aggtree.build_ms"] = ms(timeMedian(5, func() { tree, err = aggtree.Build(infos, cfg) }))
	if err != nil {
		return err
	}
	stats := make([]aggtree.DistStats, p)
	start := time.Now()
	err = fabric.Run(p, func(c *fabric.Comm) error {
		plan, err := aggtree.DistributedBuild(c, infos[c.Rank()], aggtree.DistConfig{Config: cfg})
		if err == nil {
			stats[c.Rank()] = plan.Stats
		}
		return err
	})
	if err != nil {
		return err
	}
	out["aggtree.dist_build_ms"] = ms(time.Since(start))
	var rounds, peak int
	for _, st := range stats {
		rounds, peak = max(rounds, st.Rounds), max(peak, st.PeakMembers)
	}
	out["aggtree.dist_rounds"] = float64(rounds)
	out["aggtree.dist_peak_members"] = float64(peak)

	// Model calibration error: measured critical path over modeled.
	aggtree.AssignAggregators(tree.Leaves, p)
	loads := make([]perf.LeafLoad, len(tree.Leaves))
	for i, l := range tree.Leaves {
		loads[i] = perf.LeafLoad{Bytes: l.Bytes(bpp), Count: l.Count, Aggregator: l.Aggregator, Ranks: l.Ranks}
		for _, r := range l.Ranks {
			loads[i].MemberBytes = append(loads[i].MemberBytes, infos[r].Count*int64(bpp))
		}
	}
	prof := perf.Stampede2()
	model := prof.ModelTwoPhaseWrite(p, loads, 64+20*t.o.attrs)
	var critical float64
	for _, phase := range []string{"tree", "gather_scatter", "transfer", "bat_build", "file_write", "metadata"} {
		critical += out["core.write."+phase+"_ms"]
	}
	out["perf.write_model_ratio"] = critical / ms(model.Total())
	plan := prof.ModelCentralizedPlan(p, perf.DefaultPlanParams()).Total()
	if p >= core.DefaultDistPlanThreshold {
		plan = prof.ModelDistributedPlan(p, len(tree.Leaves), perf.DefaultPlanParams()).Total()
	}
	out["perf.plan_model_ratio"] = (out["core.write.tree_ms"] + out["core.write.gather_scatter_ms"]) / ms(plan)
	return nil
}

// largestLeaf gathers the particles of the aggregation leaf holding the
// most, the build every write waits for.
func (t *trip) largestLeaf() (*particles.Set, aggtree.Leaf, error) {
	cfg := t.cfg.Tree
	cfg.TargetFileSize, cfg.BytesPerParticle = t.spec.target, t.sets[0].Schema.BytesPerParticle()
	tree, err := aggtree.Build(workloads.RankInfos(t.w, t.seed), cfg)
	if err != nil {
		return nil, aggtree.Leaf{}, err
	}
	big := tree.Leaves[0]
	for _, l := range tree.Leaves {
		if l.Count > big.Count {
			big = l
		}
	}
	set := particles.NewSet(t.sets[0].Schema, int(big.Count))
	for _, r := range big.Ranks {
		set.AppendSet(t.sets[r])
	}
	return set, big, nil
}

// buildProbes times bat.Build and its sort stage on the largest leaf.
func (t *trip) buildProbes(out map[string]float64) error {
	set, leaf, err := t.largestLeaf()
	if err != nil {
		return err
	}
	n := float64(set.Len())
	var built *bat.Built
	build := func(cfg bat.BuildConfig) time.Duration {
		return timeMedian(3, func() { built, err = bat.Build(set, leaf.Bounds, cfg) })
	}
	w1 := t.cfg.BAT
	w1.Workers = 1
	out["bat.build_w1_ms"] = ms(build(w1))
	withCodec := build(t.cfg.BAT)
	if err != nil {
		return err
	}
	out["bat.build_ms"] = ms(withCodec)
	out["bat.build_allocs_per_particle"] = float64(mallocs(func() { bat.Build(set, leaf.Bounds, t.cfg.BAT) })) / n
	out["bat.overhead_fraction"] = built.Stats.OverheadFraction()
	out["bat.treelets"] = float64(built.Stats.NumTreelets)
	out["bat.max_treelet_depth"] = float64(built.Stats.MaxTreeletDepth)
	out["bat.codec.encode_ms"] = 0
	if t.spec.compress {
		plain := t.cfg.BAT
		plain.Compress, plain.AttrErrorBounds = false, nil
		out["bat.codec.encode_ms"] = ms(withCodec - build(plain))
	}

	codes := make([]morton.Code, set.Len())
	enc := timeMedian(3, func() { morton.FromPoints(codes, set.X, set.Y, set.Z, leaf.Bounds) })
	out["morton.encode_mpps"] = n / enc.Seconds() / 1e6
	keys, vals := make([]morton.Code, len(codes)), make([]int, len(codes))
	var sortTime []float64
	for rep := 0; rep < 3; rep++ {
		copy(keys, codes)
		for i := range vals {
			vals[i] = i
		}
		start := time.Now()
		radix.SortPairs(keys, vals, runtime.GOMAXPROCS(0))
		sortTime = append(sortTime, time.Since(start).Seconds())
	}
	out["radix.sort_mkeys_per_s"] = n / median(sortTime) / 1e6
	buf := built.Buf
	crc := timeMedian(5, func() { checksum.CRC32C(buf) })
	out["checksum.crc_gb_per_s"] = float64(len(buf)) / crc.Seconds() / 1e9
	return nil
}

// leafProbes opens every leaf file as a bat.File and measures the read-side
// layers below Dataset: header decode, treelet loads, the warm traversal
// loop, both engines, verification, and what the box and filter sets prune.
func (t *trip) leafProbes(out map[string]float64) error {
	ctx := context.Background()
	var decode, coldScan, warmScan, warm2, verify time.Duration
	var scanAllocs uint64
	var visited int64
	var rawBytes, encBytes uint64
	var boxStats, allStats bat.QueryStats
	count := func(q libbat.Query, f *bat.File, cfg bat.QueryConfig) (time.Duration, bat.QueryStats, error) {
		start := time.Now()
		st, err := f.QueryWithConfig(q, cfg, func(libbat.Vec3, []float64) error { return nil })
		return time.Since(start), st, err
	}
	for _, leaf := range t.warm.Leaves() {
		h, err := t.store.Open(leaf.FileName)
		if err != nil {
			return err
		}
		start := time.Now()
		f, err := bat.DecodeCtx(ctx, h, h.Size())
		decode += time.Since(start)
		if err != nil {
			h.Close()
			return err
		}
		f.SetCloser(h)
		cold, _, err := count(libbat.Query{}, f, bat.QueryConfig{})
		if err != nil {
			f.Close()
			return err
		}
		coldScan += cold
		var st bat.QueryStats
		var warm time.Duration
		scanAllocs += mallocs(func() { warm, st, _ = count(libbat.Query{}, f, bat.QueryConfig{}) })
		warmScan += warm
		visited += st.Visited
		par, _, _ := count(libbat.Query{}, f, bat.QueryConfig{Workers: 2})
		warm2 += par
		for i := range t.boxes {
			_, st, _ := count(libbat.Query{Bounds: &t.boxes[i]}, f, bat.QueryConfig{})
			addStats(&boxStats, st)
		}
		for _, fl := range t.filters {
			_, st, _ := count(libbat.Query{Filters: []libbat.AttrFilter{fl}}, f, bat.QueryConfig{})
			addStats(&allStats, st)
		}
		start = time.Now()
		err = f.Verify()
		verify += time.Since(start)
		if ci := f.Compression(); ci != nil {
			rawBytes += ci.RawPayloadBytes
			encBytes += ci.EncPayloadBytes
		}
		f.Close()
		if err != nil {
			return err
		}
	}
	if visited != t.o.n {
		return fmt.Errorf("leaf scans visited %d of %d particles", visited, t.o.n)
	}
	addStats(&allStats, boxStats)
	out["bat.decode_ms"] = ms(decode)
	out["bat.treelet_load_ms"] = ms(coldScan - warmScan)
	out["bat.scan_warm_ns_per_particle"] = float64(warmScan) / float64(visited)
	out["bat.scan_allocs_per_particle"] = float64(scanAllocs) / float64(visited)
	out["bat.parallel_speedup"] = float64(warmScan) / float64(warm2)
	out["bat.verify_ms"] = ms(verify)
	out["bat.codec.ratio"] = 1
	if encBytes > 0 {
		out["bat.codec.ratio"] = float64(rawBytes) / float64(encBytes)
	}
	out["bat.query.false_positive_ratio"] = 0
	if seen := allStats.Visited + allStats.FalsePositives; seen > 0 {
		out["bat.query.false_positive_ratio"] = float64(allStats.FalsePositives) / float64(seen)
	}
	out["bat.query.pruned_subtrees"] = float64(allStats.PrunedSubtrees)
	out["bat.query.treelets_per_box"] = float64(boxStats.Treelets) / float64(len(t.boxes))
	return nil
}

func addStats(a *bat.QueryStats, b bat.QueryStats) {
	a.Visited += b.Visited
	a.FalsePositives += b.FalsePositives
	a.PrunedSubtrees += b.PrunedSubtrees
	a.Treelets += b.Treelets
}

// pfsProbes moves a leaf-sized buffer through the same pfs.OS.
func (t *trip) pfsProbes(out map[string]float64) error {
	const probe = "pfs-probe.tmpdata"
	size := int(t.spec.target)
	buf := bytes.Repeat([]byte{0xA5}, size)
	var err error
	wr := timeMedian(5, func() {
		if e := t.store.WriteFile(probe, buf); e != nil {
			err = e
		}
	})
	defer t.store.Remove(probe)
	if err != nil {
		return err
	}
	rd := timeMedian(5, func() {
		h, e := t.store.Open(probe)
		if e == nil {
			_, e = h.ReadAt(buf, 0)
			h.Close()
		}
		if e != nil {
			err = e
		}
	})
	op := timeMedian(50, func() {
		if h, e := t.store.Open(probe); e == nil {
			h.Close()
		}
	})
	out["pfs.write_mb_per_s"] = float64(size) / wr.Seconds() / 1e6
	out["pfs.read_mb_per_s"] = float64(size) / rd.Seconds() / 1e6
	out["pfs.open_us"] = float64(op) / 1e3
	return err
}

// datasetProbes times the named Dataset calls on the warm dataset and reads
// its cache counters (after the warm phases of every trip so far).
func (t *trip) datasetProbes(out map[string]float64) error {
	var err error
	note := func(e error) {
		if e != nil && err == nil {
			err = e
		}
	}
	out["libbat.open_ms"] = ms(timeMedian(5, func() {
		ds, e := libbat.OpenDataset(t.store, base)
		note(e)
		if e == nil {
			note(ds.Close())
		}
	}))
	all := libbat.Query{}
	out["libbat.count_ms"] = ms(timeMedian(3, func() { _, e := t.warm.Count(all); note(e) }))
	out["libbat.histogram_ms"] = ms(timeMedian(3, func() { _, e := t.warm.Histogram(0, histBins, all); note(e) }))
	out["libbat.density_grid_ms"] = ms(timeMedian(3, func() { _, e := t.warm.DensityGrid(gridSide, gridSide, gridSide, all); note(e) }))
	cs := t.warm.CacheStats()
	out["bat.cache.hit_rate"] = cs.HitRate()
	out["bat.cache.evictions"] = float64(cs.Evictions)
	out["bat.cache.bytes_mb"] = float64(cs.Bytes) / 1e6
	return err
}

// serverProbes measures batserve alone: /info latency, a one-client full
// scan, and the admission counters on /metrics.
func (t *trip) serverProbes(out map[string]float64) error {
	var err error
	out["batserve.info_ms"] = ms(timeMedian(20, func() {
		resp, e := t.srv.client.Get(t.srv.url + "/info")
		if e != nil {
			err = e
			return
		}
		resp.Body.Close()
	}))
	if err != nil {
		return err
	}
	full := request{kind: "scan", query: "quality=1", stride: 12}
	var buf bytes.Buffer
	var mpps []float64
	for i := 0; i < 3; i++ {
		lat, got, err := t.srv.fetch(full, &buf)
		if err != nil || got != t.o.full {
			return fmt.Errorf("full scan: got %+v want %+v err %v", got, t.o.full, err)
		}
		mpps = append(mpps, float64(got.Count)/lat.Seconds()/1e6)
	}
	out["batserve.full_scan_mpps"] = median(mpps)
	rejected, err := t.srv.scrape("bat_admission_rejected_total")
	out["batserve.admission_rejected"] = rejected
	return err
}

// procStats reads what the process cost in memory: peak RSS and GC pauses.
func procStats(out map[string]float64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	out["proc.gc_pause_ms"] = float64(m.PauseTotalNs) / 1e6
	out["proc.peak_rss_mb"] = 0
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				kb, _ := strconv.ParseFloat(f[1], 64)
				out["proc.peak_rss_mb"] = kb / 1e3
			}
		}
	}
}
