package bench

import (
	"fmt"
	"time"

	"libbat/internal/aggtree"
	"libbat/internal/bat"
	"libbat/internal/core"
	"libbat/internal/ior"
	"libbat/internal/perf"
	"libbat/internal/workloads"
)

// AblateOverfull isolates the overfull-leaf rule (§III-A): the coal boiler
// plan is built with and without it and the resulting file distribution
// and modeled write time are compared. Without the rule the tree must keep
// splitting badly imbalanced nodes, producing many tiny files.
func AblateOverfull(ranks, step int, target int64) (*Table, error) {
	cb, err := workloads.NewCoalBoiler(ranks)
	if err != nil {
		return nil, err
	}
	bpp := cb.Schema().BytesPerParticle()
	infos := workloads.RankInfos(cb, step)
	p := perf.Stampede2()
	t := &Table{
		Title:  fmt.Sprintf("Ablation: overfull leaves (coal boiler step %d, %s target)", step, sizeMB(target)),
		Header: []string{"overfull", "files", "avg MB", "stddev MB", "max MB", "write ms"},
	}
	for _, allow := range []bool{true, false} {
		cfg := aggtree.DefaultConfig(target, bpp)
		cfg.AllowOverfull = allow
		tr, err := aggtree.Build(infos, cfg)
		if err != nil {
			return nil, err
		}
		aggtree.AssignAggregators(tr.Leaves, ranks)
		loads := toLoads(tr.Leaves, infos, bpp)
		bd := p.ModelTwoPhaseWrite(ranks, loads, metaBytesPerLeaf(cb.Schema().NumAttrs()))
		st := aggtree.LeafSizeStats(tr.Leaves, bpp)
		t.AddRow(fmt.Sprintf("%v", allow), fmt.Sprintf("%d", st.NumFiles),
			fmt.Sprintf("%.1f", st.MeanB/(1<<20)),
			fmt.Sprintf("%.1f", st.StddevB/(1<<20)),
			fmt.Sprintf("%.1f", float64(st.MaxB)/(1<<20)),
			ms(bd.Total()))
	}
	return t, nil
}

// AblateSplitAxes compares longest-axis-only splitting against the
// optional best-split-across-all-axes mode (§III-A option).
func AblateSplitAxes(ranks, step int, target int64) (*Table, error) {
	db, err := workloads.NewDamBreak(ranks, 2_000_000)
	if err != nil {
		return nil, err
	}
	bpp := db.Schema().BytesPerParticle()
	infos := workloads.RankInfos(db, step)
	t := &Table{
		Title:  fmt.Sprintf("Ablation: split axis search (dam break step %d, %s target)", step, sizeMB(target)),
		Header: []string{"all-axes", "files", "stddev MB", "max MB", "build us"},
	}
	for _, all := range []bool{false, true} {
		cfg := aggtree.DefaultConfig(target, bpp)
		cfg.BestSplitAllAxes = all
		start := time.Now()
		tr, err := aggtree.Build(infos, cfg)
		if err != nil {
			return nil, err
		}
		build := time.Since(start)
		st := aggtree.LeafSizeStats(tr.Leaves, bpp)
		t.AddRow(fmt.Sprintf("%v", all), fmt.Sprintf("%d", st.NumFiles),
			fmt.Sprintf("%.2f", st.StddevB/(1<<20)),
			fmt.Sprintf("%.2f", float64(st.MaxB)/(1<<20)),
			fmt.Sprintf("%d", build.Microseconds()))
	}
	return t, nil
}

// AblateLOD sweeps the LOD-particles-per-node and max-leaf-size parameters
// of the BAT (§III-C2; the paper uses 8 and 128) and measures real
// progressive read latency and layout overhead on a materialized dataset.
func AblateLOD(ranks int, particles int64) (*Table, error) {
	cb, err := workloads.NewCoalBoiler(ranks)
	if err != nil {
		return nil, err
	}
	cb.SetGrowth(0, 1, particles, particles)
	t := &Table{
		Title:  "Ablation: BAT LOD particles per node / leaf size (real reads)",
		Header: []string{"lod/node", "leaf size", "avg read ms", "pts/ms", "overhead"},
	}
	for _, cfg := range []struct{ lod, leaf int }{
		{4, 128}, {8, 128}, {16, 128}, {8, 64}, {8, 256},
	} {
		store, err := makeStore("")
		if err != nil {
			return nil, err
		}
		wc := core.DefaultWriteConfig(2 << 20)
		wc.BAT.LODPerNode = cfg.lod
		wc.BAT.MaxLeafSize = cfg.leaf
		base := fmt.Sprintf("ablate-%d-%d", cfg.lod, cfg.leaf)
		if _, err := writeStep(cb, 0, store, base, wc); err != nil {
			return nil, err
		}
		res, err := ProgressiveRead(store, base)
		if err != nil {
			return nil, err
		}
		fileBytes, err := storedBytes(store)
		if err != nil {
			return nil, err
		}
		raw := particles * int64(cb.Schema().BytesPerParticle())
		t.AddRow(fmt.Sprintf("%d", cfg.lod), fmt.Sprintf("%d", cfg.leaf),
			fmt.Sprintf("%.2f", res.AvgReadMs), fmt.Sprintf("%.0f", res.PtsPerMs),
			fmt.Sprintf("%.2f%%", 100*float64(fileBytes-raw)/float64(raw)))
	}
	t.Notes = append(t.Notes, "paper defaults: 8 LOD particles per inner node, 128 particles per leaf")
	return t, nil
}

// AblateBitmapDictionary measures what the 16-bit-ID dictionary saves over
// storing raw 32-bit bitmaps at every node (§III-C3).
func AblateBitmapDictionary(particles int) (*Table, error) {
	cb, err := workloads.NewCoalBoiler(8)
	if err != nil {
		return nil, err
	}
	cb.SetGrowth(0, 1, int64(particles), int64(particles))
	set := cb.Generate(0, heaviestRank(cb, 0))
	built, err := bat.Build(set, cb.Decomp().Domain, bat.DefaultBuildConfig())
	if err != nil {
		return nil, err
	}
	s := built.Stats
	nA := cb.Schema().NumAttrs()
	// Every treelet node and every leaf record stores an ID per attribute;
	// the shallow tree is derived, not stored.
	nodes := s.NumTreeletNodes + s.NumTreelets
	withDict := int64(nodes*2*nA) + int64(4*s.DictEntries)
	withoutDict := int64(nodes * 4 * nA)
	t := &Table{
		Title:  "Ablation: bitmap dictionary (16-bit IDs + dictionary vs raw 32-bit bitmaps)",
		Header: []string{"nodes", "unique bitmaps", "dict bytes", "raw bytes", "saving"},
	}
	t.AddRow(fmt.Sprintf("%d", nodes), fmt.Sprintf("%d", s.DictEntries),
		fmt.Sprintf("%d", withDict), fmt.Sprintf("%d", withoutDict),
		fmt.Sprintf("%.0f%%", 100*(1-float64(withDict)/float64(withoutDict))))
	return t, nil
}

// AblateAggregatorSpread compares the paper's even aggregator spread
// through the rank space [39] against naively assigning leaf i to rank i,
// which piles aggregators onto the first nodes.
func AblateAggregatorSpread(ranks, step int, target int64) (*Table, error) {
	cb, err := workloads.NewCoalBoiler(ranks)
	if err != nil {
		return nil, err
	}
	bpp := cb.Schema().BytesPerParticle()
	infos := workloads.RankInfos(cb, step)
	p := perf.Stampede2()
	total := workloads.TotalCount(cb, step)
	tr, err := aggtree.Build(infos, aggtree.DefaultConfig(target, bpp))
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Ablation: aggregator placement (coal boiler step %d, %s target)", step, sizeMB(target)),
		Header: []string{"placement", "write ms", "bandwidth MB/s"},
	}
	for _, spread := range []bool{true, false} {
		leaves := append([]aggtree.Leaf(nil), tr.Leaves...)
		if spread {
			aggtree.AssignAggregators(leaves, ranks)
		} else {
			for i := range leaves {
				leaves[i].Aggregator = i % ranks
			}
		}
		loads := toLoads(leaves, infos, bpp)
		bd := p.ModelTwoPhaseWrite(ranks, loads, metaBytesPerLeaf(cb.Schema().NumAttrs()))
		name := "even spread [39]"
		if !spread {
			name = "first-fit"
		}
		t.AddRow(name, ms(bd.Total()),
			mbs(ior.Bandwidth(total*int64(bpp), bd.Total())))
	}
	return t, nil
}

// toLoads converts leaves to cost-model loads.
func toLoads(leaves []aggtree.Leaf, infos []aggtree.RankInfo, bpp int) []perf.LeafLoad {
	loads := make([]perf.LeafLoad, len(leaves))
	for i, l := range leaves {
		ld := perf.LeafLoad{
			Bytes:      l.Bytes(bpp),
			Count:      l.Count,
			Aggregator: l.Aggregator,
			Ranks:      l.Ranks,
		}
		ld.MemberBytes = make([]int64, len(l.Ranks))
		for j, r := range l.Ranks {
			ld.MemberBytes[j] = infos[r].Count * int64(bpp)
		}
		loads[i] = ld
	}
	return loads
}

// heaviestRank returns the rank with the most particles at a step.
func heaviestRank(w workloads.Workload, step int) int {
	counts := w.Counts(step)
	best := 0
	for r, c := range counts {
		if c > counts[best] {
			best = r
		}
	}
	return best
}
