package bench

import (
	"fmt"

	"libbat/internal/aggtree"
	"libbat/internal/ior"
	"libbat/internal/perf"
	"libbat/internal/workloads"
)

// CompareConfig parameterizes the adaptive-vs-AUG comparisons of Figures
// 9-12, run on the Stampede2 profile as in the paper.
type CompareConfig struct {
	Profile     perf.Profile
	Ranks       int
	Steps       []int
	TargetSizes []int64
}

// DefaultCoalBoilerCompare matches §VI-A.2: 1536 ranks, timesteps 501 to
// 4501, on Stampede2 SKX nodes.
func DefaultCoalBoilerCompare() CompareConfig {
	return CompareConfig{
		Profile:     perf.Stampede2(),
		Ranks:       1536,
		Steps:       []int{501, 1501, 2501, 3501, 4501},
		TargetSizes: []int64{8 << 20, 16 << 20, 32 << 20, 64 << 20},
	}
}

// DefaultDamBreakCompare matches §VI-A.2 for the given scale: the 2M
// particle run on 1536 ranks or the 8M run on 6144 ranks.
func DefaultDamBreakCompare(big bool) (CompareConfig, int64) {
	cfg := CompareConfig{
		Profile:     perf.Stampede2(),
		Ranks:       1536,
		Steps:       []int{0, 1001, 2001, 3001, 4001},
		TargetSizes: []int64{1 << 20, 3 << 20, 8 << 20},
	}
	total := int64(2_000_000)
	if big {
		cfg.Ranks = 6144
		total = 8_000_000
	}
	return cfg, total
}

// compareTable shares the machinery of Figures 9 and 11: bandwidth of
// adaptive vs AUG aggregation over a time series, per target size.
func compareTable(title string, w workloads.Workload, cfg CompareConfig, reads bool) (*Table, error) {
	t := &Table{Title: title}
	t.Header = []string{"step", "particles"}
	for _, ts := range cfg.TargetSizes {
		t.Header = append(t.Header, "adaptive-"+sizeMB(ts), "aug-"+sizeMB(ts))
	}
	bpp := w.Schema().BytesPerParticle()
	nA := w.Schema().NumAttrs()
	for _, step := range cfg.Steps {
		infos := workloads.RankInfos(w, step)
		total := workloads.TotalCount(w, step)
		row := []string{fmt.Sprintf("%d", step), fmt.Sprintf("%.1fM", float64(total)/1e6)}
		for _, ts := range cfg.TargetSizes {
			for _, adaptive := range []bool{true, false} {
				loads, _, err := planLeafLoads(infos, cfg.Ranks, ts, bpp, adaptive)
				if err != nil {
					return nil, err
				}
				d := modelTime(cfg.Profile, cfg.Ranks, loads, nA, reads)
				row = append(row, mbs(ior.Bandwidth(total*int64(bpp), d)))
			}
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes, "bandwidth in MB/s; dashed-line AUG columns use the adjustable uniform grid of Kumar et al. [27]")
	return t, nil
}

// Fig9CoalBoiler regenerates Figure 9: adaptive vs AUG write (a) and read
// (b) bandwidth on the Coal Boiler time series.
func Fig9CoalBoiler(cfg CompareConfig) (write, read *Table, err error) {
	cb, err := workloads.NewCoalBoiler(cfg.Ranks)
	if err != nil {
		return nil, nil, err
	}
	write, err = compareTable("Fig 9a: Coal Boiler adaptive vs AUG write bandwidth [MB/s]", cb, cfg, false)
	if err != nil {
		return nil, nil, err
	}
	read, err = compareTable("Fig 9b: Coal Boiler adaptive vs AUG read bandwidth [MB/s]", cb, cfg, true)
	return write, read, err
}

// Fig11DamBreak regenerates Figure 11 for one scale of the Dam Break.
func Fig11DamBreak(cfg CompareConfig, totalParticles int64) (write, read *Table, err error) {
	db, err := workloads.NewDamBreak(cfg.Ranks, totalParticles)
	if err != nil {
		return nil, nil, err
	}
	label := fmt.Sprintf("%dM Dam Break (%d ranks)", totalParticles/1_000_000, cfg.Ranks)
	write, err = compareTable("Fig 11 "+label+" write bandwidth [MB/s]", db, cfg, false)
	if err != nil {
		return nil, nil, err
	}
	read, err = compareTable("Fig 11 "+label+" read bandwidth [MB/s]", db, cfg, true)
	return write, read, err
}

// breakdownTable shares Figures 10 and 12: component times of adaptive vs
// AUG at one target size over a time series.
func breakdownTable(title string, w workloads.Workload, cfg CompareConfig, target int64) (*Table, error) {
	t := &Table{
		Title: title,
		Header: []string{"step", "strategy", "files", "tree", "gather/scatter",
			"transfer", "bat-build", "file-write", "metadata", "total"},
	}
	bpp := w.Schema().BytesPerParticle()
	nA := w.Schema().NumAttrs()
	for _, step := range cfg.Steps {
		infos := workloads.RankInfos(w, step)
		for _, adaptive := range []bool{true, false} {
			loads, leaves, err := planLeafLoads(infos, cfg.Ranks, target, bpp, adaptive)
			if err != nil {
				return nil, err
			}
			bd := cfg.Profile.ModelTwoPhaseWrite(cfg.Ranks, loads, metaBytesPerLeaf(nA))
			t.AddRow(fmt.Sprintf("%d", step), strategyName(adaptive), fmt.Sprintf("%d", len(leaves)),
				ms(bd.TreeBuild), ms(bd.GatherScatter), ms(bd.Transfer),
				ms(bd.BATBuild), ms(bd.FileWrite), ms(bd.Metadata), ms(bd.Total()))
		}
	}
	return t, nil
}

// Fig10Breakdown regenerates Figure 10: Coal Boiler component breakdown at
// the 8 MB target size.
func Fig10Breakdown(cfg CompareConfig) (*Table, error) {
	cb, err := workloads.NewCoalBoiler(cfg.Ranks)
	if err != nil {
		return nil, err
	}
	return breakdownTable("Fig 10: Coal Boiler breakdown, 8MB target [ms]", cb, cfg, 8<<20)
}

// Fig12Breakdown regenerates Figure 12: 8M Dam Break component breakdown
// at the 3 MB target size.
func Fig12Breakdown(cfg CompareConfig, totalParticles int64) (*Table, error) {
	db, err := workloads.NewDamBreak(cfg.Ranks, totalParticles)
	if err != nil {
		return nil, err
	}
	return breakdownTable(fmt.Sprintf("Fig 12: %dM Dam Break breakdown, 3MB target [ms]",
		totalParticles/1_000_000), db, cfg, 3<<20)
}

// FileStats regenerates the §VI-A.2 output-file statistics: the file count
// and size distribution written by adaptive vs AUG aggregation on the Coal
// Boiler at timestep 4501 with an 8 MB target.
func FileStats(ranks, step int, target int64) (*Table, error) {
	cb, err := workloads.NewCoalBoiler(ranks)
	if err != nil {
		return nil, err
	}
	bpp := cb.Schema().BytesPerParticle()
	infos := workloads.RankInfos(cb, step)
	t := &Table{
		Title:  fmt.Sprintf("File statistics (§VI-A.2): Coal Boiler step %d, %s target", step, sizeMB(target)),
		Header: []string{"strategy", "files", "avg MB", "stddev MB", "max MB"},
	}
	for _, adaptive := range []bool{true, false} {
		_, leaves, err := planLeafLoads(infos, ranks, target, bpp, adaptive)
		if err != nil {
			return nil, err
		}
		st := aggtree.LeafSizeStats(leaves, bpp)
		t.AddRow(strategyName(adaptive), fmt.Sprintf("%d", st.NumFiles),
			fmt.Sprintf("%.1f", st.MeanB/(1<<20)),
			fmt.Sprintf("%.1f", st.StddevB/(1<<20)),
			fmt.Sprintf("%.1f", float64(st.MaxB)/(1<<20)))
	}
	t.Notes = append(t.Notes,
		"paper: AUG 296 files avg 10.2 +/- 13.9 MB max 72.9; adaptive 327 files avg 9.2 +/- 8.4 MB max 36.6")
	return t, nil
}
