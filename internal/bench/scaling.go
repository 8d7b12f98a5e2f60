package bench

import (
	"fmt"
	"time"

	"libbat/internal/aggtree"
	"libbat/internal/aug"
	"libbat/internal/ior"
	"libbat/internal/perf"
	"libbat/internal/workloads"
)

// UniformPerRank is the paper's weak-scaling payload: 32k particles per
// rank, each 3 x float32 + 14 x float64 (4.06 MB per rank).
const UniformPerRank = 32768

// UniformAttrs is the attribute count of the weak-scaling payload.
const UniformAttrs = 14

// metaBytesPerLeaf approximates the per-leaf metadata payload (ranges +
// bitmaps per attribute plus bounds and the file reference).
func metaBytesPerLeaf(numAttrs int) int { return 64 + 20*numAttrs }

// planLeafLoads runs the requested aggregation strategy for real on the
// per-rank infos and converts the result to cost-model leaf loads.
func planLeafLoads(infos []aggtree.RankInfo, worldSize int, target int64,
	bpp int, adaptive bool) ([]perf.LeafLoad, []aggtree.Leaf, error) {

	var leaves []aggtree.Leaf
	if adaptive {
		tr, err := aggtree.Build(infos, aggtree.DefaultConfig(target, bpp))
		if err != nil {
			return nil, nil, err
		}
		leaves = tr.Leaves
	} else {
		var err error
		leaves, err = aug.Build(infos, aug.Config{TargetFileSize: target, BytesPerParticle: bpp})
		if err != nil {
			return nil, nil, err
		}
	}
	aggtree.AssignAggregators(leaves, worldSize)
	return toLoads(leaves, infos, bpp), leaves, nil
}

// modelTime is the modeled duration of one two-phase write (or read) of the
// leaf loads on p.
func modelTime(p perf.Profile, ranks int, loads []perf.LeafLoad, numAttrs int, reads bool) time.Duration {
	if reads {
		return p.ModelTwoPhaseRead(ranks, loads, metaBytesPerLeaf(numAttrs)).Total()
	}
	return p.ModelTwoPhaseWrite(ranks, loads, metaBytesPerLeaf(numAttrs)).Total()
}

// strategyName labels a table row by its aggregation strategy.
func strategyName(adaptive bool) string {
	if adaptive {
		return "adaptive"
	}
	return "aug"
}

// WeakScalingConfig parameterizes Figures 5 and 7.
type WeakScalingConfig struct {
	Profile     perf.Profile
	RankCounts  []int
	TargetSizes []int64
	PerRank     int64 // particles per rank
	NumAttrs    int
}

// DefaultWeakScaling returns the paper's configuration for a system:
// Stampede2 scales to ~24k ranks, Summit to ~43k (Figure 5a/5b).
func DefaultWeakScaling(p perf.Profile) WeakScalingConfig {
	ranks := []int{96, 384, 1536, 6144, 24576}
	if p.Name == "summit" {
		ranks = []int{84, 336, 1344, 5376, 21504, 43008}
	}
	return WeakScalingConfig{
		Profile:     p,
		RankCounts:  ranks,
		TargetSizes: []int64{8 << 20, 32 << 20, 64 << 20, 256 << 20},
		PerRank:     UniformPerRank,
		NumAttrs:    UniformAttrs,
	}
}

// scalingTable shares the machinery of Figures 5 (writes) and 7 (reads).
func scalingTable(cfg WeakScalingConfig, reads bool) (*Table, error) {
	kind, figure := "write", "Fig 5"
	if reads {
		kind, figure = "read", "Fig 7"
	}
	t := &Table{
		Title: fmt.Sprintf("%s (%s): %s bandwidth weak scaling, uniform %dk particles/rank [GB/s]",
			figure, cfg.Profile.Name, kind, cfg.PerRank/1024),
	}
	t.Header = []string{"ranks", "fpp", "shared", "hdf5"}
	for _, ts := range cfg.TargetSizes {
		t.Header = append(t.Header, "ours-"+sizeMB(ts))
	}
	for _, n := range cfg.RankCounts {
		w, err := workloads.NewUniform(n, cfg.PerRank, cfg.NumAttrs)
		if err != nil {
			return nil, err
		}
		bpp := w.Schema().BytesPerParticle()
		bytesPerRank := cfg.PerRank * int64(bpp)
		total := int64(n) * bytesPerRank
		row := []string{fmt.Sprintf("%d", n)}
		for _, m := range []ior.Mode{ior.FilePerProcess, ior.SharedFile, ior.HDF5Shared} {
			var d time.Duration
			if reads {
				d = ior.ReadTime(cfg.Profile, m, n, bytesPerRank)
			} else {
				d = ior.WriteTime(cfg.Profile, m, n, bytesPerRank)
			}
			row = append(row, gbs(ior.Bandwidth(total, d)))
		}
		infos := workloads.RankInfos(w, 0)
		for _, ts := range cfg.TargetSizes {
			loads, _, err := planLeafLoads(infos, n, ts, bpp, true)
			if err != nil {
				return nil, err
			}
			d := modelTime(cfg.Profile, n, loads, cfg.NumAttrs, reads)
			row = append(row, gbs(ior.Bandwidth(total, d)))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"aggregation plans computed by the real adaptive tree; byte movement charged to the "+cfg.Profile.Name+" cost model")
	return t, nil
}

// Fig5WriteScaling regenerates Figure 5 (write bandwidth weak scaling vs
// IOR baselines) for one system profile.
func Fig5WriteScaling(cfg WeakScalingConfig) (*Table, error) {
	return scalingTable(cfg, false)
}

// Fig7ReadScaling regenerates Figure 7 (read bandwidth weak scaling).
func Fig7ReadScaling(cfg WeakScalingConfig) (*Table, error) {
	return scalingTable(cfg, true)
}

// Fig6Breakdown regenerates Figure 6: the time spent in each component of
// the write pipeline at 8 MB and 64 MB target sizes across scales.
func Fig6Breakdown(cfg WeakScalingConfig) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Fig 6 (%s): write timing breakdown [ms]", cfg.Profile.Name),
		Header: []string{"ranks", "target", "tree", "gather/scatter", "transfer",
			"bat-build", "file-write", "metadata", "total"},
	}
	for _, n := range cfg.RankCounts {
		w, err := workloads.NewUniform(n, cfg.PerRank, cfg.NumAttrs)
		if err != nil {
			return nil, err
		}
		bpp := w.Schema().BytesPerParticle()
		infos := workloads.RankInfos(w, 0)
		for _, ts := range []int64{8 << 20, 64 << 20} {
			loads, _, err := planLeafLoads(infos, n, ts, bpp, true)
			if err != nil {
				return nil, err
			}
			bd := cfg.Profile.ModelTwoPhaseWrite(n, loads, metaBytesPerLeaf(cfg.NumAttrs))
			t.AddRow(fmt.Sprintf("%d", n), sizeMB(ts), ms(bd.TreeBuild), ms(bd.GatherScatter),
				ms(bd.Transfer), ms(bd.BATBuild), ms(bd.FileWrite), ms(bd.Metadata), ms(bd.Total()))
		}
	}
	return t, nil
}
