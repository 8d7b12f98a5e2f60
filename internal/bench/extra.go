package bench

import (
	"fmt"

	"libbat/internal/core"
	"libbat/internal/ior"
	"libbat/internal/perf"
	"libbat/internal/workloads"
)

// CosmoCompare is an extension experiment beyond the paper's evaluation:
// adaptive vs AUG aggregation on a cosmology (halo-clustering) workload,
// the other domain the paper's introduction motivates. As structure forms
// the distribution concentrates into halos, and the adaptive tree's
// advantage grows.
func CosmoCompare(cfg CompareConfig, totalParticles int64, nHalos int) (*Table, error) {
	cosmo, err := workloads.NewCosmo(cfg.Ranks, totalParticles, nHalos)
	if err != nil {
		return nil, err
	}
	return compareTable(
		fmt.Sprintf("Extension: cosmology (%d halos) adaptive vs AUG write bandwidth [MB/s]", nHalos),
		cosmo, cfg, false)
}

// RecommendCheck validates the automatic target-size policy
// (libbat.RecommendTargetSize, paper §VII-A future work) against a sweep:
// at each scale it reports the modeled write bandwidth of the recommended
// target and of the best target in the sweep.
func RecommendCheck(p perf.Profile, rankCounts []int, perRank int64, numAttrs int,
	recommend func(ranks int, bytesPerRank int64) int64) (*Table, error) {

	t := &Table{
		Title: fmt.Sprintf("Extension: RecommendTargetSize vs sweep (%s)", p.Name),
		Header: []string{"ranks", "recommended", "rec GB/s", "best target", "best GB/s",
			"rec/best"},
	}
	sweep := []int64{2 << 20, 8 << 20, 32 << 20, 64 << 20, 128 << 20, 256 << 20, 512 << 20}
	for _, n := range rankCounts {
		w, err := workloads.NewUniform(n, perRank, numAttrs)
		if err != nil {
			return nil, err
		}
		bpp := w.Schema().BytesPerParticle()
		bytesPerRank := perRank * int64(bpp)
		total := int64(n) * bytesPerRank
		infos := workloads.RankInfos(w, 0)
		bw := func(target int64) (float64, error) {
			loads, _, err := planLeafLoads(infos, n, target, bpp, true)
			if err != nil {
				return 0, err
			}
			return ior.Bandwidth(total, modelTime(p, n, loads, numAttrs, false)), nil
		}
		rec := recommend(n, bytesPerRank)
		recBW, err := bw(rec)
		if err != nil {
			return nil, err
		}
		bestBW, bestTarget := 0.0, int64(0)
		for _, target := range sweep {
			v, err := bw(target)
			if err != nil {
				return nil, err
			}
			if v > bestBW {
				bestBW, bestTarget = v, target
			}
		}
		t.AddRow(fmt.Sprintf("%d", n), sizeMB(rec), gbs(recBW), sizeMB(bestTarget),
			gbs(bestBW), fmt.Sprintf("%.2f", recBW/bestBW))
	}
	t.Notes = append(t.Notes, "rec/best is the recommended target's bandwidth as a fraction of the sweep optimum")
	return t, nil
}

// MeasuredBreakdown is the full-fidelity counterpart of the modeled
// Figure 10: it runs the real pipeline (goroutine ranks, real particles,
// real BAT files in memory) on a scaled-down coal boiler and reports the
// measured critical-path time of each phase for adaptive vs AUG
// aggregation. The modeled and measured views should agree on which
// strategy is cheaper and on which phases dominate.
func MeasuredBreakdown(ranks int, particles int64, target int64) (*Table, error) {
	cb, err := workloads.NewCoalBoiler(ranks)
	if err != nil {
		return nil, err
	}
	cb.SetGrowth(0, 1, particles, particles)
	t := &Table{
		Title: fmt.Sprintf("Measured pipeline breakdown (full fidelity, %d ranks, %d particles, %s target) [ms]",
			ranks, particles, sizeMB(target)),
		Header: []string{"strategy", "files", "tree", "gather/scatter", "transfer",
			"bat-build", "file-write", "metadata", "total"},
	}
	for _, strategy := range []core.Strategy{core.Adaptive, core.AUG} {
		store, err := makeStore("")
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultWriteConfig(target)
		cfg.Strategy = strategy
		stats, err := writeStep(cb, 0, store, "measured-"+strategy.String(), cfg)
		if err != nil {
			return nil, err
		}
		pm := stats.PhaseMax
		t.AddRow(strategy.String(), fmt.Sprintf("%d", stats.NumFiles),
			ms(pm.TreeBuild), ms(pm.GatherScatter), ms(pm.Transfer),
			ms(pm.BATBuild), ms(pm.FileWrite), ms(pm.Metadata), ms(pm.Total()))
	}
	t.Notes = append(t.Notes,
		"wall-clock maxima across ranks; compare the shape against the modeled Fig 10",
		"gather/scatter includes waiting for the slowest rank to enter the collective (generation imbalance)")
	return t, nil
}
