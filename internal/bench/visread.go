package bench

import (
	"context"
	"fmt"
	"time"

	"libbat/internal/bat"
	"libbat/internal/core"
	"libbat/internal/geom"
	"libbat/internal/pfs"
	"libbat/internal/workloads"
)

// writeStep materializes one workload timestep through the full two-phase
// pipeline (real goroutine ranks, real BAT files) into store.
func writeStep(w workloads.Workload, step int, store pfs.Storage, base string,
	cfg core.WriteConfig) (*core.WriteStats, error) {
	return core.WriteWorld(w.Decomp().NumRanks(), store, base, cfg, nil, workloads.RankInput(w, step))
}

// ProgressiveResult is one measured progressive read sequence.
type ProgressiveResult struct {
	AvgReadMs  float64 // mean time per 0.1-quality increment
	PtsPerMs   float64 // aggregate throughput
	TotalReads int
	TotalPts   int64
}

// ProgressiveRead runs the paper's Table I/II access pattern on a written
// dataset: single-threaded, quality 0.1 to 1.0 in increments of 0.1,
// progressive (each read processes only the increment), over every leaf
// file.
func ProgressiveRead(store pfs.Storage, base string) (ProgressiveResult, error) {
	var res ProgressiveResult
	ctx := context.Background()
	ds, err := core.OpenDataset(ctx, store, base)
	if err != nil {
		return res, err
	}
	defer ds.Close()
	// Open every leaf up front: the table times reads, not opens.
	leaves := ds.Select(bat.Query{})
	for _, li := range leaves {
		if _, err := ds.Leaf(ctx, li); err != nil {
			return res, err
		}
	}
	var totalTime time.Duration
	prev := 0.0
	for stepQ := 1; stepQ <= 10; stepQ++ {
		q := float64(stepQ) / 10
		start := time.Now()
		st, err := ds.Query(ctx, leaves, bat.Query{PrevQuality: prev, Quality: q},
			func(geom.Vec3, []float64) error { return nil })
		if err != nil {
			return res, err
		}
		totalTime += time.Since(start)
		res.TotalPts += st.Visited
		res.TotalReads++
		prev = q
	}
	res.AvgReadMs = float64(totalTime) / float64(time.Millisecond) / float64(res.TotalReads)
	res.PtsPerMs = float64(res.TotalPts) / (float64(totalTime) / float64(time.Millisecond))
	return res, nil
}

// VisReadConfig parameterizes the Table I/II benchmarks. The defaults are
// scaled-down versions of the paper's runs (which used 41.5M and 2M/8M
// particles); the access pattern and reporting are identical.
type VisReadConfig struct {
	Ranks       int
	Steps       []int
	TargetSizes []int64
	Dir         string // on-disk dataset directory ("" = in-memory store)
}

// Table1CoalBoiler regenerates Table I: average progressive read times and
// throughput on the Coal Boiler time series per target size.
func Table1CoalBoiler(cfg VisReadConfig, startCount, endCount int64) (*Table, error) {
	t := &Table{
		Title:  "Table I: progressive single-thread reads, Coal Boiler time series",
		Header: []string{"target", "avg read (ms)", "throughput (pts/ms)"},
	}
	cb, err := workloads.NewCoalBoiler(cfg.Ranks)
	if err != nil {
		return nil, err
	}
	if len(cfg.Steps) == 0 {
		return nil, fmt.Errorf("bench: no steps")
	}
	cb.SetGrowth(cfg.Steps[0], cfg.Steps[len(cfg.Steps)-1], startCount, endCount)
	return visReadTable(t, cb, cfg)
}

// Table2DamBreak regenerates Table II for one Dam Break scale.
func Table2DamBreak(cfg VisReadConfig, total int64) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Table II: progressive single-thread reads, Dam Break (%d particles, %d ranks)", total, cfg.Ranks),
		Header: []string{"target", "avg read (ms)", "throughput (pts/ms)"},
	}
	db, err := workloads.NewDamBreak(cfg.Ranks, total)
	if err != nil {
		return nil, err
	}
	return visReadTable(t, db, cfg)
}

func visReadTable(t *Table, w workloads.Workload, cfg VisReadConfig) (*Table, error) {
	for _, target := range cfg.TargetSizes {
		var sumMs, sumPts float64
		var n int
		for _, step := range cfg.Steps {
			store, err := makeStore(cfg.Dir)
			if err != nil {
				return nil, err
			}
			base := fmt.Sprintf("%s-s%d-t%d", w.Name(), step, target)
			if _, err := writeStep(w, step, store, base, core.DefaultWriteConfig(target)); err != nil {
				return nil, err
			}
			res, err := ProgressiveRead(store, base)
			if err != nil {
				return nil, err
			}
			sumMs += res.AvgReadMs
			sumPts += res.PtsPerMs
			n++
		}
		t.AddRow(sizeMB(target),
			fmt.Sprintf("%.2f", sumMs/float64(n)),
			fmt.Sprintf("%.0f", sumPts/float64(n)))
	}
	t.Notes = append(t.Notes, "real single-threaded reads of real BAT files (quality 0.1 to 1.0 in 0.1 steps)")
	return t, nil
}

// storedBytes adds up the size of every file in store.
func storedBytes(store pfs.Storage) (int64, error) {
	names, err := store.List()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, n := range names {
		f, err := store.Open(n)
		if err != nil {
			return 0, err
		}
		total += f.Size()
		f.Close()
	}
	return total, nil
}

func makeStore(dir string) (pfs.Storage, error) {
	if dir == "" {
		return pfs.NewMem(), nil
	}
	return pfs.NewOS(dir)
}

// Fig13Quality regenerates Figure 13's quality progression as point
// counts: the fraction of the Coal Boiler returned at qualities 0.2, 0.4,
// and 0.8.
func Fig13Quality(cfg VisReadConfig, particles int64) (*Table, error) {
	t := &Table{
		Title:  "Fig 13: visual quality progression (points returned per quality level)",
		Header: []string{"quality", "points", "fraction"},
	}
	cb, err := workloads.NewCoalBoiler(cfg.Ranks)
	if err != nil {
		return nil, err
	}
	cb.SetGrowth(0, 1, particles, particles)
	store, err := makeStore(cfg.Dir)
	if err != nil {
		return nil, err
	}
	target := int64(4 << 20)
	if len(cfg.TargetSizes) > 0 {
		target = cfg.TargetSizes[0]
	}
	if _, err := writeStep(cb, 0, store, "fig13", core.DefaultWriteConfig(target)); err != nil {
		return nil, err
	}
	ctx := context.Background()
	ds, err := core.OpenDataset(ctx, store, "fig13")
	if err != nil {
		return nil, err
	}
	defer ds.Close()
	total := ds.Meta().TotalCount()
	for _, quality := range []float64{0.2, 0.4, 0.8, 1.0} {
		q := bat.Query{Quality: quality}
		st, err := ds.Query(ctx, ds.Select(q), q, func(geom.Vec3, []float64) error { return nil })
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.1f", quality), fmt.Sprintf("%d", st.Visited),
			fmt.Sprintf("%.2f", float64(st.Visited)/float64(total)))
	}
	return t, nil
}

// Overhead regenerates the §VI-B memory overhead measurement: the BAT
// layout's storage cost over the raw particle payload.
func Overhead(cfg VisReadConfig, particles int64) (*Table, error) {
	t := &Table{
		Title:  "Layout memory overhead (§VI-B)",
		Header: []string{"dataset", "raw MB", "file MB", "overhead"},
	}
	cb, err := workloads.NewCoalBoiler(cfg.Ranks)
	if err != nil {
		return nil, err
	}
	cb.SetGrowth(0, 1, particles, particles)
	store, err := makeStore(cfg.Dir)
	if err != nil {
		return nil, err
	}
	target := int64(8 << 20)
	if _, err := writeStep(cb, 0, store, "overhead", core.DefaultWriteConfig(target)); err != nil {
		return nil, err
	}
	fileBytes, err := storedBytes(store)
	if err != nil {
		return nil, err
	}
	raw := particles * int64(cb.Schema().BytesPerParticle())
	t.AddRow("coal-boiler",
		fmt.Sprintf("%.1f", float64(raw)/(1<<20)),
		fmt.Sprintf("%.1f", float64(fileBytes)/(1<<20)),
		fmt.Sprintf("%.2f%%", 100*float64(fileBytes-raw)/float64(raw)))
	t.Notes = append(t.Notes, "paper reports 0.9% additional memory for the BAT layout")
	return t, nil
}

// Fig8DatasetStats summarizes the nonuniform datasets (the paper's Figure
// 8 shows renders; this reports the distribution statistics driving the
// I/O behaviour).
func Fig8DatasetStats(ranks int) (*Table, error) {
	t := &Table{
		Title:  "Fig 8: time-varying dataset statistics",
		Header: []string{"dataset", "step", "particles", "occupied ranks", "max/mean imbalance"},
	}
	cb, err := workloads.NewCoalBoiler(ranks)
	if err != nil {
		return nil, err
	}
	db, err := workloads.NewDamBreak(ranks, 2_000_000)
	if err != nil {
		return nil, err
	}
	add := func(w workloads.Workload, steps []int) {
		for _, step := range steps {
			counts := w.Counts(step)
			var total, max int64
			occupied := 0
			for _, c := range counts {
				total += c
				if c > max {
					max = c
				}
				if c > 0 {
					occupied++
				}
			}
			mean := float64(total) / float64(occupied)
			t.AddRow(w.Name(), fmt.Sprintf("%d", step),
				fmt.Sprintf("%.2fM", float64(total)/1e6),
				fmt.Sprintf("%d/%d", occupied, len(counts)),
				fmt.Sprintf("%.1fx", float64(max)/mean))
		}
	}
	add(cb, []int{501, 2501, 4501})
	add(db, []int{0, 1001, 4001})
	return t, nil
}
