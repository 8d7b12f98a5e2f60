// Command batwrite runs a collective two-phase write of a synthetic
// workload timestep onto local disk and reports the pipeline statistics —
// a command-line equivalent of linking the library into a simulation.
//
//	batwrite -workload coalboiler -ranks 64 -particles 500000 \
//	         -target 4MB -out /tmp/ds -step 50
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"libbat"
	"libbat/internal/cliutil"
	"libbat/internal/core"
	"libbat/internal/obs"
	"libbat/internal/workloads"
)

func makeWorkload(name string, ranks int, particles int64) (workloads.Workload, error) {
	switch name {
	case "uniform":
		per := particles / int64(ranks)
		if per < 1 {
			per = 1
		}
		return workloads.NewUniform(ranks, per, 14)
	case "coalboiler":
		cb, err := workloads.NewCoalBoiler(ranks)
		if err != nil {
			return nil, err
		}
		cb.SetGrowth(0, 100, particles/4, particles)
		return cb, nil
	case "dambreak":
		return workloads.NewDamBreak(ranks, particles)
	case "cosmo":
		return workloads.NewCosmo(ranks, particles, 16)
	}
	return nil, fmt.Errorf("unknown workload %q (uniform, coalboiler, dambreak, cosmo)", name)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "batwrite:", err)
		os.Exit(1)
	}
}

// run is the whole command: parse args, write the dataset, report on out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("batwrite", flag.ExitOnError)
	var (
		workload  = fs.String("workload", "uniform", "workload: uniform, coalboiler, dambreak, cosmo")
		ranks     = fs.Int("ranks", 16, "number of simulated ranks")
		particles = fs.Int64("particles", 100_000, "total particles")
		target    = fs.String("target", "2MB", "target file size")
		outDir    = fs.String("out", "bat-out", "output directory")
		step      = fs.Int("step", 0, "workload timestep")
		strategy  = fs.String("strategy", "adaptive", "aggregation: adaptive or aug")
		base      = fs.String("name", "", "dataset base name (default <workload>-<step>)")
		statsOut  = fs.String("stats", "", "write telemetry counters/histograms/spans as JSON to this file")
		traceOut  = fs.String("trace", "", "write a Chrome trace_event JSON timeline to this file (open in Perfetto)")
		buildWkrs = fs.Int("build-workers", 0, "BAT build worker goroutines per aggregator (0 = GOMAXPROCS)")
		errBound  = fs.String("error-bound", "0", "absolute error bound: one value for every attribute, or a comma-separated per-attribute list (0 = lossless; any bound > 0 makes the write lossy)")
		lodScale  = fs.Float64("lod-error-scale", 1, "multiply the error bound for values referenced by LOD samples (>= 1)")
	)
	fs.Parse(args) // ExitOnError: a bad flag exits 2 with the usage text, as before

	ts, err := cliutil.ParseSize(*target)
	if err != nil {
		return err
	}
	w, err := makeWorkload(*workload, *ranks, *particles)
	if err != nil {
		return err
	}
	store, err := libbat.DirStorage(*outDir)
	if err != nil {
		return err
	}
	cfg := libbat.DefaultWriteConfig(ts)
	if *strategy == "aug" {
		cfg.Strategy = core.AUG
	} else if *strategy != "adaptive" {
		return fmt.Errorf("unknown strategy %q", *strategy)
	}
	if *buildWkrs < 0 {
		return fmt.Errorf("-build-workers must be >= 0, got %d", *buildWkrs)
	}
	cfg.BAT.Workers = *buildWkrs
	bounds, err := cliutil.ParseBounds(*errBound)
	if err != nil {
		return err
	}
	nA := w.Schema().NumAttrs()
	if len(bounds) == 1 {
		one := bounds[0]
		bounds = make([]float64, nA)
		for a := range bounds {
			bounds[a] = one
		}
	} else if len(bounds) != nA {
		return fmt.Errorf("-error-bound lists %d bounds, workload has %d attributes", len(bounds), nA)
	}
	// A write is lossy exactly when some bound is > 0; an all-zero list
	// writes what no -error-bound writes.
	for _, b := range bounds {
		if b > 0 {
			cfg.BAT.Compress = true
			cfg.BAT.AttrErrorBounds = bounds
			cfg.BAT.LODErrorScale = *lodScale
			break
		}
	}
	name := *base
	if name == "" {
		name = fmt.Sprintf("%s-%04d", w.Name(), *step)
	}

	obsFlags := cliutil.ObsFlags{StatsPath: *statsOut, TracePath: *traceOut}
	col := obsFlags.Collector()

	start := time.Now()
	stats, err := core.WriteWorld(w.Decomp().NumRanks(), store, name, cfg, col, workloads.RankInput(w, *step))
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if err := obsFlags.Dump(col); err != nil {
		return err
	}
	total := workloads.TotalCount(w, *step)
	bytes := total * int64(w.Schema().BytesPerParticle())
	fmt.Fprintf(out, "wrote %s: %d particles (%.1f MB) from %d ranks in %v (%.1f MB/s)\n",
		name, total, float64(bytes)/(1<<20), *ranks, elapsed.Round(time.Millisecond),
		float64(bytes)/(1<<20)/elapsed.Seconds())
	fmt.Fprintf(out, "  strategy=%s target=%s files=%d (avg %.2f MB, max %.2f MB)\n",
		cfg.Strategy, *target, stats.NumFiles,
		stats.LeafSizes.MeanB/(1<<20), float64(stats.LeafSizes.MaxB)/(1<<20))
	fmt.Fprintf(out, "  rank0 phases: tree=%v gather/scatter=%v transfer=%v bat=%v write=%v meta=%v\n",
		stats.TreeBuild.Round(time.Microsecond), stats.GatherScatter.Round(time.Microsecond),
		stats.Transfer.Round(time.Microsecond), stats.BATBuild.Round(time.Microsecond),
		stats.FileWrite.Round(time.Microsecond), stats.Metadata.Round(time.Microsecond))
	if col != nil {
		printFabricTraffic(out, col)
	}
	return nil
}

// printFabricTraffic summarizes the fabric's per-collective counters
// (bat_fabric_<op>_calls / bat_fabric_<op>_bytes, summed over ranks) so a
// -stats run shows on stdout which collectives the write used and how many
// bytes each moved.
func printFabricTraffic(out io.Writer, col *obs.Collector) {
	calls := map[string]int64{}
	bytes := map[string]int64{}
	for _, c := range col.Snapshot().Counters {
		if op, ok := strings.CutPrefix(c.Name, "bat_fabric_"); ok {
			if name, ok := strings.CutSuffix(op, "_calls"); ok {
				calls[name] += c.Value
			} else if name, ok := strings.CutSuffix(op, "_bytes"); ok {
				bytes[name] += c.Value
			}
		}
	}
	if len(calls) == 0 {
		return
	}
	ops := make([]string, 0, len(calls))
	for op := range calls {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	fmt.Fprintf(out, "  fabric collectives:")
	for _, op := range ops {
		fmt.Fprintf(out, " %s=%d/%.1fKB", op, calls[op], float64(bytes[op])/1024)
	}
	fmt.Fprintln(out)
}
