// Command batread runs a collective two-phase read of a dataset written by
// batwrite (or the library) and reports per-rank read statistics, or — with
// -vis — runs the paper's single-threaded progressive visualization read
// benchmark on the dataset.
//
//	batread -in /tmp/ds -name coal-boiler-0050 -ranks 8
//	batread -in /tmp/ds -name coal-boiler-0050 -vis
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"libbat"
	"libbat/internal/bench"
	"libbat/internal/cliutil"
	"libbat/internal/pfs"
)

// filterFlags accumulates repeated -filter attr,min,max arguments.
type filterFlags []libbat.AttrFilter

func (f *filterFlags) String() string { return fmt.Sprintf("%d filters", len(*f)) }

func (f *filterFlags) Set(v string) error {
	flt, err := cliutil.ParseFilter(v)
	if err != nil {
		return err
	}
	*f = append(*f, flt)
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its arguments and streams passed in; it returns the
// exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("batread", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var filters filterFlags
	var (
		in       = fs.String("in", "bat-out", "dataset directory")
		name     = fs.String("name", "", "dataset base name (required)")
		ranks    = fs.Int("ranks", 8, "number of simulated reader ranks")
		vis      = fs.Bool("vis", false, "run the progressive visualization read benchmark instead")
		quality  = fs.Float64("quality", 1, "LOD quality in (0,1] for -count queries")
		count    = fs.Bool("count", false, "count particles matching -filter/-quality and exit")
		workers  = fs.Int("query-workers", 0, "traversal goroutines per query for -count (0 = GOMAXPROCS, 1 = serial)")
		cacheMB  = fs.Int64("cache-mb", 0, "treelet cache budget in MiB for -count, one budget over all leaf files (0 = unbounded)")
		statsOut = fs.String("stats", "", "write telemetry counters/histograms/spans as JSON to this file")
		traceOut = fs.String("trace", "", "write a Chrome trace_event JSON timeline to this file (open in Perfetto)")
		timeout  = fs.Duration("timeout", 0,
			"overall read deadline; on a stalled filesystem the collective read degrades to the healthy leaves and reports the rest as partial (0 = none)")
	)
	fs.Var(&filters, "filter", "attribute filter attr,min,max (repeatable, with -count)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "batread:", err)
		return 1
	}
	if *name == "" {
		return fail(fmt.Errorf("-name is required"))
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	store, err := libbat.DirStorage(*in)
	if err != nil {
		return fail(err)
	}
	obsFlags := cliutil.ObsFlags{StatsPath: *statsOut, TracePath: *traceOut}
	col := obsFlags.Collector()
	store = pfs.Observe(store, col)
	// finish dumps the telemetry after a successful read.
	finish := func() int {
		if err := obsFlags.Dump(col); err != nil {
			return fail(err)
		}
		return 0
	}

	if *count {
		ds, err := libbat.OpenDataset(store, *name)
		if err != nil {
			return fail(err)
		}
		defer ds.Close()
		qw := *workers
		if qw == 0 {
			qw = -1 // bat: negative means GOMAXPROCS
		}
		ds.SetQueryConfig(libbat.QueryConfig{Workers: qw})
		if *cacheMB > 0 {
			ds.SetCacheLimit(*cacheMB << 20)
		}
		if col != nil {
			ds.SetObserver(col)
		}
		n, err := ds.CountCtx(ctx, libbat.Query{Filters: filters, Quality: *quality})
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%d of %d particles match (quality %.2f, %d filters)\n",
			n, ds.NumParticles(), *quality, len(filters))
		cs := ds.CacheStats()
		fmt.Fprintf(stdout, "treelet cache: %d treelets, %d bytes resident, %d loads, %d evictions\n",
			cs.Entries, cs.Bytes, cs.Misses, cs.Evictions)
		return finish()
	}

	if *vis {
		res, err := bench.ProgressiveRead(store, *name)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "progressive read (quality 0.1..1.0): avg %.2f ms/read, %.0f pts/ms, %d points total\n",
			res.AvgReadMs, res.PtsPerMs, res.TotalPts)
		return finish()
	}

	ds, err := libbat.OpenDataset(store, *name)
	if err != nil {
		return fail(err)
	}
	domain := ds.Bounds()
	total := ds.NumParticles()
	ds.Close()

	var mu sync.Mutex
	var sumParticles int64
	start := time.Now()
	f := libbat.NewFabric(*ranks)
	f.SetObserver(col)
	err = f.Run(func(c *libbat.Comm) error {
		// Each reader takes a slab of the domain along the longest axis.
		axis := domain.LongestAxis()
		lo := domain.Lower.Component(axis) + domain.Size().Component(axis)*float64(c.Rank())/float64(*ranks)
		hi := domain.Lower.Component(axis) + domain.Size().Component(axis)*float64(c.Rank()+1)/float64(*ranks)
		box := domain
		box.Lower = box.Lower.SetComponent(axis, lo)
		box.Upper = box.Upper.SetComponent(axis, hi)
		got, stats, err := libbat.ReadQueryCtx(ctx, c, store, *name, libbat.Query{Bounds: &box, Quality: 1})
		if err != nil && !errors.Is(err, libbat.ErrPartial) {
			return err
		}
		mu.Lock()
		sumParticles += int64(got.Len())
		mu.Unlock()
		if err != nil {
			fmt.Fprintf(stderr, "batread: rank %d: partial read (%d leaves failed): %v\n",
				c.Rank(), len(stats.LeafErrors), err)
		}
		if c.Rank() == 0 {
			fmt.Fprintf(stdout, "rank 0: meta=%v fileread=%v transfer=%v (%d files served)\n",
				stats.Metadata.Round(time.Microsecond), stats.FileRead.Round(time.Microsecond),
				stats.Transfer.Round(time.Microsecond), stats.NumFiles)
		}
		return nil
	})
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "read %d particles (dataset holds %d) on %d ranks in %v\n",
		sumParticles, total, *ranks, time.Since(start).Round(time.Millisecond))
	return finish()
}
