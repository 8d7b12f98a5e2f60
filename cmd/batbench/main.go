// Command batbench regenerates the tables and figures of the paper's
// evaluation (§VI). Modeled benchmarks (Figures 5-7, 9-12 and the file
// statistics) run the real aggregation algorithms at the paper's rank
// counts with byte movement charged to the Stampede2/Summit cost models;
// the visualization benchmarks (Tables I/II, Figure 13, the layout
// overhead) build real BAT files and time real reads.
//
// Usage:
//
//	batbench -all                  # everything (scaled-down vis reads)
//	batbench -fig 5 -system summit # one figure
//	batbench -fig 9,10 -table 1    # several (-fig and -table also repeat)
//	batbench -filestats -overhead
//	batbench -csv                  # emit CSV instead of aligned text
//
// The experiments themselves are the registry bench.Experiments; the flags
// only pick entries from it. Where the time of a measured write goes is
// batwrite -stats/-trace (one write) or go run ./benchmark --trace 1.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"libbat/internal/bench"
	"libbat/internal/perf"
)

// saveTable writes a table under dir as NN-slug.txt and NN-slug.csv.
func saveTable(dir string, seq int, t *bench.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	slug := make([]rune, 0, 40)
	for _, r := range strings.ToLower(t.Title) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			slug = append(slug, r)
		case r == ' ' || r == '-' || r == '/':
			if len(slug) > 0 && slug[len(slug)-1] != '-' {
				slug = append(slug, '-')
			}
		}
		if len(slug) >= 40 {
			break
		}
	}
	base := filepath.Join(dir, fmt.Sprintf("%02d-%s", seq, strings.Trim(string(slug), "-")))
	var txt, csvBuf bytes.Buffer
	t.Fprint(&txt)
	t.CSV(&csvBuf)
	if err := os.WriteFile(base+".txt", txt.Bytes(), 0o644); err != nil {
		return err
	}
	return os.WriteFile(base+".csv", csvBuf.Bytes(), 0o644)
}

// options is a parsed command line.
type options struct {
	keys   map[string]bool // selected registry keys
	env    bench.Env
	csv    bool
	outdir string
}

// parseArgs turns the command line into the set of registry entries to run
// and the Env to run them in. Selector flags only name registry keys and are
// checked against the registry as they are parsed, before anything runs. On
// a bad command line (reported on stderr) or -h it returns nil and the exit
// status.
func parseArgs(args []string, stderr io.Writer) (*options, int) {
	opts := &options{keys: map[string]bool{}}
	known := map[string]bool{}
	for _, ex := range bench.Experiments() {
		known[ex.Key] = true
	}
	// pick selects prefix+id for each id of a comma list ("-fig 5,9").
	pick := func(prefix string) func(string) error {
		return func(ids string) error {
			for _, id := range strings.Split(ids, ",") {
				key := prefix + strings.TrimSpace(id)
				if !known[key] {
					return fmt.Errorf("no such experiment %q", key)
				}
				opts.keys[key] = true
			}
			return nil
		}
	}
	fs := flag.NewFlagSet("batbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Func("fig", "regenerate figures (5 to 13; repeatable or comma-listed)", pick("fig"))
	fs.Func("table", "regenerate tables (1, 2; repeatable or comma-listed)", pick("table"))
	for _, group := range [][2]string{
		{"filestats", "output-file statistics (§VI-A.2)"},
		{"overhead", "layout memory overhead (§VI-B)"},
		{"ablate", "ablation studies of the design choices"},
		{"extensions", "extension experiments (cosmology workload, auto target size)"},
		{"measured", "full-fidelity measured pipeline breakdown"},
	} {
		fs.BoolFunc(group[0], group[1], func(string) error { return pick("")(group[0]) })
	}
	var (
		all      = fs.Bool("all", false, "run every benchmark")
		system   = fs.String("system", "both", "system profile: stampede2, summit, or both")
		dir      = fs.String("dir", "", "directory for materialized datasets (default: in-memory)")
		visRanks = fs.Int("vis-ranks", 32, "ranks for the materialized visualization benchmarks")
		visScale = fs.Int64("vis-particles", 300_000, "particles for the materialized benchmarks")
	)
	fs.BoolVar(&opts.csv, "csv", false, "emit CSV")
	fs.StringVar(&opts.outdir, "outdir", "", "also save each table as .txt and .csv under this directory")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, 0
		}
		return nil, 2 // the flag package has reported it
	}
	profiles := map[string][]perf.Profile{
		"stampede2": {perf.Stampede2()},
		"summit":    {perf.Summit()},
		"both":      {perf.Stampede2(), perf.Summit()},
	}
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "batbench: unexpected argument %q\n", fs.Arg(0))
		return nil, 2
	case profiles[*system] == nil:
		fmt.Fprintf(stderr, "batbench: unknown -system %q (stampede2, summit, both)\n", *system)
		return nil, 2
	case *all:
		opts.keys = known
	case len(opts.keys) == 0:
		fs.Usage()
		return nil, 2
	}
	opts.env = bench.Env{
		Profiles:  profiles[*system],
		Vis:       bench.DefaultVisRead(*visRanks, *dir),
		Particles: *visScale,
	}
	return opts, 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its arguments and streams passed in; it returns the
// exit status: 2 for a bad command line, 1 for a failed experiment.
func run(args []string, stdout, stderr io.Writer) int {
	opts, code := parseArgs(args, stderr)
	if opts == nil {
		return code
	}
	tableSeq := 0
	for _, ex := range bench.Experiments() {
		if !opts.keys[ex.Key] {
			continue
		}
		tables, err := ex.Run(opts.env)
		for _, t := range tables {
			if opts.csv {
				t.CSV(stdout)
			} else {
				t.Fprint(stdout)
			}
			if opts.outdir != "" {
				if err := saveTable(opts.outdir, tableSeq, t); err != nil {
					fmt.Fprintln(stderr, "batbench: saving table:", err)
					return 1
				}
				tableSeq++
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "batbench: %s: %v\n", ex.Key, err)
			return 1
		}
	}
	return 0
}
