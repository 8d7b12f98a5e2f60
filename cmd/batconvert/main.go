// Command batconvert imports a CSV particle dump into a BAT dataset. The
// CSV header must start with x,y,z; remaining columns become float64
// attributes. With -export it goes the other way, dumping a dataset back
// to CSV.
//
//	batconvert -csv particles.csv -out /tmp/ds -name imported -target 4MB
//	batconvert -export -in /tmp/ds -name imported > particles.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"libbat"
	"libbat/internal/cliutil"
	"libbat/internal/convert"
	"libbat/internal/core"
	"libbat/internal/pfs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its arguments and streams passed in; it returns the
// exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("batconvert", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		csvPath = fs.String("csv", "", "input CSV file (header: x,y,z,attr...)")
		out     = fs.String("out", "bat-out", "output dataset directory")
		in      = fs.String("in", "bat-out", "input dataset directory (for -export)")
		name    = fs.String("name", "imported", "dataset base name")
		target  = fs.String("target", "4MB", "target file size")
		vranks  = fs.Int("ranks", 0, "virtual ranks for aggregation (0 = auto)")
		export  = fs.Bool("export", false, "export a dataset to CSV on stdout instead")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "batconvert:", err)
		return 1
	}
	if *name == "" {
		return fail(fmt.Errorf("-name must not be empty"))
	}

	if *export {
		store, err := libbat.DirStorage(*in)
		if err != nil {
			return fail(err)
		}
		ds, err := libbat.OpenDataset(store, *name)
		if err != nil {
			return fail(err)
		}
		defer ds.Close()
		set, err := ds.ReadAll()
		if err != nil {
			return fail(err)
		}
		if err := convert.WriteCSV(stdout, set); err != nil {
			return fail(err)
		}
		return 0
	}

	if *csvPath == "" {
		return fail(fmt.Errorf("-csv is required (or use -export)"))
	}
	f, err := os.Open(*csvPath)
	if err != nil {
		return fail(err)
	}
	set, err := convert.ReadCSV(f)
	f.Close()
	if err != nil {
		return fail(err)
	}
	ts, err := cliutil.ParseSize(*target)
	if err != nil {
		return fail(err)
	}
	store, err := pfs.NewOS(*out)
	if err != nil {
		return fail(err)
	}
	stats, err := convert.ToDataset(set, store, *name, convert.Options{
		VirtualRanks: *vranks,
		Write:        core.DefaultWriteConfig(ts),
	})
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "converted %d particles (%d attributes) into %s/%s: %d files, largest %s\n",
		stats.TotalCount, set.Schema.NumAttrs(), *out, *name, stats.NumFiles,
		cliutil.FormatSize(stats.LeafSizes.MaxB))
	return 0
}
