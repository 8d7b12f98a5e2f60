package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of the comparator, per (workload, trip metric).
const (
	improved    = "improved"
	withinBound = "within bound"
	regressed   = "regressed"
	unresolved  = "unresolved"
)

// verdict judges new against old for a metric with the given direction and
// bound. worse is the share of the old median by which new is worse
// (negative when better). When either run's own spread is wider than the
// bound the pair can show neither "unchanged" nor "regressed" and is
// unresolved; otherwise a change for the worse by more than the bound is a
// regression.
func verdict(m metric, old, new stat) (v string, worse float64) {
	if old.Median == 0 {
		return unresolved, 0
	}
	worse = (new.Median - old.Median) / old.Median
	if m.Better == "higher" {
		worse = -worse
	}
	spread := max(old.spread(), new.spread())
	switch {
	case spread > m.Bound:
		return unresolved, worse
	case worse > m.Bound:
		return regressed, worse
	case worse < 0 && -worse > spread:
		return improved, worse
	default:
		return withinBound, worse
	}
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints one row per (workload, trip metric) of two reports,
// flags a tracing overhead at or above traceOverheadLimit, and returns
// nonzero on any regression or a higher fail_ratio.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	oldR, err := readReport(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	newR, err := readReport(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	bad := 0
	fmt.Fprintf(stdout, "%-20s %-26s %12s %12s  %-28s %8s %8s  %s\n",
		"workload", "metric", "old", "new", "ratio (new/old, base = old)", "spread", "bound", "verdict")
	for _, ow := range oldR.Workloads {
		var nw *workloadReport
		for i := range newR.Workloads {
			if newR.Workloads[i].Name == ow.Name {
				nw = &newR.Workloads[i]
			}
		}
		if nw == nil {
			fmt.Fprintf(stdout, "%-20s missing from %s\n", ow.Name, newPath)
			bad++
			continue
		}
		for _, m := range tripMetrics {
			o, n := ow.Trip[m.Name], nw.Trip[m.Name]
			v, _ := verdict(m, o.stat, n.stat)
			if v == regressed {
				bad++
			}
			ratio := "n/a"
			if o.Median != 0 {
				ratio = fmt.Sprintf("%.3fx of %.4g %s", n.Median/o.Median, o.Median, m.Unit)
			}
			fmt.Fprintf(stdout, "%-20s %-26s %12.5g %12.5g  %-28s %7.1f%% %7.1f%%  %s\n",
				ow.Name, m.Name, o.Median, n.Median, ratio,
				100*max(o.stat.spread(), n.stat.spread()), 100*m.Bound, v)
		}
		v := withinBound
		if nw.FailRatio > ow.FailRatio {
			v = regressed
			bad++
		}
		fmt.Fprintf(stdout, "%-20s %-26s %12.5g %12.5g  %-28s %8s %8s  %s\n",
			ow.Name, "fail_ratio", ow.FailRatio, nw.FailRatio, "absolute", "", "0", v)
		const overhead = "obs.trace_overhead_ratio"
		if n, ok := nw.PerLayer[overhead]; ok {
			v := "below limit"
			if n.Median >= traceOverheadLimit {
				v = "AT OR OVER LIMIT: spans stretched by tracing"
			}
			fmt.Fprintf(stdout, "%-20s %-26s %12.5g %12.5g  %-28s %8s %8.2f  %s\n",
				ow.Name, overhead, ow.PerLayer[overhead].Median, n.Median, "limit, absolute", "", traceOverheadLimit, v)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
