// Package bench regenerates every table and figure of the paper's
// evaluation (§VI). The weak-scaling and strategy-comparison figures run
// the real aggregation algorithms on real per-rank particle counts and
// charge data movement to the perf cost models at the paper's full rank
// counts; the visualization-read tables build real BAT files on local disk
// and time real progressive queries. Experiments (registry.go) is the one
// list of them; everything an experiment depends on arrives in its Env.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Table is a printable result table (one per paper figure or table).
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	printRow(t.Header)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV(w io.Writer) {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	cells := make([]string, len(t.Header))
	for i, h := range t.Header {
		cells[i] = esc(h)
	}
	fmt.Fprintln(w, strings.Join(cells, ","))
	for _, row := range t.Rows {
		cells = cells[:0]
		for _, c := range row {
			cells = append(cells, esc(c))
		}
		fmt.Fprintln(w, strings.Join(cells, ","))
	}
}

// gbs formats a bytes/second value as GB/s.
func gbs(v float64) string { return fmt.Sprintf("%.2f", v/1e9) }

// mbs formats a bytes/second value as MB/s.
func mbs(v float64) string { return fmt.Sprintf("%.1f", v/1e6) }

// ms formats a duration as milliseconds.
func ms(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond)) }

// sizeMB formats a target size in MB.
func sizeMB(b int64) string {
	if b%(1<<20) == 0 {
		return fmt.Sprintf("%dMB", b>>20)
	}
	return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
}
