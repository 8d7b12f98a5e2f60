// Batlint runs the repo's custom static-analysis suite (internal/analyzers)
// over Go packages and reports invariant violations.
//
//	go run ./cmd/batlint ./...          # whole repo (the CI gate)
//	go run ./cmd/batlint -list          # describe the analyzers
//	go run ./cmd/batlint -json ./...    # machine-readable findings
//
// Exit status: 0 clean, 1 on internal errors (load/type-check failures),
// 2 when findings were reported. Findings are suppressed only by an
// auditable //batlint:ignore <analyzer> <justification> comment; malformed
// and stale directives are findings themselves, and -json lists every
// waived finding with its justification. See README.md and DESIGN.md §9.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"libbat/internal/analyzers"
	"libbat/internal/analyzers/analysis"
)

func main() {
	os.Exit(runStandalone(os.Args[1:], os.Stdout, os.Stderr))
}

// findingJSON is one -json record: position, analyzer, message, and
// whether a //batlint:ignore covered it (with the justification).
type findingJSON struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Waived   bool   `json:"waived"`
	Waiver   string `json:"waiver,omitempty"`
}

// runStandalone loads packages with `go list -export` and runs the suite.
func runStandalone(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("batlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: batlint [flags] [packages]\n\n")
		fs.PrintDefaults()
	}
	list := fs.Bool("list", false, "describe the analyzers and exit")
	jsonOut := fs.Bool("json", false, "emit findings (including waived ones) as JSON on stdout")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	suite := analyzers.All()
	if *list {
		for _, a := range suite {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	pkgs, err := analysis.Load("", fs.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, "batlint:", err)
		return 1
	}
	findings, err := analysis.Run(pkgs, suite)
	if err != nil {
		fmt.Fprintln(stderr, "batlint:", err)
		return 1
	}
	live := 0
	for _, f := range findings {
		if !f.Waived {
			live++
		}
	}
	if *jsonOut {
		recs := make([]findingJSON, 0, len(findings))
		for _, f := range findings {
			recs = append(recs, findingJSON{
				File:     f.Pos.Filename,
				Line:     f.Pos.Line,
				Col:      f.Pos.Column,
				Analyzer: f.Analyzer,
				Message:  f.Message,
				Waived:   f.Waived,
				Waiver:   f.WaiverReason,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(recs); err != nil {
			fmt.Fprintln(stderr, "batlint:", err)
			return 1
		}
	} else {
		for _, f := range findings {
			if !f.Waived {
				fmt.Fprintln(stdout, f)
			}
		}
	}
	if live > 0 {
		fmt.Fprintf(stderr, "batlint: %d finding(s)\n", live)
		return 2
	}
	return 0
}
