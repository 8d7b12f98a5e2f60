package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"libbat/internal/bench"
)

// selector spells the command-line flag that picks one registry key.
func selector(key string) []string {
	for _, prefix := range []string{"fig", "table"} {
		if id, ok := strings.CutPrefix(key, prefix); ok {
			return []string{"-" + prefix, id}
		}
	}
	return []string{"-" + key}
}

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("batbench %v: exit %d, stderr:\n%s", args, code, stderr.String())
	}
	return stdout.String()
}

func golden(t *testing.T, name string) string {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(want)
}

// modeled are the experiments whose output is a pure function of the code:
// aggregation plans charged to the cost models, no clock. testdata/<key>.txt
// is what `batbench <selector>` printed at commit 81d7eb0, before the harness
// became a registry, and pins every number EXPERIMENTS.md quotes from them.
// A deliberate model or planner change regenerates the file with
//
//	go run ./cmd/batbench -fig 5 > cmd/batbench/testdata/fig5.txt
//
// and says in the commit what moved the numbers.
var modeled = []string{"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
	"filestats", "extensions"}

// TestEveryExperiment runs each registry entry through the command line at a
// small materialized scale: it must exit 0 and print at least one table with
// at least one row, and the modeled ones must print their golden bytes.
func TestEveryExperiment(t *testing.T) {
	var keys []string
	for _, ex := range bench.Experiments() {
		keys = append(keys, ex.Key)
		t.Run(ex.Key, func(t *testing.T) {
			args := append(selector(ex.Key), "-vis-ranks", "8", "-vis-particles", "40000")
			out := runOK(t, args...)
			// Fprint ends every table with a blank line.
			blocks := strings.Split(strings.TrimSuffix(out, "\n\n"), "\n\n")
			for _, b := range blocks {
				// Title, header, then rows, then notes.
				lines := strings.Split(b, "\n")
				rows := 0
				for _, l := range lines[min(2, len(lines)):] {
					if !strings.HasPrefix(l, "note: ") {
						rows++
					}
				}
				if !strings.HasPrefix(lines[0], "== ") || rows == 0 {
					t.Errorf("batbench %v printed a table without rows:\n%s", args, b)
				}
			}
			if slices.Contains(modeled, ex.Key) {
				if want := golden(t, ex.Key+".txt"); out != want {
					t.Errorf("batbench %v differs from testdata/%s.txt:\n%s\nwant:\n%s", args, ex.Key, out, want)
				}
			}
		})
	}
	for _, key := range modeled {
		if !slices.Contains(keys, key) {
			t.Errorf("golden experiment %q is not in the registry", key)
		}
	}
}

// TestOutputForms: -system narrows the weak-scaling figures to one profile,
// -csv and -outdir write the same tables in their other forms, and tables
// come out in registry order whatever order the flags were given in.
func TestOutputForms(t *testing.T) {
	if got, want := runOK(t, "-fig", "5", "-system", "summit"), golden(t, "fig5-summit.txt"); got != want {
		t.Errorf("-fig 5 -system summit:\n%s\nwant:\n%s", got, want)
	}
	if got, want := runOK(t, "-fig", "8", "-csv"), golden(t, "fig8.csv"); got != want {
		t.Errorf("-fig 8 -csv:\n%s\nwant:\n%s", got, want)
	}
	dir := t.TempDir()
	both := golden(t, "filestats.txt") + golden(t, "fig8.txt")
	if got := runOK(t, "-fig", "8", "-filestats", "-outdir", dir); got != both {
		t.Errorf("-fig 8 -filestats:\n%s\nwant:\n%s", got, both)
	}
	for name, want := range map[string]string{
		"00-file-statistics-vi-a2-coal-boiler-step-4.txt": golden(t, "filestats.txt"),
		"01-fig-8-time-varying-dataset-statistics.txt":    golden(t, "fig8.txt"),
		"01-fig-8-time-varying-dataset-statistics.csv":    golden(t, "fig8.csv"),
	} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Error(err)
		} else if string(got) != want {
			t.Errorf("-outdir wrote %s:\n%s\nwant:\n%s", name, got, want)
		}
	}
}

// TestSelectors: the selector flags only pick registry keys. -fig and -table
// repeat and take comma lists, -all is every entry, and a selector the
// registry does not have — or a command line that selects nothing — is
// refused with status 2 before any experiment runs.
func TestSelectors(t *testing.T) {
	var every []string
	for _, ex := range bench.Experiments() {
		every = append(every, ex.Key)
	}
	slices.Sort(every)
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-all"}, every},
		{[]string{"-all", "-fig", "5"}, every},
		{[]string{"-fig", "9", "-fig", "5"}, []string{"fig5", "fig9"}},
		{[]string{"-fig", "5, 9,12", "-table", "2"}, []string{"fig12", "fig5", "fig9", "table2"}},
		{[]string{"-table", "1", "-table", "2", "-measured", "-ablate"}, []string{"ablate", "measured", "table1", "table2"}},
		{[]string{"-filestats", "-overhead", "-extensions"}, []string{"extensions", "filestats", "overhead"}},
	} {
		var stderr bytes.Buffer
		opts, code := parseArgs(tc.args, &stderr)
		if opts == nil {
			t.Errorf("batbench %v: refused with status %d: %s", tc.args, code, stderr.String())
			continue
		}
		var got []string
		for key := range opts.keys {
			got = append(got, key)
		}
		slices.Sort(got)
		if !slices.Equal(got, tc.want) {
			t.Errorf("batbench %v selects %v, want %v", tc.args, got, tc.want)
		}
	}

	for _, args := range [][]string{
		{},
		{"-csv"},
		{"-fig", "14"},
		{"-fig", "5", "-fig", "four"},
		{"-fig", "8", "-table", "3"}, // fig 8 is valid and must not run first
		{"-fig", ""},
		{"-fig", "8", "-system", "frontier"},
		{"-fig", "8", "extra"},
		{"-stats", "s.json", "-fig", "8"}, // a flag that is gone
		{"-no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stderr.Len() == 0 || stdout.Len() != 0 {
			t.Errorf("batbench %v: exit %d, stdout %q, stderr %q; want status 2, a message and no table",
				args, code, stdout.String(), stderr.String())
		}
	}
}
