package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"libbat/internal/analyzers"
	"libbat/internal/analyzers/analysis"
)

// TestRepoClean is the lint gate: the whole module, loaded in-process,
// has no unwaived finding, and the live waivers are exactly the expected
// ones. A new waiver has to be added here, next to its justification in
// the source; a retired one has to be removed.
func TestRepoClean(t *testing.T) {
	pkgs, err := analysis.Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := analysis.Run(pkgs, analyzers.All())
	if err != nil {
		t.Fatal(err)
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	var waived []string
	for _, f := range findings {
		if !f.Waived {
			t.Errorf("unwaived finding: %s", f)
			continue
		}
		rel, err := filepath.Rel(root, f.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		waived = append(waived, filepath.ToSlash(rel)+" "+f.Analyzer)
	}
	sort.Strings(waived)
	want := []string{
		"internal/bat/nodetable.go uintcast",
		"internal/leakcheck/leakcheck.go ctxsleep",
	}
	if !reflect.DeepEqual(waived, want) {
		t.Errorf("live waivers (file analyzer):\n got %q\nwant %q", waived, want)
	}
}

// TestStandaloneFixture drives the command itself over a fixture package
// with one live and one waived finding: exit status 2, and -json lists
// both with the record shape downstream tooling reads.
func TestStandaloneFixture(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := runStandalone([]string{"-json", "./testdata/bat"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit status %d, want 2; stderr:\n%s", code, stderr.String())
	}
	var recs []map[string]any
	if err := json.Unmarshal(stdout.Bytes(), &recs); err != nil {
		t.Fatalf("decoding -json output: %v", err)
	}
	want := []map[string]any{
		{"line": 9.0, "analyzer": "uintcast", "waived": false},
		{"line": 13.0, "analyzer": "uintcast", "waived": true, "waiver": "fixture: truncation intended"},
	}
	if len(recs) != len(want) {
		t.Fatalf("got %d records, want %d: %v", len(recs), len(want), recs)
	}
	for i, got := range recs {
		if file, _ := got["file"].(string); filepath.Base(file) != "bat.go" {
			t.Errorf("record %d: file = %v", i, got["file"])
		}
		if col, _ := got["col"].(float64); col < 1 {
			t.Errorf("record %d: col = %v", i, got["col"])
		}
		if msg, _ := got["message"].(string); msg == "" {
			t.Errorf("record %d: empty message", i)
		}
		delete(got, "file")
		delete(got, "col")
		delete(got, "message")
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("record %d = %v, want %v (plus file, col, message)", i, got, want[i])
		}
	}
}
