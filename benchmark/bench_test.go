package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in this package")

// manifest is BENCHMARK.json, built from the tables the program reports by.
func manifest() map[string]any {
	var workloads []map[string]string
	for _, s := range specs(false) {
		workloads = append(workloads, map[string]string{"name": s.Name, "why": s.Why})
	}
	type layerMetric struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var layers []layerMetric
	for _, m := range perLayer() {
		layers = append(layers, layerMetric{m.Name, m.Unit, m.Better})
	}
	return map[string]any{
		"command":     []string{"go", "run", "./benchmark"},
		"paths":       []string{"benchmark"},
		"run_seconds": defaultSeconds,
		"workloads":   workloads,
		"end_to_end":  endToEnd(),
		"per_layer":   layers,
	}
}

func TestManifestMatchesTables(t *testing.T) {
	want, err := json.MarshalIndent(manifest(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	path := filepath.Join("..", "BENCHMARK.json")
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json does not match the tables in benchmark/; run go test ./benchmark -run TestManifest -update")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(specs(false)); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, s := range specs(false) {
		checkName(s.Name)
		if len(s.Why) > 200 || strings.Contains(s.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", s.Name, len(s.Why))
		}
	}
	if n := len(endToEnd()); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer()); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	hasSetup := false
	for _, m := range endToEnd() {
		checkName(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end-to-end metrics lack setup_s (s, lower)")
	}
	for _, m := range append(endToEnd(), perLayer()...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is malformed", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range perLayer() {
		checkName(m.Name)
	}
}

// quickHarness builds batserve into a temporary directory.
func quickHarness(t *testing.T) *harness {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{root: root, scratch: t.TempDir(), seed: 1, seconds: 1, setUps: 2, quick: true, log: io.Discard}
	if h.serverBin, err = buildServer(root, h.scratch); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestQuickTrips runs all four workload shapes at -quick size, untraced and
// traced, and checks that what they emit is what BENCHMARK.json declares.
func TestQuickTrips(t *testing.T) {
	h := quickHarness(t)
	for _, s := range specs(true) {
		rep, err := h.measure([]spec{s}, false, "")
		if err != nil {
			t.Fatalf("%s: untraced run: %v", s.Name, err)
		}
		var stdout bytes.Buffer
		if code := h.driverLine(rep, false, &stdout); code != 0 {
			t.Fatalf("%s: untraced driver run exited %d", s.Name, code)
		}
		checkDriverLine(t, s.Name, stdout.Bytes(), endToEnd(), true)
		for _, m := range tripMetrics {
			if v := rep.Workloads[0].Trip[m.Name]; v.N < 2 || v.Median <= 0 {
				t.Errorf("%s: trip metric %s = %g from %d samples", s.Name, m.Name, v.Median, v.N)
			}
		}

		trace := filepath.Join(h.scratch, s.Name+".trace.json")
		if rep, err = h.measure([]spec{s}, true, trace); err != nil {
			t.Fatalf("%s: traced run: %v", s.Name, err)
		}
		stdout.Reset()
		if code := h.driverLine(rep, true, &stdout); code != 0 {
			t.Fatalf("%s: traced driver run exited %d", s.Name, code)
		}
		checkDriverLine(t, s.Name, stdout.Bytes(), perLayer(), false)
		var chrome struct {
			TraceEvents []struct{ Name string } `json:"traceEvents"`
		}
		data, err := os.ReadFile(trace)
		if err == nil {
			err = json.Unmarshal(data, &chrome)
		}
		if err != nil || len(chrome.TraceEvents) == 0 {
			t.Errorf("%s: Chrome trace unreadable or empty: %v", s.Name, err)
		}
	}
}

// checkDriverLine checks the driver contract on the last line of stdout:
// exactly the four keys, every declared metric and no other.
func checkDriverLine(t *testing.T, workload string, stdout []byte, want []metric, nonZero bool) {
	t.Helper()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var got struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(bytes.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("%s: last line of stdout is not the result object: %v", workload, err)
	}
	if got.Correct == nil || !*got.Correct || got.Attempted == nil || *got.Attempted < 1 || got.Failed == nil || *got.Failed != 0 {
		t.Errorf("%s: correct/attempted/failed = %v/%v/%v", workload, got.Correct, got.Attempted, got.Failed)
	}
	if len(got.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, %d declared", workload, len(got.Metrics), len(want))
	}
	for _, m := range want {
		v, ok := got.Metrics[m.Name]
		switch {
		case !ok || v.Value == nil:
			t.Errorf("%s: metric %s not emitted", workload, m.Name)
		case v.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, declared %q", workload, m.Name, v.Unit, m.Unit)
		case nonZero && *v.Value <= 0:
			t.Errorf("%s: end-to-end metric %s = %g, must be positive", workload, m.Name, *v.Value)
		}
	}
}

// TestOracleCatchesWrongCount corrupts one expectation of each kind and
// checks that the next trip reports failures.
func TestOracleCatchesWrongCount(t *testing.T) {
	h := quickHarness(t)
	tr, err := setUp(specs(true)[0], 1, h.newDir("oracle"), h.serverBin, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.tearDown()
	if err := tr.warmUp(); err != nil {
		t.Fatal(err)
	}
	tr.round(0, nil)
	if tr.failed != 0 {
		t.Fatalf("clean trip failed %d of %d checks", tr.failed, tr.attempted)
	}
	corrupt := []struct {
		name string
		what *int64
	}{
		{"box count", &tr.exp.boxes[0].Count},
		{"restart-read count", &tr.exp.ranks[0].Count},
		{"full-scan count", &tr.o.full.Count},
		{"filter count", &tr.exp.filters[0].wide.Count},
	}
	for _, c := range corrupt {
		before := tr.failed
		*c.what += 7
		tr.exp.filters[0].narrow = tr.exp.filters[0].wide // lossless: the bracket is exact
		tr.makeRequests()                                 // the HTTP expectations hold copies
		tr.round(1, nil)
		if tr.failed == before {
			t.Errorf("corrupted %s went unnoticed", c.name)
		}
		*c.what -= 7
		tr.exp.filters[0].narrow = tr.exp.filters[0].wide
	}
	before := tr.failed
	tr.makeRequests()
	tr.round(2, nil)
	if tr.failed != before {
		t.Errorf("restored expectations still fail")
	}
}

func TestQuartiles(t *testing.T) {
	// statistics.quantiles([...], n=4) of these inputs, from Python.
	cases := []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7}, 1, 7, 10},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{4}, 4, 4, 4},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.in)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.in, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
	if p := percentile([]float64{5, 1, 4, 2, 3}, 95); p != 5 {
		t.Errorf("p95 = %g, want 5", p)
	}
	if p := percentile([]float64{5, 1, 4, 2, 3}, 50); p != 3 {
		t.Errorf("p50 = %g, want 3", p)
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "trip", Start: 0, End: 100 * ms, Parent: -1},
		{Name: "write", Start: 10 * ms, End: 50 * ms, Parent: 0},
		{Name: "rank", Start: 10 * ms, End: 30 * ms, Parent: 1}, // overlapping children
		{Name: "rank", Start: 20 * ms, End: 45 * ms, Parent: 1}, // cover 10..45 together
		{Name: "read", Start: 60 * ms, End: 90 * ms, Parent: 0},
		{Name: "open", Start: 95 * ms, End: -1, Parent: 0}, // never ended: ignored
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"trip": 30 * ms, "write": 5 * ms, "rank": 45 * ms, "read": 30 * ms}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self time of %s = %v, want %v", name, self[name], d)
		}
	}
	if _, ok := self["open"]; ok {
		t.Error("unfinished span has a self time")
	}
}

func TestVerdict(t *testing.T) {
	lower := metric{Name: "x_ms", Better: "lower", Bound: 0.10}
	higher := metric{Name: "x_mpps", Better: "higher", Bound: 0.10}
	tight := func(m float64) stat { return stat{Median: m, Q1: m * 0.99, Q3: m * 1.01, N: 15} }
	loose := func(m float64) stat { return stat{Median: m, Q1: m * 0.8, Q3: m * 1.2, N: 15} }
	cases := []struct {
		m        metric
		old, new stat
		want     string
	}{
		{lower, tight(100), tight(103), withinBound},
		{lower, tight(100), tight(120), regressed},
		{lower, tight(100), tight(80), improved},
		{higher, tight(100), tight(80), regressed},
		{higher, tight(100), tight(120), improved},
		{higher, tight(100), tight(97), withinBound},
		{lower, loose(100), loose(105), unresolved},
		{lower, loose(100), tight(95), unresolved},
		{lower, loose(100), loose(160), unresolved}, // spread wider than the bound: never "regressed"
		{higher, loose(100), tight(50), unresolved},
	}
	for _, c := range cases {
		if got, _ := verdict(c.m, c.old, c.new); got != c.want {
			t.Errorf("%s %g -> %g: verdict %q, want %q", c.m.Name, c.old.Median, c.new.Median, got, c.want)
		}
	}
}

func TestCompareExitCode(t *testing.T) {
	rep := func(ms float64, failRatio float64) string {
		r := report{Seed: 1, Workloads: []workloadReport{{Name: "w", FailRatio: failRatio, Trip: map[string]metricValue{}}}}
		for _, m := range tripMetrics {
			r.Workloads[0].Trip[m.Name] = metricValue{m, stat{Median: 100, Q1: 99, Q3: 101, N: 15}}
		}
		box := r.Workloads[0].Trip["box_query_ms"]
		box.stat = stat{Median: ms, Q1: ms * 0.99, Q3: ms * 1.01, N: 15}
		r.Workloads[0].Trip["box_query_ms"] = box
		data, _ := json.Marshal(r)
		path := filepath.Join(t.TempDir(), "r.json")
		os.WriteFile(path, data, 0o644)
		return path
	}
	var out bytes.Buffer
	if code := compareFiles(rep(100, 0), rep(104, 0), &out, io.Discard); code != 0 {
		t.Errorf("within-bound comparison exited %d\n%s", code, out.String())
	}
	if code := compareFiles(rep(100, 0), rep(150, 0), &out, io.Discard); code != 1 {
		t.Errorf("regression exited %d", code)
	}
	if code := compareFiles(rep(100, 0), rep(100, 0.01), &out, io.Discard); code != 1 {
		t.Errorf("higher fail_ratio exited %d", code)
	}
	if !strings.Contains(out.String(), "of 100 ms") {
		t.Errorf("ratio is printed without its base:\n%s", out.String())
	}
}
