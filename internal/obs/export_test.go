package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// goldenCollector builds a collector with fully deterministic content (no
// spans: span values are wall-clock dependent).
func goldenCollector() *Collector {
	c := New()
	c.Counter("requests_total", L("path", "/points"), L("code", "200")).Add(3)
	c.Counter("requests_total", L("path", "/info"), L("code", "200")).Add(1)
	c.Counter("bytes_total").Add(4096)
	h := c.Histogram("latency_seconds", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(3)
	return c
}

func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenCollector().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/prometheus.golden")
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(want) {
		t.Errorf("Prometheus output mismatch:\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}
}

func TestPrometheusSpanExport(t *testing.T) {
	c := New()
	for i := 0; i < 3; i++ {
		sp := c.Start(2, "write.tree-build")
		time.Sleep(time.Microsecond)
		sp.End()
	}
	var buf bytes.Buffer
	if err := c.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Span names are sanitized onto the metric alphabet and labeled by rank.
	if !strings.Contains(out, `span_write_tree_build_count{rank="2"} 3`) {
		t.Errorf("missing span count series:\n%s", out)
	}
	if !strings.Contains(out, `span_write_tree_build_seconds_total{rank="2"} `) {
		t.Errorf("missing span seconds series:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE span_write_tree_build_count counter") {
		t.Errorf("missing TYPE header for span series:\n%s", out)
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	c := New()
	ranks := []int{0, 1, 3}
	for _, r := range ranks {
		sp := c.Start(r, "phase-a")
		time.Sleep(time.Microsecond)
		sp.End()
	}
	nested := c.Start(1, "outer")
	inner := c.Start(1, "inner")
	inner.End()
	nested.End()

	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if tr.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", tr.DisplayTimeUnit)
	}
	if len(tr.TraceEvents) != len(ranks)+2 {
		t.Fatalf("got %d events, want %d", len(tr.TraceEvents), len(ranks)+2)
	}
	byName := map[string][]int{}
	for _, ev := range tr.TraceEvents {
		if ev.Ph != "X" || ev.Pid != 0 {
			t.Errorf("event %q: ph=%q pid=%d, want complete event on pid 0", ev.Name, ev.Ph, ev.Pid)
		}
		if ev.Ts < 0 || ev.Dur < 0 {
			t.Errorf("event %q: negative ts/dur (%g, %g)", ev.Name, ev.Ts, ev.Dur)
		}
		byName[ev.Name] = append(byName[ev.Name], ev.Tid)
	}
	if got := byName["phase-a"]; len(got) != len(ranks) {
		t.Errorf("phase-a on tids %v, want one per rank %v", got, ranks)
	}
	// Nested spans on the same rank both survive, on that rank's lane.
	for _, name := range []string{"outer", "inner"} {
		if got := byName[name]; len(got) != 1 || got[0] != 1 {
			t.Errorf("%s on tids %v, want [1]", name, got)
		}
	}
}

func TestJSONSnapshotRoundTrip(t *testing.T) {
	c := goldenCollector()
	sp := c.Start(0, "whole")
	sp.End()
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("stats JSON does not parse: %v", err)
	}
	if len(snap.Counters) != 3 || len(snap.Histograms) != 1 || len(snap.Spans) != 1 {
		t.Errorf("snapshot sizes: %d counters, %d histograms, %d spans",
			len(snap.Counters), len(snap.Histograms), len(snap.Spans))
	}
	if snap.Spans[0].Name != "whole" || snap.Spans[0].Count != 1 {
		t.Errorf("span summary = %+v", snap.Spans[0])
	}
}

// TestHistogramQuantiles pins the bucket-interpolation estimator against
// hand-computed values on a small, fully-known histogram.
func TestHistogramQuantiles(t *testing.T) {
	// Observations 0.0005, 0.05, 3 over bounds [0.001, 0.01, 0.1]:
	// buckets [1, 0, 1] + overflow 1.
	s := goldenCollector().Snapshot()
	if len(s.Histograms) != 1 {
		t.Fatalf("histograms = %d", len(s.Histograms))
	}
	h := s.Histograms[0]
	for _, tc := range []struct {
		q, want float64
	}{
		{0, 0.0005}, // clamped to Min
		{1, 3},      // clamped to Max
		// target rank 1.5 falls in bucket (0.01, 0.1], halfway in.
		{0.50, 0.055},
		// target rank 2.7 falls in the overflow bucket (0.1, Max].
		{0.90, 0.1 + 2.9*0.7},
		{0.99, 0.1 + 2.9*0.97},
	} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	// Snapshot precomputes the standard three.
	if h.P50 != h.Quantile(0.50) || h.P90 != h.Quantile(0.90) || h.P99 != h.Quantile(0.99) {
		t.Errorf("snapshot quantiles (%g, %g, %g) disagree with Quantile", h.P50, h.P90, h.P99)
	}
	if empty := (HistogramSnapshot{}); empty.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile not 0")
	}
	// The quantile gauges appear in the Prometheus exposition.
	var buf bytes.Buffer
	if err := goldenCollector().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE latency_seconds_p50 gauge\nlatency_seconds_p50 " + promNum(h.P50) + "\n",
		"latency_seconds_p90 " + promNum(h.P90) + "\n",
		"latency_seconds_p99 " + promNum(h.P99) + "\n",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("Prometheus output missing %q:\n%s", want, buf.String())
		}
	}
}

// TestWriteRuntimeMetrics sanity-checks the Go health series: present,
// typed, and plausibly valued.
func TestWriteRuntimeMetrics(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRuntimeMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{
		"go_goroutines", "go_heap_alloc_bytes", "go_heap_sys_bytes",
		"go_heap_objects", "go_gc_pause_seconds_total", "go_gc_runs_total",
		"go_gomaxprocs",
	} {
		if !strings.Contains(out, "# TYPE "+name+" ") {
			t.Errorf("missing TYPE header for %s", name)
		}
		if !strings.Contains(out, "\n"+name+" ") && !strings.HasPrefix(out, name+" ") {
			t.Errorf("missing sample for %s", name)
		}
	}
	var goroutines, maxprocs int
	for _, line := range strings.Split(out, "\n") {
		fmt.Sscanf(line, "go_goroutines %d", &goroutines)
		fmt.Sscanf(line, "go_gomaxprocs %d", &maxprocs)
	}
	if goroutines < 1 {
		t.Errorf("go_goroutines = %d", goroutines)
	}
	if maxprocs != runtime.GOMAXPROCS(0) {
		t.Errorf("go_gomaxprocs = %d, want %d", maxprocs, runtime.GOMAXPROCS(0))
	}
}

// TestNilCollectorSafe pins the disabled-telemetry contract: every method on
// a nil collector (and the handles it returns) must be a no-op.
func TestNilCollectorSafe(t *testing.T) {
	var c *Collector
	c.Counter("x").Add(1)
	c.Counter("x").Inc()
	c.Histogram("h", nil).Observe(1)
	c.Add("x", 1)
	c.Observe("h", 1)
	sp := c.Start(0, "s")
	sp.End()
	if s := c.Snapshot(); len(s.Counters)+len(s.Histograms)+len(s.Spans) != 0 {
		t.Errorf("nil collector snapshot not empty: %+v", s)
	}
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := c.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestSpanIsThePhaseClock: End returns the span's duration whether or not a
// collector records it. A nil collector's span still times its phase, records
// nothing and allocates nothing; an enabled one records exactly the duration
// End returned.
func TestSpanIsThePhaseClock(t *testing.T) {
	var off *Collector
	sp := off.Start(0, "phase")
	time.Sleep(time.Microsecond)
	if d := sp.End(); d <= 0 {
		t.Errorf("nil collector's span timed %v, want > 0", d)
	}
	if n := len(off.Spans()); n != 0 {
		t.Errorf("nil collector recorded %d spans", n)
	}
	if allocs := testing.AllocsPerRun(100, func() { off.Start(3, "phase").End() }); allocs != 0 {
		t.Errorf("nil collector's Start/End made %v allocations, want 0", allocs)
	}

	on := New()
	sp = on.Start(2, "phase")
	time.Sleep(time.Microsecond)
	d := sp.End()
	spans := on.Spans()
	if len(spans) != 1 || spans[0].Dur != d || spans[0].Name != "phase" || spans[0].Rank != 2 {
		t.Errorf("recorded %+v, want one span of rank 2 lasting %v", spans, d)
	}
}
