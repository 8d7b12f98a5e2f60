// Package obs is the pipeline's telemetry layer: named counters and
// histograms (atomic, goroutine-safe, label-addressed) plus per-rank span
// tracing, with three exporters — a JSON stats dump, Prometheus text
// format, and Chrome trace_event JSON (loadable in chrome://tracing or
// Perfetto, rendering a write/read run as a per-rank phase timeline).
//
// The package is zero-dependency (stdlib only) and cheap when disabled:
// every method is nil-safe, so instrumented code holds a possibly-nil
// *Collector (or handle) and hot paths pay only a nil check. Handles
// (Counter, Histogram) should be resolved once and reused on hot paths;
// the string-keyed Add/Observe conveniences are for cold paths.
package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one metric dimension (e.g. rank="3").
type Label struct {
	Key, Value string
}

// L constructs a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Rank labels a metric with the emitting rank.
func Rank(r int) Label { return Label{Key: "rank", Value: strconv.Itoa(r)} }

// seriesKey builds the canonical identity of one (name, labels) series.
// Labels are sorted by key so call sites need not agree on ordering.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Key < sorted[b].Key })
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(l.Value)
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// Counter is a monotonically increasing integer series. The zero of a nil
// *Counter is a no-op sink, so disabled telemetry costs one nil check.
type Counter struct {
	name   string
	labels []Label
	v      atomic.Int64
}

// Add increments the counter. Safe on a nil receiver and for concurrent use.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram accumulates value observations into fixed buckets (cumulative
// on export, Prometheus-style) plus count/sum/min/max. Nil-safe.
type Histogram struct {
	name   string
	labels []Label
	bounds []float64 // ascending upper bounds; +Inf bucket is implicit

	mu       sync.Mutex
	buckets  []int64 // one per bound, plus the +Inf overflow at the end
	count    int64
	sum      float64
	min, max float64
}

// Observe records one value. Safe on a nil receiver and for concurrent use.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// DefLatencyBuckets covers 10µs to ~42s in powers of 4 — wide enough for
// both in-memory query latencies and cold parallel-filesystem reads.
func DefLatencyBuckets() []float64 {
	return ExpBuckets(10e-6, 4, 12)
}

// DefSizeBuckets covers 256 B to ~1 GB in powers of 4 (I/O sizes).
func DefSizeBuckets() []float64 {
	return ExpBuckets(256, 4, 12)
}

// ExpBuckets returns n exponentially spaced upper bounds starting at start
// and growing by factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// SpanEvent is one completed span: a named phase on one rank's timeline.
type SpanEvent struct {
	Name  string        `json:"name"`
	Rank  int           `json:"rank"`
	Start time.Duration `json:"start_ns"` // offset from the collector epoch
	Dur   time.Duration `json:"dur_ns"`
}

// Span is an open span; End completes and records it. Nil-safe.
type Span struct {
	c     *Collector
	name  string
	rank  int
	start time.Time
}

// End records the span's duration on the collector's timeline.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.c.record(SpanEvent{
		Name:  s.name,
		Rank:  s.rank,
		Start: s.start.Sub(s.c.epoch),
		Dur:   time.Since(s.start),
	})
}

// Collector owns a process's metric series and span timeline. The zero
// value of a nil *Collector is the disabled state: every method no-ops
// (returning nil handles whose methods also no-op).
type Collector struct {
	epoch time.Time

	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram

	spanMu sync.Mutex
	spans  []SpanEvent
}

// New creates an enabled collector. Its epoch (the zero of the trace
// timeline) is the creation time.
func New() *Collector {
	return &Collector{
		epoch:    time.Now(),
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the handle for the (name, labels) series, creating it on
// first use. Returns nil (a no-op handle) on a nil collector.
func (c *Collector) Counter(name string, labels ...Label) *Counter {
	if c == nil {
		return nil
	}
	key := seriesKey(name, labels)
	c.mu.Lock()
	defer c.mu.Unlock()
	if ctr, ok := c.counters[key]; ok {
		return ctr
	}
	ctr := &Counter{name: name, labels: append([]Label(nil), labels...)}
	c.counters[key] = ctr
	return ctr
}

// Histogram returns the handle for the (name, labels) series with the given
// bucket upper bounds, creating it on first use. Bounds are fixed at
// creation; later calls may pass nil bounds to reuse the series.
func (c *Collector) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if c == nil {
		return nil
	}
	key := seriesKey(name, labels)
	c.mu.Lock()
	defer c.mu.Unlock()
	if h, ok := c.hists[key]; ok {
		return h
	}
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets()
	}
	bs := append([]float64(nil), bounds...)
	if !sort.Float64sAreSorted(bs) {
		panic(fmt.Sprintf("obs: histogram %s bounds not ascending", name))
	}
	h := &Histogram{
		name:    name,
		labels:  append([]Label(nil), labels...),
		bounds:  bs,
		buckets: make([]int64, len(bs)+1),
	}
	c.hists[key] = h
	return h
}

// Add is the cold-path counter convenience (resolves the handle each call).
func (c *Collector) Add(name string, n int64, labels ...Label) {
	if c == nil {
		return
	}
	c.Counter(name, labels...).Add(n)
}

// Observe is the cold-path histogram convenience with default buckets.
func (c *Collector) Observe(name string, v float64, labels ...Label) {
	if c == nil {
		return
	}
	c.Histogram(name, nil, labels...).Observe(v)
}

// Start opens a span named name on rank's timeline. Returns nil (whose End
// is a no-op) on a nil collector.
func (c *Collector) Start(rank int, name string) *Span {
	if c == nil {
		return nil
	}
	return &Span{c: c, name: name, rank: rank, start: time.Now()}
}

func (c *Collector) record(ev SpanEvent) {
	c.spanMu.Lock()
	c.spans = append(c.spans, ev)
	c.spanMu.Unlock()
}

// Spans returns a copy of the recorded span events in completion order.
func (c *Collector) Spans() []SpanEvent {
	if c == nil {
		return nil
	}
	c.spanMu.Lock()
	defer c.spanMu.Unlock()
	return append([]SpanEvent(nil), c.spans...)
}
