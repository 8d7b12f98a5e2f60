package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"

	"libbat/internal/obs"
)

// span is one timed call into a layer, recorded by the benchmark around the
// program's exported functions. Spans of one trip share its id.
type span struct {
	Name   string
	Start  time.Duration // offset from the tracer epoch
	End    time.Duration
	Parent int // index into tracer.spans, -1 for a root
	Trip   int
	Lane   int // Chrome trace thread id: 0 driver, 1.. HTTP clients, 100+ program ranks
}

// tracer keeps spans in memory until the benchmark ends. A nil tracer is
// the untraced pass: begin and end cost one pointer check.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, parent, trip, lane int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Trip: trip, Lane: lane})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// adopt files the spans the program itself recorded on col (its existing
// opt-in obs spans) under the phase span that was open when each started,
// or under root when none was.
func (t *tracer) adopt(col *obs.Collector, colEpoch time.Time, phases []int, root, trip int) {
	shift := colEpoch.Sub(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, ev := range col.Spans() {
		start, parent := ev.Start+shift, root
		for _, p := range phases {
			if t.spans[p].Start <= start && start < t.spans[p].End {
				parent = p
				break
			}
		}
		t.spans = append(t.spans, span{Name: "program:" + ev.Name, Start: start,
			End: start + ev.Dur, Parent: parent, Trip: trip, Lane: 100 + ev.Rank})
	}
}

// selfTimes sums, per span name, the time not covered by any direct child.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][][2]time.Duration)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		out[s.Name] += (s.End - s.Start) - coverage(children[i], s.Start, s.End)
	}
	return out
}

// coverage is the length of the union of ivs clipped to [lo, hi].
func coverage(ivs [][2]time.Duration, lo, hi time.Duration) time.Duration {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total time.Duration
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// writeChrome emits the spans as Chrome trace_event JSON (load it in
// chrome://tracing or ui.perfetto.dev).
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		events = append(events, event{Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3, Pid: 1, Tid: s.Lane,
			Args: map[string]int{"id": i, "parent": s.Parent, "trip": s.Trip}})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
