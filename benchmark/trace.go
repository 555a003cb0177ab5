package main

import (
	"encoding/json"
	"os"
	"strings"
	"time"
)

// span is one timed call the benchmark made. Parent is the enclosing span
// (-1 for a root); every span of one op or drill item shares Op.
type span struct {
	ID     int
	Parent int
	Op     int
	Name   string
	Start  time.Duration // since the tracer started
	End    time.Duration
}

// tracer records spans from the benchmark's own goroutine and keeps them in
// memory until the run ends. A nil tracer records nothing, which is how
// every end-to-end run executes.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one; call the result to end it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	id, parent := len(t.spans), -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.ops, Name: name, Start: time.Since(t.t0)})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].End = time.Since(t.t0)
		t.open = t.open[:len(t.open)-1]
	}
}

// root opens the span of a new op (or drill item).
func (t *tracer) root(name string) func() {
	if t == nil {
		return func() {}
	}
	t.ops++
	return t.begin(name)
}

// durations returns the length of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// layerSelfMS sums, per layer (the span name up to its first dot), each
// span's duration minus the part its child spans cover.
func layerSelfMS(spans []span) map[string]float64 {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += float64(self[i]) / float64(time.Millisecond)
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace_event JSON (load it in
// chrome://tracing or Perfetto).
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"` // microseconds
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		events[i] = event{
			Name: s.Name, Cat: layer, Ph: "X", PID: 1, TID: 1,
			TS:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "op": s.Op},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
