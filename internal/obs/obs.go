// Package obs is the observability substrate of the ARROW stack: a
// concurrency-safe metrics registry (counters, gauges, fixed-bucket
// histograms), lightweight spans that double as a Chrome trace_event
// timeline, the stage profiler, and the debug listener's export plane
// (pprof, expvar, /metrics, /healthz, /events, /timeseries). The CLIs'
// flags and the run bundle they write live one layer up, in
// internal/session, which can name the ledger.
//
// Everything goes through the Recorder interface. The nil Recorder is the
// disabled state: the package-level helpers (Add, Gauge, Observe, Span)
// no-op on nil without allocating, so instrumented hot paths cost a nil
// check when observability is off and planning output is byte-identical
// either way. Solver layers accumulate their counters locally during a
// solve and flush once at the end, so the per-pivot cost is zero even when
// a Recorder is attached.
//
// The overhead contract: instrumentation may read the clock and count
// events, but must never influence control flow, iteration order, RNG
// consumption, or floating-point arithmetic of the instrumented code.
package obs

import (
	"context"
	"sync/atomic"
	"time"
)

// Recorder receives metric events. *Registry is the standard
// implementation; a nil Recorder (used through the package helpers) is the
// disabled state.
type Recorder interface {
	// Add increments the named counter by delta.
	Add(name string, delta int64)
	// Gauge sets the named gauge to v (last write wins).
	Gauge(name string, v float64)
	// Observe records one sample into the named histogram.
	Observe(name string, v float64)
	// SpanDone records one completed span occurrence: aggregate duration
	// stats under name, plus a timeline event on the given track when
	// tracing is enabled.
	SpanDone(name string, track int64, start time.Time, d time.Duration)
}

// Add increments a counter on r, tolerating a nil Recorder.
func Add(r Recorder, name string, delta int64) {
	if r != nil {
		r.Add(name, delta)
	}
}

// Gauge sets a gauge on r, tolerating a nil Recorder.
func Gauge(r Recorder, name string, v float64) {
	if r != nil {
		r.Gauge(name, v)
	}
}

// Observe records a histogram sample on r, tolerating a nil Recorder.
func Observe(r Recorder, name string, v float64) {
	if r != nil {
		r.Observe(name, v)
	}
}

type ctxKey int

const (
	recorderKey ctxKey = iota
	trackKey
	profilerKey
	healthKey
)

// WithRecorder attaches r to the context. A nil r returns ctx unchanged.
func WithRecorder(ctx context.Context, r Recorder) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, recorderKey, r)
}

// FromContext returns the Recorder attached to ctx, or nil.
func FromContext(ctx context.Context) Recorder {
	r, _ := ctx.Value(recorderKey).(Recorder)
	return r
}

// WithProfiler attaches p to the context. A nil p returns ctx unchanged.
func WithProfiler(ctx context.Context, p *StageProfiler) context.Context {
	if p == nil {
		return ctx
	}
	return context.WithValue(ctx, profilerKey, p)
}

// ProfilerFrom returns the StageProfiler attached to ctx, or nil (which every
// StageProfiler method accepts).
func ProfilerFrom(ctx context.Context) *StageProfiler {
	p, _ := ctx.Value(profilerKey).(*StageProfiler)
	return p
}

// WithHealthEvery attaches the period every LP solve under ctx probes its
// numerical health at (lp.Options.HealthEvery). Like a sink, it never
// changes a result. n <= 0 returns ctx unchanged.
func WithHealthEvery(ctx context.Context, n int) context.Context {
	if n <= 0 {
		return ctx
	}
	return context.WithValue(ctx, healthKey, n)
}

// HealthEveryFrom returns the probe period attached to ctx, or 0 (off).
func HealthEveryFrom(ctx context.Context) int {
	n, _ := ctx.Value(healthKey).(int)
	return n
}

// WithTrack pins subsequent spans under ctx to the given timeline track.
// Worker pools give each worker its own track so concurrent work renders
// on parallel lanes in the trace viewer.
func WithTrack(ctx context.Context, track int64) context.Context {
	return context.WithValue(ctx, trackKey, track)
}

// TrackFrom returns ctx's timeline track (0, the main track, by default).
func TrackFrom(ctx context.Context) int64 {
	t, _ := ctx.Value(trackKey).(int64)
	return t
}

var trackCounter atomic.Int64

// NextTrack allocates a fresh globally-unique timeline track id.
func NextTrack() int64 { return trackCounter.Add(1) }

var noopEnd = func() {}

// Span starts a span named name on ctx's Recorder and returns the function
// that ends it. Spans nest by time containment on the same track; with no
// Recorder attached the returned func is a shared no-op and nothing
// allocates.
//
//	defer obs.Span(ctx, "rwa.solve")()
func Span(ctx context.Context, name string) func() {
	r := FromContext(ctx)
	if r == nil {
		return noopEnd
	}
	track := TrackFrom(ctx)
	start := time.Now()
	return func() { r.SpanDone(name, track, start, time.Since(start)) }
}
