package obs

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
	"time"
)

// SchemaVersion identifies the snapshot JSON layout. Bump it whenever a
// field is renamed, removed, or changes meaning (adding keys is
// compatible).
const SchemaVersion = 1

// defBuckets are the default histogram bucket upper bounds: powers of four
// spanning sub-microsecond durations (in seconds) up to counts in the
// millions. Callers with a better idea of their range use
// RegisterHistogram.
var defBuckets = func() []float64 {
	out := make([]float64, 0, 24)
	for v := 1e-7; v < 2e7; v *= 4 {
		out = append(out, v)
	}
	return out
}()

// histogram is one fixed-bucket histogram: counts[i] tallies samples
// <= bounds[i]; counts[len(bounds)] is the overflow bucket.
type histogram struct {
	bounds []float64
	counts []int64
	count  int64
	sum    float64
	min    float64
	max    float64
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{
		bounds: bounds,
		counts: make([]int64, len(bounds)+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

func (h *histogram) observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// spanStat aggregates completed spans of one name.
type spanStat struct {
	count   int64
	totalNS int64
	minNS   int64
	maxNS   int64
}

// counterShards stripes the counter maps so concurrent Add calls from
// parallel pipeline workers contend per-shard instead of on one registry
// lock. 16 shards comfortably cover the worker counts the pipeline runs
// at (Parallelism <= NumCPU) while keeping Snapshot's merge cheap.
const counterShards = 16

// counterShard is one stripe of the counter space. Padding keeps adjacent
// shards' locks off the same cache line.
type counterShard struct {
	mu sync.Mutex
	m  map[string]int64
	_  [40]byte
}

// shardIndex maps a counter name to its stripe (FNV-1a).
func shardIndex(name string) int {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return int(h % counterShards)
}

// Registry is the standard Recorder: a metrics store with JSON snapshot
// export and an optional trace_event timeline. Counters live in striped
// per-shard maps (the Add path is the hottest call in an instrumented
// pipeline); gauges, histograms and spans share the registry lock. The
// zero value is not usable; call NewRegistry.
type Registry struct {
	mu      sync.Mutex
	start   time.Time
	shards  [counterShards]counterShard
	gauges  map[string]float64
	hists   map[string]*histogram
	bounds  map[string][]float64
	spans   map[string]*spanStat
	tracing bool
	trace   []TraceEvent
}

// NewRegistry returns an empty registry pre-seeded with the core counter
// schema (CounterDocs) at zero.
func NewRegistry() *Registry {
	r := &Registry{
		start:  time.Now(),
		gauges: map[string]float64{},
		hists:  map[string]*histogram{},
		bounds: map[string][]float64{},
		spans:  map[string]*spanStat{},
	}
	for i := range r.shards {
		r.shards[i].m = map[string]int64{}
	}
	for _, d := range coreCounters {
		r.shards[shardIndex(d.Name)].m[d.Name] = 0
	}
	return r
}

// EnableTrace turns on timeline collection: every SpanDone also appends a
// Chrome trace_event record (see WriteTrace).
func (r *Registry) EnableTrace() {
	r.mu.Lock()
	r.tracing = true
	r.mu.Unlock()
}

// RegisterHistogram fixes the bucket upper bounds the named histogram will
// use (bounds must be sorted ascending). Must be called before the first
// Observe of that name: a histogram that has already observed samples
// keeps its existing buckets (rebucketing recorded counts is impossible),
// and the late registration is surfaced in the
// obs.late_hist_registrations counter instead of being silently ignored.
func (r *Registry) RegisterHistogram(name string, bounds []float64) {
	r.mu.Lock()
	_, live := r.hists[name]
	if !live {
		r.bounds[name] = append([]float64(nil), bounds...)
	}
	r.mu.Unlock()
	if live {
		r.Add("obs.late_hist_registrations", 1)
	}
}

// Add implements Recorder.
func (r *Registry) Add(name string, delta int64) {
	s := &r.shards[shardIndex(name)]
	s.mu.Lock()
	s.m[name] += delta
	s.mu.Unlock()
}

// Counter returns the current value of one counter (0 if never written).
func (r *Registry) Counter(name string) int64 {
	s := &r.shards[shardIndex(name)]
	s.mu.Lock()
	v := s.m[name]
	s.mu.Unlock()
	return v
}

// Gauge implements Recorder.
func (r *Registry) Gauge(name string, v float64) {
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// Observe implements Recorder.
func (r *Registry) Observe(name string, v float64) {
	r.mu.Lock()
	h := r.hists[name]
	if h == nil {
		b := r.bounds[name]
		if b == nil {
			b = defBuckets
		}
		h = newHistogram(b)
		r.hists[name] = h
	}
	h.observe(v)
	r.mu.Unlock()
}

// SpanDone implements Recorder.
func (r *Registry) SpanDone(name string, track int64, start time.Time, d time.Duration) {
	ns := d.Nanoseconds()
	r.mu.Lock()
	s := r.spans[name]
	if s == nil {
		s = &spanStat{minNS: math.MaxInt64}
		r.spans[name] = s
	}
	s.count++
	s.totalNS += ns
	if ns < s.minNS {
		s.minNS = ns
	}
	if ns > s.maxNS {
		s.maxNS = ns
	}
	if r.tracing {
		r.trace = append(r.trace, TraceEvent{
			Name: name, Phase: "X", PID: 1, TID: track,
			TSMicros:  float64(start.Sub(r.start).Nanoseconds()) / 1e3,
			DurMicros: float64(ns) / 1e3,
		})
	}
	r.mu.Unlock()
}

// HistogramSnapshot is one histogram's exported state. Counts[i] tallies
// samples <= Bounds[i]; the final entry is the overflow bucket.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the recorded samples
// by linear interpolation inside the containing bucket, clamped to the
// exact Min/Max the histogram tracked. Returns 0 on an empty histogram.
func (h *HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min
	}
	if q >= 1 {
		return h.Max
	}
	target := float64(q * float64(h.Count))
	cum := int64(0)
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) < target {
			cum += c
			continue
		}
		lo := h.Min
		if i > 0 {
			lo = math.Max(lo, h.Bounds[i-1])
		}
		hi := h.Max
		if i < len(h.Bounds) {
			hi = math.Min(hi, h.Bounds[i])
		}
		frac := (target - float64(cum)) / float64(c)
		v := lo + float64(frac*(hi-lo))
		return math.Min(math.Max(v, h.Min), h.Max)
	}
	return h.Max
}

// SpanSnapshot is one span name's aggregate duration stats.
type SpanSnapshot struct {
	Count        int64   `json:"count"`
	TotalSeconds float64 `json:"total_seconds"`
	MinSeconds   float64 `json:"min_seconds"`
	MaxSeconds   float64 `json:"max_seconds"`
}

// Snapshot is the exported registry state. The JSON form is what /metrics
// serves and the metrics section of a run bundle.
type Snapshot struct {
	SchemaVersion int                          `json:"schema_version"`
	Counters      map[string]int64             `json:"counters"`
	Gauges        map[string]float64           `json:"gauges"`
	Histograms    map[string]HistogramSnapshot `json:"histograms"`
	Spans         map[string]SpanSnapshot      `json:"spans"`
}

// Snapshot exports a copy of the registry. Counters are merged from the
// shards; each shard is internally consistent, and a snapshot taken while
// writers are live is a valid point-in-time-per-shard view (counters only
// grow, so no merged value can exceed the true total at return time).
func (r *Registry) Snapshot() *Snapshot {
	counters := map[string]int64{}
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for k, v := range sh.m {
			counters[k] += v
		}
		sh.mu.Unlock()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{
		SchemaVersion: SchemaVersion,
		Counters:      counters,
		Gauges:        make(map[string]float64, len(r.gauges)),
		Histograms:    make(map[string]HistogramSnapshot, len(r.hists)),
		Spans:         make(map[string]SpanSnapshot, len(r.spans)),
	}
	for k, v := range r.gauges {
		s.Gauges[k] = v
	}
	for k, h := range r.hists {
		hs := HistogramSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: append([]int64(nil), h.counts...),
			Count:  h.count, Sum: h.sum, Min: h.min, Max: h.max,
		}
		if h.count == 0 {
			hs.Min, hs.Max = 0, 0
		}
		s.Histograms[k] = hs
	}
	for k, sp := range r.spans {
		s.Spans[k] = SpanSnapshot{
			Count:        sp.count,
			TotalSeconds: float64(sp.totalNS) / 1e9,
			MinSeconds:   float64(sp.minNS) / 1e9,
			MaxSeconds:   float64(sp.maxNS) / 1e9,
		}
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// Keys returns every metric key in the snapshot, section-qualified and
// sorted ("counter:lp.pivots", "span:pipeline.build", ...). The golden
// schema tests compare this listing, which is deterministic even though
// the metric values are timing-dependent.
func (s *Snapshot) Keys() []string {
	var out []string
	for k := range s.Counters {
		out = append(out, "counter:"+k)
	}
	for k := range s.Gauges {
		out = append(out, "gauge:"+k)
	}
	for k := range s.Histograms {
		out = append(out, "histogram:"+k)
	}
	for k := range s.Spans {
		out = append(out, "span:"+k)
	}
	sort.Strings(out)
	return out
}
