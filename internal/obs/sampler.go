package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// SeriesPoint is one timestamped sample of a counter or gauge.
type SeriesPoint struct {
	UnixMs int64   `json:"t"`
	V      float64 `json:"v"`
}

// ring is a fixed-capacity circular buffer of points.
type ring struct {
	buf  []SeriesPoint
	head int // next write position
	n    int // live points
}

func (r *ring) push(p SeriesPoint) {
	r.buf[r.head] = p
	r.head = (r.head + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// points returns the live window, oldest first.
func (r *ring) points() []SeriesPoint {
	out := make([]SeriesPoint, 0, r.n)
	start := (r.head - r.n + len(r.buf)) % len(r.buf)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// Sampler periodically snapshots a registry's counters and gauges into
// fixed-size ring buffers, giving the debug server a short-horizon
// time-series view (/timeseries) without any external storage. Sampling
// only reads the registry — it cannot perturb the instrumented run — and
// a stopped sampler keeps its window readable.
type Sampler struct {
	reg      *Registry
	interval time.Duration
	capacity int

	mu     sync.Mutex
	series map[string]*ring

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewSampler builds a sampler over reg. interval is the period between
// samples (default 1s if <= 0); capacity is the ring size per series
// (default 300 points — five minutes at the default interval).
func NewSampler(reg *Registry, interval time.Duration, capacity int) *Sampler {
	if interval <= 0 {
		interval = time.Second
	}
	if capacity <= 0 {
		capacity = 300
	}
	return &Sampler{
		reg:      reg,
		interval: interval,
		capacity: capacity,
		series:   map[string]*ring{},
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start launches the background sampling loop. Subsequent Starts are
// no-ops. Nil-safe.
func (s *Sampler) Start() {
	if s == nil {
		return
	}
	s.startOnce.Do(func() {
		go func() {
			defer close(s.done)
			t := time.NewTicker(s.interval)
			defer t.Stop()
			for {
				select {
				case <-s.stop:
					return
				case now := <-t.C:
					s.Sample(now)
				}
			}
		}()
	})
}

// Stop terminates the loop and waits for it to exit. Safe to call without
// Start, more than once, and on nil.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.stopOnce.Do(func() { close(s.stop) })
	s.startOnce.Do(func() { close(s.done) }) // never started: mark done
	<-s.done
}

// Sample takes one snapshot at the given timestamp. Exported so tests (and
// callers that want sample-on-demand semantics) can drive the clock
// explicitly instead of waiting out the ticker.
func (s *Sampler) Sample(now time.Time) {
	snap := s.reg.Snapshot()
	ms := now.UnixMilli()
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, v := range snap.Counters {
		s.record("counter:"+k, ms, float64(v))
	}
	for k, v := range snap.Gauges {
		s.record("gauge:"+k, ms, v)
	}
}

func (s *Sampler) record(key string, ms int64, v float64) {
	r := s.series[key]
	if r == nil {
		r = &ring{buf: make([]SeriesPoint, s.capacity)}
		s.series[key] = r
	}
	r.push(SeriesPoint{UnixMs: ms, V: v})
}

// Series exports the current window of every sampled series, oldest point
// first, keyed by section-qualified name ("counter:lp.pivots").
func (s *Sampler) Series() map[string][]SeriesPoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string][]SeriesPoint, len(s.series))
	for k, r := range s.series {
		out[k] = r.points()
	}
	return out
}

// WriteJSON writes the sampler window as a JSON document with sorted keys:
// {"interval_ms": ..., "series": {name: [{"t":...,"v":...}, ...]}}.
func (s *Sampler) WriteJSON(w io.Writer) error {
	series := s.Series()
	keys := make([]string, 0, len(series))
	for k := range series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ordered := make(map[string][]SeriesPoint, len(series)) // json sorts map keys
	for _, k := range keys {
		ordered[k] = series[k]
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"interval_ms": s.interval.Milliseconds(),
		"series":      ordered,
	})
}
