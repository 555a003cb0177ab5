package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderHelpers(t *testing.T) {
	// All helpers must tolerate a nil Recorder without panicking.
	Add(nil, "x", 1)
	Gauge(nil, "x", 1)
	Observe(nil, "x", 1)
	end := Span(context.Background(), "x")
	end()
	if got := FromContext(context.Background()); got != nil {
		t.Fatalf("FromContext(empty) = %v, want nil", got)
	}
	if ctx := WithRecorder(context.Background(), nil); FromContext(ctx) != nil {
		t.Fatal("WithRecorder(nil) must keep the context recorder-free")
	}
}

func TestRegistryCountersGaugesHistograms(t *testing.T) {
	r := NewRegistry()
	r.Add("lp.pivots", 5)
	r.Add("lp.pivots", 7)
	r.Gauge("g", 2.5)
	r.RegisterHistogram("h", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 50, 500} {
		r.Observe("h", v)
	}
	s := r.Snapshot()
	if s.SchemaVersion != SchemaVersion {
		t.Fatalf("schema version %d, want %d", s.SchemaVersion, SchemaVersion)
	}
	if s.Counters["lp.pivots"] != 12 {
		t.Fatalf("lp.pivots = %d, want 12", s.Counters["lp.pivots"])
	}
	if s.Gauges["g"] != 2.5 {
		t.Fatalf("gauge g = %g", s.Gauges["g"])
	}
	h := s.Histograms["h"]
	want := []int64{1, 1, 1, 1}
	for i, c := range h.Counts {
		if c != want[i] {
			t.Fatalf("histogram counts = %v, want %v", h.Counts, want)
		}
	}
	if h.Count != 4 || h.Min != 0.5 || h.Max != 500 {
		t.Fatalf("histogram stats = %+v", h)
	}
	// Every core counter must exist even when untouched.
	for _, d := range CounterDocs() {
		if _, ok := s.Counters[d.Name]; !ok {
			t.Fatalf("core counter %q missing from snapshot", d.Name)
		}
	}
}

func TestHistogramIgnoresNaN(t *testing.T) {
	r := NewRegistry()
	r.Observe("h", math.NaN())
	r.Observe("h", 1)
	if got := r.Snapshot().Histograms["h"].Count; got != 1 {
		t.Fatalf("count = %d, want 1 (NaN dropped)", got)
	}
}

func TestSpansAndTrace(t *testing.T) {
	r := NewRegistry()
	r.EnableTrace()
	ctx := WithRecorder(context.Background(), r)
	end := Span(ctx, "outer")
	endInner := Span(WithTrack(ctx, 7), "inner")
	time.Sleep(time.Millisecond)
	endInner()
	end()

	s := r.Snapshot()
	for _, name := range []string{"outer", "inner"} {
		sp, ok := s.Spans[name]
		if !ok || sp.Count != 1 || sp.TotalSeconds <= 0 {
			t.Fatalf("span %q = %+v, ok=%v", name, sp, ok)
		}
	}
	events := r.TraceEvents()
	if len(events) != 2 {
		t.Fatalf("trace events = %d, want 2", len(events))
	}
	// inner ended first and carries track 7.
	if events[0].Name != "inner" || events[0].TID != 7 || events[1].Name != "outer" || events[1].TID != 0 {
		t.Fatalf("trace = %+v", events)
	}
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	if len(parsed.TraceEvents) != 2 || parsed.TraceEvents[0].Phase != "X" {
		t.Fatalf("parsed trace = %+v", parsed)
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Add("c", 1)
				r.Observe("h", float64(i))
				r.SpanDone("s", 0, time.Now(), time.Microsecond)
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["c"] != 1600 || s.Histograms["h"].Count != 1600 || s.Spans["s"].Count != 1600 {
		t.Fatalf("lost updates: counters=%d hist=%d spans=%d",
			s.Counters["c"], s.Histograms["h"].Count, s.Spans["s"].Count)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Add("lp.pivots", 3)
	r.SpanDone("pipeline.build", 0, time.Now(), 2*time.Millisecond)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	if s.SchemaVersion != SchemaVersion || s.Counters["lp.pivots"] != 3 {
		t.Fatalf("round trip = %+v", s)
	}
	if _, ok := s.Spans["pipeline.build"]; !ok {
		t.Fatal("span lost in round trip")
	}
}

func TestSnapshotKeys(t *testing.T) {
	r := NewRegistry()
	r.Gauge("g", 1)
	r.Observe("h", 1)
	r.SpanDone("s", 0, time.Now(), time.Millisecond)
	keys := r.Snapshot().Keys()
	for _, want := range []string{"counter:lp.pivots", "gauge:g", "histogram:h", "span:s"} {
		found := false
		for _, k := range keys {
			if k == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("key %q missing from %v", want, keys)
		}
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("keys not sorted: %v", keys)
		}
	}
}

func TestDebugListener(t *testing.T) {
	r := NewRegistry()
	r.Add("lp.pivots", 9)
	srv, err := ServeWith("127.0.0.1:0", ServeOpts{Registry: r})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) []byte {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	var snap Snapshot
	if err := json.Unmarshal(get("/metrics"), &snap); err != nil {
		t.Fatalf("/metrics JSON: %v", err)
	}
	if snap.Counters["lp.pivots"] != 9 {
		t.Fatalf("/metrics lp.pivots = %d, want 9", snap.Counters["lp.pivots"])
	}
	if !bytes.Contains(get("/debug/vars"), []byte("memstats")) {
		t.Fatal("/debug/vars missing expvar memstats")
	}
	if len(get("/debug/pprof/")) == 0 {
		t.Fatal("/debug/pprof/ empty")
	}
}
