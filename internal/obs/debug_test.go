package obs

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestDebugServerRoundTrip covers the -debug-addr listener end to end:
// startup on an ephemeral port, a live /metrics snapshot, the pprof and
// expvar endpoints, and immediate shutdown via Close.
func TestDebugServerRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Add("lp.pivots", 7)

	srv, err := ServeWith("127.0.0.1:0", ServeOpts{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics not a snapshot: %v\n%s", err, body)
	}
	if snap.Counters["lp.pivots"] != 7 {
		t.Errorf("lp.pivots = %d, want 7", snap.Counters["lp.pivots"])
	}

	code, body = get(t, base+"/debug/pprof/cmdline")
	if code != http.StatusOK || len(body) == 0 {
		t.Errorf("/debug/pprof/cmdline status %d, %d bytes", code, len(body))
	}
	code, body = get(t, base+"/debug/vars")
	if code != http.StatusOK || !strings.Contains(string(body), "memstats") {
		t.Errorf("/debug/vars status %d, missing memstats", code)
	}

	srv.Close()
	if _, err := http.Get(base + "/metrics"); err == nil {
		t.Error("listener still accepting after Close")
	}
}

// TestDebugServerNilRegistry pins the /metrics behaviour when no metrics
// sink was requested: 404, not a crash.
func TestDebugServerNilRegistry(t *testing.T) {
	srv, err := ServeWith("127.0.0.1:0", ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, _ := get(t, "http://"+srv.Addr()+"/metrics")
	if code != http.StatusNotFound {
		t.Errorf("/metrics with nil registry: status %d, want 404", code)
	}
}

// TestDebugServerBindFailure checks that an unbindable address errors
// immediately instead of from the serving goroutine.
func TestDebugServerBindFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if _, err := ServeWith(ln.Addr().String(), ServeOpts{}); err == nil {
		t.Fatal("bound an already-bound address")
	}
}

// TestDebugServerAttributionEndpoint covers /attribution in all three
// states: 404 without a source, 404 while the source has nothing to report,
// and the published report as JSON once the attributed run lands.
func TestDebugServerAttributionEndpoint(t *testing.T) {
	off, err := ServeWith("127.0.0.1:0", ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	if code, _ := get(t, "http://"+off.Addr()+"/attribution"); code != http.StatusNotFound {
		t.Errorf("/attribution without a source: status %d, want 404", code)
	}

	var state any // what arrow-report -attr publishes after the run
	srv, err := ServeWith("127.0.0.1:0", ServeOpts{Attribution: func() any { return state }})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()
	if code, _ := get(t, base+"/attribution"); code != http.StatusNotFound {
		t.Errorf("/attribution before the run: status %d, want 404", code)
	}
	state = map[string]any{"availability": 0.9413, "loss": 0.0587}
	code, body := get(t, base+"/attribution")
	if code != http.StatusOK {
		t.Fatalf("/attribution status %d: %s", code, body)
	}
	var got struct {
		Availability float64 `json:"availability"`
		Loss         float64 `json:"loss"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("/attribution not JSON: %v\n%s", err, body)
	}
	if got.Availability != 0.9413 || got.Loss != 0.0587 {
		t.Errorf("/attribution round trip: %+v", got)
	}
}

// TestTimeseriesUnderLoad scrapes /timeseries repeatedly while the sampler
// and registry churn at full speed: responses must stay valid JSON with
// in-capacity, time-ordered windows throughout (run under -race in CI).
func TestTimeseriesUnderLoad(t *testing.T) {
	reg := NewRegistry()
	s := NewSampler(reg, 200*time.Microsecond, 16)
	s.Start()
	defer s.Stop()
	srv, err := ServeWith("127.0.0.1:0", ServeOpts{Registry: reg, Sampler: s})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				reg.Add("lp.pivots", 3)
				reg.Gauge("load", float64(i%100))
			}
		}
	}()
	defer close(stop)

	url := "http://" + srv.Addr() + "/timeseries"
	for i := 0; i < 25; i++ {
		code, body := get(t, url)
		if code != http.StatusOK {
			t.Fatalf("scrape %d: status %d", i, code)
		}
		var doc struct {
			IntervalMs int64                    `json:"interval_ms"`
			Series     map[string][]SeriesPoint `json:"series"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("scrape %d: invalid JSON: %v\n%s", i, err, body)
		}
		for key, pts := range doc.Series {
			if len(pts) > 16 {
				t.Fatalf("scrape %d: %s has %d points, capacity 16", i, key, len(pts))
			}
			for j := 1; j < len(pts); j++ {
				if pts[j].UnixMs < pts[j-1].UnixMs {
					t.Fatalf("scrape %d: %s timestamps not monotone: %v", i, key, pts)
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
}
