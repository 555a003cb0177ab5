package eval

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/plan"
	"github.com/arrow-te/arrow/internal/topo"
	"github.com/arrow-te/arrow/internal/traffic"
)

// buildHealth builds the small B4 pipeline with the given worker count and
// health-probe period.
func buildHealth(t *testing.T, workers, healthEvery int, rec obs.Recorder, led *ledger.Ledger) *Pipeline {
	t.Helper()
	tp, err := topo.B4(6)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := BuildPipelineContext(withSettings(withSinks(rec, led, nil), healthEvery, 0), tp, PipelineOptions{
		Cutoff: 0.001, NumTickets: 8, Seed: 1, MaxScenarios: 12, Parallelism: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// TestHealthProbesPreserveDeterminism is the observatory's core guarantee
// at the pipeline level: turning the numerical-health probes on must not
// change a single byte of any artifact — pipeline, TE allocation, restored
// capacities — at any worker count. Probes only read solver state.
func TestHealthProbesPreserveDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds several full pipelines")
	}
	baseline := buildHealth(t, 1, 0, nil, nil)
	want := pipelineFingerprint(baseline)

	m := traffic.Generate(traffic.Options{
		Sites: baseline.Topo.NumRouters(), Count: 1, MaxFlows: 40, TotalGbps: 1, Seed: 8,
	})[0]
	base, err := baseline.BaseNetwork(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	n := base.Scaled(3)
	al, restored, err := baseline.SolveScheme(SchemeArrow, n)
	if err != nil {
		t.Fatal(err)
	}

	var bags []map[string]int
	for _, workers := range []int{1, 4, 8} {
		reg := obs.NewRegistry()
		led := ledger.New()
		pl := buildHealth(t, workers, 32, reg, led)
		if got := pipelineFingerprint(pl); got != want {
			t.Errorf("probed pipeline at %d workers differs from unprobed baseline", workers)
		}
		alH, restoredH, err := pl.SolveScheme(SchemeArrow, n)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(al.B, alH.B) || !reflect.DeepEqual(al.A, alH.A) ||
			!reflect.DeepEqual(al.WinningTicket, alH.WinningTicket) ||
			!reflect.DeepEqual(restored, restoredH) {
			t.Errorf("TE allocation at %d workers differs with health probes on", workers)
		}
		// The probes must actually have run, or the comparison proves nothing.
		snap := reg.Snapshot()
		if snap.Counters["lp.health.probes"] == 0 {
			t.Errorf("probed run at %d workers recorded no health probes", workers)
		}
		// The standard instance must be numerically clean, as the probed
		// arrow-report -run is (TestRunRecordedAttrIdentityAndDeterminism).
		if v := snap.Counters["lp.health.anomalies"]; v != 0 {
			t.Errorf("standard pipeline at %d workers reports %d solver anomalies, want 0", workers, v)
		}
		bags = append(bags, ledgerBag(led))
	}
	// The solver_health event stream (per-phase series, per-solve residuals)
	// must be schedule-independent: same multiset of events at 1, 4 and 8
	// workers.
	for i, workers := range []int{4, 8} {
		if !reflect.DeepEqual(bags[i+1], bags[0]) {
			t.Errorf("solver-health ledger stream at %d workers differs from sequential", workers)
		}
	}
	healthEvents := 0
	// bags[0] keys are formatted events; count the solver_health ones.
	for k, c := range bags[0] {
		if strings.Contains(k, "solver_health") {
			healthEvents += c
		}
	}
	if healthEvents == 0 {
		t.Error("no solver_health events in the probed run's ledger")
	}
}

// TestScrapeWhileSolve is the live-export-plane race test: /metrics (both
// formats), /healthz and an SSE /events client all hammer the debug server
// while a parallel probed pipeline build runs. Run under -race this proves
// the striped counters, snapshot merge and SSE fan-out are safe against
// live solver writes.
func TestScrapeWhileSolve(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full pipeline build under scrape load")
	}
	reg := obs.NewRegistry()
	led := ledger.New()
	src := obs.EventSource(func(buf int) obs.EventSub { return led.SubscribeJSON(buf) })
	srv, err := obs.ServeWith("127.0.0.1:0", obs.ServeOpts{Registry: reg, Events: src})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	done := make(chan struct{})
	var wg sync.WaitGroup
	scrape := func(url string, wantOK func(int) bool) {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			resp, err := http.Get(url)
			if err != nil {
				t.Errorf("scrape %s: %v", url, err)
				return
			}
			if !wantOK(resp.StatusCode) {
				t.Errorf("scrape %s: status %d", url, resp.StatusCode)
			}
			resp.Body.Close()
		}
	}
	okOnly := func(c int) bool { return c == http.StatusOK }
	healthy := func(c int) bool { return c == http.StatusOK || c == http.StatusServiceUnavailable }
	wg.Add(3)
	go scrape(base+"/metrics", okOnly)
	go scrape(base+"/metrics?format=prom", okOnly)
	go scrape(base+"/healthz", healthy)

	// One SSE client consuming the live event stream during the build. The
	// run waits for the subscription to exist (headers received implies the
	// handler subscribed and flushed its preamble): events are never
	// replayed to late subscribers, and the standard run is fast.
	events := make(chan int, 1)
	sseReady := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(base + "/events")
		if err != nil {
			t.Errorf("SSE connect: %v", err)
			close(sseReady)
			events <- 0
			return
		}
		close(sseReady)
		go func() { <-done; resp.Body.Close() }()
		n := 0
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "data: ") {
				n++
			}
		}
		events <- n
	}()
	<-sseReady

	if _, _, _, err := RunRecorded(withSettings(withSinks(reg, led, nil), 32, 4), 1, plan.Space{}, false); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()
	if n := <-events; n == 0 {
		t.Error("SSE client saw no events during the build")
	}
	if st := obs.Health(reg); !st.Healthy {
		t.Errorf("standard build left the process unhealthy: %+v", st)
	}
}

// BenchmarkHealthProbeOverhead measures the full offline pipeline build
// with probes off and on (period 32). The acceptance budget for the
// observatory is <= 5% wall-clock overhead:
//
//	go test ./internal/eval -bench HealthProbeOverhead -benchtime 3x
func BenchmarkHealthProbeOverhead(b *testing.B) {
	tp, err := topo.B4(6)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, healthEvery int) {
		for i := 0; i < b.N; i++ {
			_, err := BuildPipelineContext(withSettings(context.Background(), healthEvery, 0), tp, PipelineOptions{
				Cutoff: 0.001, NumTickets: 12, Seed: 1, MaxScenarios: 16,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("probes-off", func(b *testing.B) { run(b, 0) })
	b.Run(fmt.Sprintf("probes-every-%d", 32), func(b *testing.B) { run(b, 32) })
}
