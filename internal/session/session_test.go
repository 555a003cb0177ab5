package session

import (
	"bufio"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/arrow-te/arrow/internal/attr"
	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/obs"
)

func TestSessionLifecycle(t *testing.T) {
	dir := t.TempDir()
	f := &Flags{
		RunOut:     filepath.Join(dir, "run.json"),
		TraceOut:   filepath.Join(dir, "trace.json"),
		MemProfile: filepath.Join(dir, "mem.pprof"),
	}
	s, err := f.Start(Ledger, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx := s.Context()
	rec, led := obs.FromContext(ctx), ledger.FromContext(ctx)
	if rec == nil || led == nil {
		t.Fatalf("recorder %v, ledger %v: both should be live with -run-out set", rec, led)
	}
	if obs.ProfilerFrom(ctx) != nil {
		t.Error("stage profiler live outside a report session")
	}
	rec.Add("lp.pivots", 2)
	rec.SpanDone("x", 0, time.Now(), time.Millisecond)
	led.Emit(ledger.Event{Kind: ledger.KindWinner, Ticket: 3})
	b, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{f.RunOut, f.TraceOut, f.MemProfile} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Fatalf("%s: %v, want a non-empty file", path, err)
		}
	}
	if b.Metrics.Counters["lp.pivots"] != 2 || len(b.Ledger.Events) != 1 || b.Stages != nil || b.Attribution != nil {
		t.Errorf("bundle sections wrong: %+v", b)
	}

	// A fully disabled session is inert: no sink on the context, no file.
	empty, err := (&Flags{}).Start(Ledger, false)
	if err != nil {
		t.Fatal(err)
	}
	if obs.FromContext(empty.Context()) != nil || ledger.FromContext(empty.Context()) != nil {
		t.Fatal("empty flags must leave the context without sinks")
	}
	if b, err := empty.Close(); err != nil || b.Metrics != nil || b.Ledger != nil {
		t.Fatalf("empty session closed to %+v, %v", b, err)
	}
}

// TestEventsStreamsLedger pins /events on every CLI that records a ledger:
// a session started with -debug-addr streams the ledger's events instead of
// answering 404.
func TestEventsStreamsLedger(t *testing.T) {
	s, err := (&Flags{DebugAddr: "127.0.0.1:0"}).Start(Ledger, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	client := &http.Client{Timeout: 10 * time.Second} // a lost event fails, not hangs
	resp, err := client.Get("http://" + s.debug.Addr() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/events status %d, want 200", resp.StatusCode)
	}
	ledger.FromContext(s.Context()).Emit(ledger.Event{Kind: ledger.KindWinner, Scenario: 4, Ticket: 7})
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev ledger.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("event frame %q: %v", line, err)
		}
		if ev.Kind != ledger.KindWinner || ev.Scenario != 4 || ev.Ticket != 7 {
			t.Errorf("streamed %+v", ev)
		}
		return
	}
	t.Fatalf("stream ended without an event: %v", sc.Err())
}

// TestBundleRoundTrip writes a bundle with every section and reads it back
// unchanged, but for what JSON cannot carry.
func TestBundleRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Add("lp.pivots", 41)
	reg.Gauge("emu.latency_ratio", 127.5)
	led := ledger.New()
	led.Emit(ledger.Event{Kind: ledger.KindScenario, Scenario: 0, Enum: 2, Prob: 0.01, Cut: []int{3, 7}})
	prof := obs.NewStageProfiler()
	end := prof.Total()
	prof.Stage("te.phase1")()
	end()
	in := &Bundle{
		SchemaVersion: SchemaVersion,
		Metrics:       reg.Snapshot(),
		Ledger:        led.Snapshot(),
		Stages:        prof.Snapshot(),
		Attribution: &attr.Report{Availability: 0.99, Loss: 0.01, Scenarios: []attr.ScenarioLoss{{Scenario: 0, Prob: 0.01}},
			// A zero-RHS row has no left step: JSON carries its +Inf as 0.
			Sensitivities: []attr.Sensitivity{{Row: "p2cap_e3_q0", Scenario: 0, FDHigh: math.Inf(1)}}},
	}
	path := filepath.Join(t.TempDir(), "run.json")
	if err := writeFile(path, in.Write); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(in)
	got, _ := json.Marshal(out)
	if string(got) != string(want) {
		t.Errorf("round trip changed the bundle:\n got %s\nwant %s", got, want)
	}
	if out.Metrics.Counters["lp.pivots"] != 41 || out.Ledger.Events[0].Cut[1] != 7 ||
		out.Stages.Stages[0].Name != "te.phase1" || out.Attribution.Availability != 0.99 ||
		out.Attribution.Sensitivities[0].FDHigh != 0 {
		t.Errorf("sections lost: %+v", out)
	}
}
