package main

import (
	"context"
	"path/filepath"
	"testing"

	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/session"
)

func TestRunTestbedTrial(t *testing.T) {
	if err := run(context.Background(), 1, false, nil); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), 2, true, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRunRecordsObservatory checks the observability wiring: an
// instrumented run produces the emulated-clock waterfall, the latency-ratio
// gauge, and a bundle whose ledger reads back with both modes' episodes.
func TestRunRecordsObservatory(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.json")
	sess, err := (&session.Flags{RunOut: path, TraceOut: filepath.Join(dir, "trace.json")}).Start(session.Ledger, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(sess.Context(), 1, false, nil); err != nil {
		t.Fatal(err)
	}
	emuSpans := 0
	for _, ev := range obs.FromContext(sess.Context()).(*obs.Registry).TraceEvents() {
		if ev.PID == obs.EmuPID {
			emuSpans++
		}
	}
	if emuSpans == 0 {
		t.Fatal("no emulated-clock waterfall in the trace")
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	b, err := session.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Metrics.Counters["emu.episodes"] != 2 || b.Metrics.Counters["testbed.trials"] != 2 {
		t.Fatalf("episode counters %v", b.Metrics.Counters)
	}
	if b.Metrics.Gauges["emu.latency_ratio"] < 50 {
		t.Fatalf("latency ratio gauge %g, want >50", b.Metrics.Gauges["emu.latency_ratio"])
	}
	modes := map[string]bool{}
	for _, ev := range b.Ledger.Events {
		if ev.Kind == ledger.KindEmuEpisode {
			modes[ev.Mode] = true
		}
	}
	if !modes["legacy"] || !modes["noise_loading"] {
		t.Fatalf("ledger episodes per mode: %v", modes)
	}
}
