package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/obs"
)

func TestRunTestbedTrial(t *testing.T) {
	if err := run(context.Background(), 1, 0, false, nil); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), 2, 0, true, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRunRecordsObservatory checks the observability wiring: an
// instrumented run produces the emulated-clock waterfall, the latency-ratio
// gauge, and a ledger that round-trips through Ledger.WriteFile/ReadJSON with
// both modes' episodes.
func TestRunRecordsObservatory(t *testing.T) {
	reg := obs.NewRegistry()
	reg.EnableTrace()
	led := ledger.New()
	if err := run(ledger.WithLedger(obs.WithRecorder(context.Background(), reg), led), 1, 0, false, nil); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["emu.episodes"] != 2 || snap.Counters["testbed.trials"] != 2 {
		t.Fatalf("episode counters %v", snap.Counters)
	}
	if snap.Gauges["emu.latency_ratio"] < 50 {
		t.Fatalf("latency ratio gauge %g, want >50", snap.Gauges["emu.latency_ratio"])
	}
	emuSpans := 0
	for _, ev := range reg.TraceEvents() {
		if ev.PID == obs.EmuPID {
			emuSpans++
		}
	}
	if emuSpans == 0 {
		t.Fatal("no emulated-clock waterfall in the trace")
	}

	path := filepath.Join(t.TempDir(), "ledger.json")
	if err := led.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	fd, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	ls, err := ledger.ReadJSON(fd)
	if err != nil {
		t.Fatal(err)
	}
	modes := map[string]bool{}
	for _, ev := range ls.Events {
		if ev.Kind == ledger.KindEmuEpisode {
			modes[ev.Mode] = true
		}
	}
	if !modes["legacy"] || !modes["noise_loading"] {
		t.Fatalf("ledger episodes per mode: %v", modes)
	}
}
