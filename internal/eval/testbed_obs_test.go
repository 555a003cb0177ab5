package eval

import (
	"context"
	"testing"

	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/obs"
)

// TestRunTestbedRecordedLatencyObservatory is the acceptance test for the
// restoration-latency observatory: the recorded episodes produce a stage
// waterfall summing to the episode latency, the legacy/ARROW latency ratio
// matches the paper's order of magnitude, and the latency-aware replays
// show legacy strictly losing time at full service versus noise loading on
// the same timeline and seed.
func TestRunTestbedRecordedLatencyObservatory(t *testing.T) {
	reg := obs.NewRegistry()
	reg.EnableTrace()
	led := ledger.New()
	out, err := RunTestbed(withSinks(reg, led, nil), 1, false)
	if err != nil {
		t.Fatal(err)
	}

	// Paper shape: 1021 s vs 8 s = 127x; require the same order (>50x).
	if out.LatencyRatio < 50 {
		t.Fatalf("latency ratio %.0fx, want >50x", out.LatencyRatio)
	}
	snap := reg.Snapshot()
	if snap.Gauges["emu.latency_ratio"] != out.LatencyRatio {
		t.Fatalf("gauge %g != outcome %g", snap.Gauges["emu.latency_ratio"], out.LatencyRatio)
	}
	if snap.Counters["emu.episodes"] != 2 {
		t.Fatalf("emu.episodes = %d, want 2", snap.Counters["emu.episodes"])
	}

	// Both episodes' waterfalls account for their full latency.
	for _, tr := range []struct {
		name  string
		trial interface {
			CriticalPathSec() float64
		}
		done float64
	}{{"legacy", out.Legacy, out.Legacy.DoneSec}, {"arrow", out.Arrow, out.Arrow.DoneSec}} {
		if got := tr.trial.CriticalPathSec(); got != tr.done {
			t.Fatalf("%s waterfall sums to %g s, episode took %g s", tr.name, got, tr.done)
		}
	}

	// The availability delta: same timeline, same seed, only the latency
	// distribution differs — legacy must be strictly worse.
	if out.LegacySim.FullServiceFrac >= out.ArrowSim.FullServiceFrac {
		t.Fatalf("legacy full service %.6f not strictly below noise loading %.6f",
			out.LegacySim.FullServiceFrac, out.ArrowSim.FullServiceFrac)
	}
	if out.LegacySim.RestoringHours <= out.ArrowSim.RestoringHours {
		t.Fatalf("legacy restoring %.3f h not above noise loading %.3f h",
			out.LegacySim.RestoringHours, out.ArrowSim.RestoringHours)
	}

	// The ledger carries the full observatory stream: stage events for both
	// modes and mode-tagged sim summaries.
	modes := map[string]int{}
	sims := map[string]bool{}
	for _, ev := range led.Events() {
		switch ev.Kind {
		case ledger.KindEmuStage:
			modes[ev.Mode]++
		case ledger.KindSimSummary:
			sims[ev.Mode] = true
		}
	}
	if modes["legacy"] == 0 || modes["noise_loading"] == 0 {
		t.Fatalf("stage events per mode: %v", modes)
	}
	if !sims["legacy"] || !sims["noise_loading"] {
		t.Fatalf("sim summaries per mode: %v", sims)
	}

	// Determinism across invocations: the observatory is seed-stable.
	out2, err := RunTestbed(context.Background(), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if out2.LatencyRatio != out.LatencyRatio || *out2.LegacySim != *out.LegacySim || *out2.ArrowSim != *out.ArrowSim {
		t.Fatal("observatory run not reproducible for the same seed")
	}
}
