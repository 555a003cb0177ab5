package main

import (
	"bytes"
	"context"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/arrow-te/arrow/internal/eval"
	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/par"
	"github.com/arrow-te/arrow/internal/plan"
	"github.com/arrow-te/arrow/internal/session"
)

// TestBuildLatencySection checks episode reconstruction from a synthetic
// ledger: stage events attach to the next episode, amp_settle spans feed the
// percentile summary, mode-tagged sim summaries land in the replay table and
// untagged ones stay in the plan's restoration summary.
func TestBuildLatencySection(t *testing.T) {
	md := renderEvents(nil,
		// A plan, so the restoration summary (and its untagged replay) renders.
		ledger.Event{Kind: ledger.KindScenario, Scenario: 0, Enum: 0, Prob: 0.1, Count: 1},
		// Legacy episode: serial detect + one restoration lane.
		ledger.Event{Kind: ledger.KindEmuStage, Scenario: -1, Mode: "legacy", Stage: "detect", Lane: 0, StartSec: 0, DurSec: 1},
		ledger.Event{Kind: ledger.KindEmuStage, Scenario: -1, Mode: "legacy", Stage: "amp_settle", Device: "amp-0", Lane: 1, StartSec: 1, DurSec: 90},
		ledger.Event{Kind: ledger.KindEmuStage, Scenario: -1, Mode: "legacy", Stage: "amp_settle", Device: "amp-1", Lane: 1, StartSec: 91, DurSec: 110},
		ledger.Event{Kind: ledger.KindEmuStage, Scenario: -1, Mode: "legacy", Stage: "amp_chain", Lane: 1, StartSec: 1, DurSec: 200},
		ledger.Event{Kind: ledger.KindEmuEpisode, Scenario: -1, Mode: "legacy", DurSec: 201, Gbps: 2800, Count: 2},
		// Noise-loading episode: no per-amp settling.
		ledger.Event{Kind: ledger.KindEmuStage, Scenario: -1, Mode: "noise_loading", Stage: "detect", Lane: 0, StartSec: 0, DurSec: 1},
		ledger.Event{Kind: ledger.KindEmuStage, Scenario: -1, Mode: "noise_loading", Stage: "lacp", Lane: 1, StartSec: 1, DurSec: 1},
		ledger.Event{Kind: ledger.KindEmuEpisode, Scenario: -1, Mode: "noise_loading", DurSec: 2, Gbps: 2800, Count: 0},
		// Tagged replays go to the latency section, the untagged one does not.
		ledger.Event{Kind: ledger.KindSimSummary, Scenario: -1, Mode: "legacy", Count: 9, Fraction: 0.95, FullService: 0.90, RestoringH: 12},
		ledger.Event{Kind: ledger.KindSimSummary, Scenario: -1, Mode: "noise_loading", Count: 9, Fraction: 0.99, FullService: 0.98, RestoringH: 0.1},
		ledger.Event{Kind: ledger.KindSimSummary, Scenario: -1, Count: 7, Fraction: 0.97},
	)
	wantLines(t, md,
		"## Restoration latency",
		// The stage sum is the critical path: detect + the restoration lane.
		"| 0 | legacy | 201.0 | 2800 | 2 | 201.0 |",
		"| 1 | noise_loading | 2.0 | 2800 | 0 | 2.0 |",
		"| amp_chain |  | 1 | 1.0 | 200.0 |",
		"2 per-amplifier settle spans folded",
		"Amplifier settling over 2 amplifiers (Fig. 20 shape): p50 90.0 s, p90 110.0 s, p99 110.0 s (min 90.0, max 110.0, mean 100.0).",
		"latency ratio: **100x**",
		"Latency-aware availability replay",
		"| legacy | 0.9500 | 0.9000 | 12.00 | 9 |",
		"| noise_loading | 0.9900 | 0.9800 | 0.10 | 9 |",
		"as the paper predicts",
		// The untagged replay stays in the main report.
		"Timeline replay: 7 intervals, 0.9700 time-weighted delivered fraction.",
	)
	if strings.Contains(md, "| 0.9700 |") {
		t.Errorf("untagged sim leaked into the replay table:\n%s", md)
	}
}

// TestBuildLatencyAbsentWithoutEpisodes pins that runs with no emulated
// episodes and no tagged replays render no latency section at all.
func TestBuildLatencyAbsentWithoutEpisodes(t *testing.T) {
	md := renderEvents(nil, ledger.Event{Kind: ledger.KindSimSummary, Scenario: -1, Count: 3, Fraction: 0.9})
	if strings.Contains(md, "Restoration latency") {
		t.Errorf("markdown renders an empty latency section:\n%s", md)
	}
}

// TestRunReportIncludesLatencySection is the observatory acceptance check on
// the real pipeline: -run records the emulated testbed, so the report carries
// both episode waterfalls (stage sum == total) and the latency-aware replay
// rows for both modes.
func TestRunReportIncludesLatencySection(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full recorded pipeline")
	}
	led := ledger.New()
	reg := obs.NewRegistry()
	ctx := ledger.WithLedger(obs.WithRecorder(context.Background(), reg), led)
	if _, _, _, err := eval.RunRecorded(par.WithWorkers(ctx, 2), 1, plan.Space{}, false); err != nil {
		t.Fatal(err)
	}
	tb, err := eval.RunTestbed(ctx, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	renderMarkdown(&buf, newReport(&session.Bundle{Ledger: led.Snapshot(), Metrics: reg.Snapshot()}))
	md := buf.String()
	episodes := tableRows(t, md, "## Restoration latency")
	if len(episodes) != 2 {
		t.Fatalf("episodes %d, want 2:\n%s", len(episodes), md)
	}
	for _, ep := range episodes {
		if ep[5] != ep[2] {
			t.Errorf("%s waterfall stage sum %s != total %s", ep[1], ep[5], ep[2])
		}
	}
	m := regexp.MustCompile(`latency ratio: \*\*(\d+)x\*\*`).FindStringSubmatch(md)
	if m == nil {
		t.Fatalf("markdown has no latency ratio:\n%s", md)
	}
	if ratio, _ := strconv.Atoi(m[1]); ratio < 50 {
		t.Errorf("latency ratio %d, want >= 50", ratio)
	}
	if tb.LatencyRatio != reg.Snapshot().Gauges["emu.latency_ratio"] {
		t.Errorf("gauge %g != outcome ratio %g", reg.Snapshot().Gauges["emu.latency_ratio"], tb.LatencyRatio)
	}
	replays := map[string]bool{}
	for _, row := range tableRows(t, md, "### Latency-aware availability replay") {
		replays[row[0]] = true
	}
	if !replays["legacy"] || !replays["noise_loading"] {
		t.Fatalf("replay rows missing:\n%s", md)
	}
	// The verdict reads legacy's full-service share below noise loading's.
	wantLines(t, md, "as the paper predicts")
}
