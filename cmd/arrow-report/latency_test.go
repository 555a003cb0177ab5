package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"github.com/arrow-te/arrow/internal/eval"
	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/session"
)

// TestBuildLatencySection checks episode reconstruction from a synthetic
// ledger: stage events attach to the next episode, amp_settle spans feed the
// percentile summary, mode-tagged sim summaries land in the replay table and
// untagged ones stay out.
func TestBuildLatencySection(t *testing.T) {
	l := ledger.New()
	// Legacy episode: serial detect + one restoration lane.
	l.Emit(ledger.Event{Kind: ledger.KindEmuStage, Scenario: -1, Mode: "legacy", Stage: "detect", Lane: 0, StartSec: 0, DurSec: 1})
	l.Emit(ledger.Event{Kind: ledger.KindEmuStage, Scenario: -1, Mode: "legacy", Stage: "amp_settle", Device: "amp-0", Lane: 1, StartSec: 1, DurSec: 90})
	l.Emit(ledger.Event{Kind: ledger.KindEmuStage, Scenario: -1, Mode: "legacy", Stage: "amp_settle", Device: "amp-1", Lane: 1, StartSec: 91, DurSec: 110})
	l.Emit(ledger.Event{Kind: ledger.KindEmuStage, Scenario: -1, Mode: "legacy", Stage: "amp_chain", Lane: 1, StartSec: 1, DurSec: 200})
	l.Emit(ledger.Event{Kind: ledger.KindEmuEpisode, Scenario: -1, Mode: "legacy", DurSec: 201, Gbps: 2800, Count: 2})
	// Noise-loading episode: no per-amp settling.
	l.Emit(ledger.Event{Kind: ledger.KindEmuStage, Scenario: -1, Mode: "noise_loading", Stage: "detect", Lane: 0, StartSec: 0, DurSec: 1})
	l.Emit(ledger.Event{Kind: ledger.KindEmuStage, Scenario: -1, Mode: "noise_loading", Stage: "lacp", Lane: 1, StartSec: 1, DurSec: 1})
	l.Emit(ledger.Event{Kind: ledger.KindEmuEpisode, Scenario: -1, Mode: "noise_loading", DurSec: 2, Gbps: 2800, Count: 0})
	// Tagged replays go to the latency section, the untagged one does not.
	l.Emit(ledger.Event{Kind: ledger.KindSimSummary, Scenario: -1, Mode: "legacy", Count: 9, Fraction: 0.95, FullService: 0.90, RestoringH: 12})
	l.Emit(ledger.Event{Kind: ledger.KindSimSummary, Scenario: -1, Mode: "noise_loading", Count: 9, Fraction: 0.99, FullService: 0.98, RestoringH: 0.1})
	l.Emit(ledger.Event{Kind: ledger.KindSimSummary, Scenario: -1, Count: 7, Fraction: 0.97})

	rep := buildReport(&session.Bundle{Ledger: l.Snapshot()})
	lr := rep.Latency
	if lr == nil {
		t.Fatal("no latency section built")
	}
	if len(lr.Episodes) != 2 {
		t.Fatalf("episodes %d, want 2", len(lr.Episodes))
	}
	if got := lr.Episodes[0]; got.Mode != "legacy" || len(got.Stages) != 4 || got.StageSumSec != 201 {
		t.Errorf("legacy episode wrong: %+v", got)
	}
	if got := lr.Episodes[1]; got.Mode != "noise_loading" || len(got.Stages) != 2 || got.StageSumSec != 2 {
		t.Errorf("noise episode wrong: %+v", got)
	}
	if lr.AmpSettle.Count != 2 || lr.AmpSettle.Min != 90 || lr.AmpSettle.Max != 110 {
		t.Errorf("amp settle summary wrong: %+v", lr.AmpSettle)
	}
	if lr.LatencyRatio != 201.0/2.0 {
		t.Errorf("latency ratio %g, want 100.5", lr.LatencyRatio)
	}
	if len(lr.Sims) != 2 {
		t.Fatalf("tagged sims %d, want 2", len(lr.Sims))
	}
	if lr.Sims[0].Mode != "legacy" || lr.Sims[0].RestoringHours != 12 || lr.Sims[0].FullServiceFrac != 0.90 {
		t.Errorf("legacy sim row wrong: %+v", lr.Sims[0])
	}
	// The untagged replay stays in the main report.
	if rep.SimIntervals != 7 || rep.SimDelivered != 0.97 {
		t.Errorf("untagged sim leaked: intervals=%d delivered=%g", rep.SimIntervals, rep.SimDelivered)
	}

	var md bytes.Buffer
	renderMarkdown(&md, rep)
	for _, want := range []string{
		"## Restoration latency",
		"amp_chain",
		"2 per-amplifier settle spans folded",
		"latency ratio: **100x**",
		"Latency-aware availability replay",
		"as the paper predicts",
	} {
		if !strings.Contains(md.String(), want) {
			t.Errorf("markdown missing %q:\n%s", want, md.String())
		}
	}
}

// TestBuildLatencyAbsentWithoutEpisodes pins that runs with no emulated
// episodes and no tagged replays render no latency section at all.
func TestBuildLatencyAbsentWithoutEpisodes(t *testing.T) {
	l := ledger.New()
	l.Emit(ledger.Event{Kind: ledger.KindSimSummary, Scenario: -1, Count: 3, Fraction: 0.9})
	rep := buildReport(&session.Bundle{Ledger: l.Snapshot()})
	if rep.Latency != nil {
		t.Fatalf("latency section built from untagged events: %+v", rep.Latency)
	}
	var md bytes.Buffer
	renderMarkdown(&md, rep)
	if strings.Contains(md.String(), "Restoration latency") {
		t.Error("markdown renders an empty latency section")
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
	if _, _, _, err := eval.RunRecorded(ctx, eval.RunOptions{Seed: 1, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	tb, err := eval.RunTestbed(ctx, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	rep := buildReport(&session.Bundle{Ledger: led.Snapshot(), Metrics: reg.Snapshot()})
	lr := rep.Latency
	if lr == nil {
		t.Fatal("recorded run has no latency section")
	}
	if len(lr.Episodes) != 2 {
		t.Fatalf("episodes %d, want 2", len(lr.Episodes))
	}
	for _, ep := range lr.Episodes {
		if diff := ep.StageSumSec - ep.TotalSec; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s waterfall stage sum %.6f != total %.6f", ep.Mode, ep.StageSumSec, ep.TotalSec)
		}
	}
	if lr.LatencyRatio < 50 {
		t.Errorf("latency ratio %g, want >= 50", lr.LatencyRatio)
	}
	if tb.LatencyRatio != reg.Snapshot().Gauges["emu.latency_ratio"] {
		t.Errorf("gauge %g != outcome ratio %g", reg.Snapshot().Gauges["emu.latency_ratio"], tb.LatencyRatio)
	}
	legacy, arrow := findSim(lr.Sims, "legacy"), findSim(lr.Sims, "noise_loading")
	if legacy == nil || arrow == nil {
		t.Fatalf("replay rows missing: %+v", lr.Sims)
	}
	if legacy.FullServiceFrac >= arrow.FullServiceFrac {
		t.Errorf("legacy full service %.6f not below noise loading %.6f",
			legacy.FullServiceFrac, arrow.FullServiceFrac)
	}
	var md bytes.Buffer
	renderMarkdown(&md, rep)
	if !strings.Contains(md.String(), "as the paper predicts") {
		t.Error("markdown verdict missing")
	}
}
