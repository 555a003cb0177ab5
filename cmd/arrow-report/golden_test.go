package main

import (
	"bytes"
	"compress/gzip"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/lp"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/session"
)

var updateGolden = flag.Bool("update", false, "rewrite the rendered-report golden files under testdata/")

// TestRenderGolden pins the rendered bytes of two bundles:
//
//   - testdata/run.json.gz, a real bundle written by
//     arrow-report -run -seed 1 -attr -health-every 32 -parallelism 2 -run-out;
//   - syntheticBundle, the rows that run lacks.
//
// A renderer change that is meant to move bytes regenerates the goldens with
//
//	go test ./cmd/arrow-report -run TestRenderGolden -update
func TestRenderGolden(t *testing.T) {
	dir := t.TempDir()
	gz, err := os.ReadFile(filepath.Join("testdata", "run.json.gz"))
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		t.Fatal(err)
	}
	runBundle, err := session.Read(zr)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		b    *session.Bundle
	}{
		{"run", runBundle},
		{"synthetic", syntheticBundle()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := renderBundle(t, filepath.Join(dir, tc.name+".json"), tc.b)
			golden := filepath.Join("testdata", tc.name+".md.golden")
			if *updateGolden {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s", golden)
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden (regenerate with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s renders differently from %s (regenerate deliberately with -update):\n--- got\n%s\n--- want\n%s",
					tc.name, golden, got, want)
			}
		})
	}
}

// renderBundle saves b at path and renders it through the CLI's own path,
// arrow-report FILE.
func renderBundle(t *testing.T, path string, b *session.Bundle) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := b.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{path}, &out, &errb); code != 0 {
		t.Fatalf("render exit %d:\n%s", code, errb.String())
	}
	return out.Bytes()
}

// syntheticBundle carries the rows a recorded run lacks: solver anomalies
// emitted out of render order, solver-health events tied on (scenario,
// solver, phase), a failing and an uncertified solve, an untagged replay, a
// kept scenario without a winner, ticket events of a never-kept scenario,
// and a stage profile spanning every byte unit.
func syntheticBundle() *session.Bundle {
	l := ledger.New()
	for _, ev := range []ledger.Event{
		{Kind: ledger.KindEnumerated, Scenario: -1, Count: 4},
		{Kind: ledger.KindScenario, Scenario: 0, Enum: 1, Prob: 0.05, Links: []int{2}, Cut: []int{5}, Count: 3},
		{Kind: ledger.KindScenario, Scenario: 1, Enum: 3, Prob: 0.01, Links: []int{4, 1}, Cut: []int{7, 2}, Count: 2},
		{Kind: ledger.KindTicketGenerated, Scenario: 1, Ticket: 0, Gbps: 400},
		{Kind: ledger.KindTicketGenerated, Scenario: 1, Ticket: 1, Gbps: 300},
		{Kind: ledger.KindTicketRejected, Scenario: 1, Ticket: 2, Reason: ledger.RejectRounding},
		{Kind: ledger.KindTicketGenerated, Scenario: 3, Ticket: 0, Gbps: 200},
		{Kind: ledger.KindTicketRejected, Scenario: 3, Ticket: 1, Reason: ledger.RejectSpectrumClash},
		{Kind: ledger.KindTicketRejected, Scenario: 3, Ticket: 2, Reason: ledger.RejectDuplicate},
		// Enumerated scenarios 0 and 2 were never kept: no row to land in.
		{Kind: ledger.KindTicketGenerated, Scenario: 2, Ticket: 0, Gbps: 100},
		{Kind: ledger.KindTicketRejected, Scenario: 0, Ticket: 0, Reason: ledger.RejectRounding},
		{Kind: ledger.KindPricingRound, Scenario: -1, Round: 1, Count: 4, Gbps: -2.5, Detail: "40v/12r"},
		{Kind: ledger.KindPricingRound, Scenario: -1, Round: 2, Count: 0, Detail: "44v/12r"},
		{Kind: ledger.KindSolveEnd, Scenario: -1, Solver: "arrow-phase1", Status: "optimal",
			Cert: &lp.Certificate{Primal: 10, Dual: 10}},
		{Kind: ledger.KindSolveEnd, Scenario: -1, Solver: "arrow-phase2", Status: "optimal",
			Cert: &lp.Certificate{Primal: 10, Dual: 9, Gap: 0.0909, PrimalInf: 1e-3, DualInf: 2e-12}},
		{Kind: ledger.KindSolveEnd, Scenario: 0, Solver: "rwa-assign", Status: "iteration_limit"},
		// Scenario 1 keeps no winner; scenario 7 is out of range.
		{Kind: ledger.KindWinner, Scenario: 0, Ticket: 1, Gbps: 400, Fraction: 0.8},
		{Kind: ledger.KindWinner, Scenario: 7, Ticket: 3, Gbps: 1, Fraction: 1},
		{Kind: ledger.KindUnmetDemand, Scenario: -1, Gbps: 12.5, Fraction: 0.0125},
		{Kind: ledger.KindSimSummary, Scenario: -1, Count: 288, Fraction: 0.9987},
		// Solver health: anomalies out of render order, and health events
		// tied on (scenario, solver, phase) down to the series.
		{Kind: ledger.KindSolverAnomaly, Scenario: 2, Solver: "rwa-assign", Anomaly: "stall",
			Phase: 2, Iter: 64, Value: 0.25, Detail: "b"},
		{Kind: ledger.KindSolverAnomaly, Scenario: -1, Solver: "arrow-phase2", Anomaly: "residual_drift",
			Phase: 2, Iter: 96, Value: 1e-3},
		{Kind: ledger.KindSolverAnomaly, Scenario: 2, Solver: "rwa-assign", Anomaly: "stall",
			Phase: 2, Iter: 64, Value: 0.25, Detail: "a"},
		{Kind: ledger.KindSolverAnomaly, Scenario: 2, Solver: "rwa-assign", Anomaly: "stall",
			Phase: 1, Iter: 32, Value: 0.5},
		{Kind: ledger.KindSolverAnomaly, Scenario: -1, Solver: "arrow-phase1", Anomaly: "cycling_suspect",
			Phase: 1, Iter: 128, Value: 3},
		{Kind: ledger.KindSolverHealth, Scenario: 0, Solver: "arrow-phase1", Phase: 1,
			Count: 9, Value: 3e-9, Series: []float64{5, 4, 3}},
		{Kind: ledger.KindSolverHealth, Scenario: 0, Solver: "arrow-phase1", Phase: 1,
			Count: 4, Value: 1e-9, Series: []float64{3, 2, 1}},
		{Kind: ledger.KindSolverHealth, Scenario: 0, Solver: "arrow-phase1", Phase: 1,
			Count: 4, Value: 1e-9, Series: []float64{3, 1, 2}},
		{Kind: ledger.KindSolverHealth, Scenario: -1, Solver: "arrow-phase2", Phase: 2,
			Count: 5, Value: 1e-10, Series: []float64{4, 3, 2, 1}},
		// Restoration latency: one legacy and one noise-loading episode, and
		// tagged replays where legacy is not worse (the warning verdict).
		{Kind: ledger.KindEmuStage, Scenario: -1, Mode: "legacy", Stage: "detect", Device: "monitors", StartSec: 0, DurSec: 1},
		{Kind: ledger.KindEmuStage, Scenario: -1, Mode: "legacy", Stage: "amp_settle", Device: "amp-0", Lane: 1, StartSec: 1, DurSec: 90},
		{Kind: ledger.KindEmuStage, Scenario: -1, Mode: "legacy", Stage: "amp_settle", Device: "amp-1", Lane: 1, StartSec: 91, DurSec: 110},
		{Kind: ledger.KindEmuStage, Scenario: -1, Mode: "legacy", Stage: "amp_chain", Device: "path [1]", Lane: 1, StartSec: 1, DurSec: 200},
		{Kind: ledger.KindEmuStage, Scenario: -1, Mode: "legacy", Stage: "lacp", Device: "path [2]", Lane: 2, StartSec: 1, DurSec: 2},
		{Kind: ledger.KindEmuEpisode, Scenario: -1, Mode: "legacy", DurSec: 201, Gbps: 2800, Count: 2},
		{Kind: ledger.KindEmuStage, Scenario: -1, Mode: "noise_loading", Stage: "detect", Device: "monitors", StartSec: 0, DurSec: 1},
		{Kind: ledger.KindEmuStage, Scenario: -1, Mode: "noise_loading", Stage: "lacp", Device: "path [1]", Lane: 1, StartSec: 1, DurSec: 1},
		{Kind: ledger.KindEmuEpisode, Scenario: -1, Mode: "noise_loading", DurSec: 2, Gbps: 2800},
		{Kind: ledger.KindSimSummary, Scenario: -1, Mode: "legacy", Count: 9, Fraction: 0.99, FullService: 0.99, RestoringH: 12},
		{Kind: ledger.KindSimSummary, Scenario: -1, Mode: "noise_loading", Count: 9, Fraction: 0.98, FullService: 0.98, RestoringH: 0.1},
		// Attribution: tied losses keep scenario order; scenario 1's row
		// is seen twice and keeps the later values.
		{Kind: ledger.KindAttribution, Scenario: -1, Prob: 0.94, Detail: "scenario"},
		{Kind: ledger.KindAttribution, Scenario: 0, Prob: 0.05, Gbps: 50, Fraction: 0.002, Detail: "scenario"},
		{Kind: ledger.KindAttribution, Scenario: 0, Flow: 2, Gbps: 50, Fraction: 0.002, Detail: "flow"},
		{Kind: ledger.KindAttribution, Scenario: 1, Prob: 0.01, Gbps: 10, Fraction: 0.001, Detail: "scenario"},
		{Kind: ledger.KindAttribution, Scenario: 1, Prob: 0.01, Gbps: 100, Fraction: 0.002, Detail: "scenario"},
		{Kind: ledger.KindAttribution, Scenario: 1, Flow: 0, Gbps: 60, Fraction: 0.0012, Detail: "flow"},
		{Kind: ledger.KindAttribution, Scenario: 1, Flow: 1, Gbps: 40, Fraction: 0.0008, Detail: "flow"},
		{Kind: ledger.KindAttribution, Scenario: -1, Mode: "arrow", Links: []int{7, 2}, DurSec: 5400, Fraction: 0.25, Detail: "sim_cut"},
		{Kind: ledger.KindSensitivity, Scenario: 1, Link: 3, Fiber: 2, Value: 0.8, FDLow: 0.79, Detail: "restore_e3_q1"},
		{Kind: ledger.KindWhatIf, Scenario: -1, Link: 3, Fiber: 2, Gbps: 100, Value: 0.002, Detail: "+1 wave on fiber 2"},
	} {
		l.Emit(ev)
	}

	reg := obs.NewRegistry()
	reg.Add("lp.solves", 3)
	reg.Add("lp.health.probes", 30)
	reg.Add("lp.health.anomalies", 6)
	reg.Gauge("emu.latency_ratio", 100.5)
	for _, v := range []float64{1e-12, 3e-10, 2e-9} {
		reg.Observe("lp.health.residual_inf", v)
	}
	for _, v := range []float64{2, 5, 9, 17} {
		reg.Observe("lp.health.eta_depth", v)
	}

	return &session.Bundle{
		SchemaVersion: session.SchemaVersion,
		Metrics:       reg.Snapshot(),
		Ledger:        l.Snapshot(),
		Stages: &obs.StageProfile{TotalSeconds: 2.5, Coverage: 0.9, Stages: []obs.StageRecord{
			{Name: "pipeline.offline", Count: 1, WallSeconds: 1.5, AllocBytes: 3 << 30, GCPauseSeconds: 0.004},
			{Name: "rwa.solve", Count: 40, WallSeconds: 2.8, Aggregate: true},
			{Name: "te.phase1", Count: 2, WallSeconds: 0.5, AllocBytes: 5 << 20},
			{Name: "te.phase2", Count: 2, WallSeconds: 0.2, AllocBytes: 3 << 10},
			{Name: "sim.replay", Count: 1, WallSeconds: 0.05, AllocBytes: 512},
		}},
	}
}
