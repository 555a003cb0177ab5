package main

import (
	"bytes"
	"strings"
	"testing"

	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/session"
)

// TestSparkline pins the unicode scaling: min maps to the lowest block, max
// to the highest, a flat series renders all-low, empty renders empty.
func TestSparkline(t *testing.T) {
	if got := sparkline(nil); got != "" {
		t.Errorf("empty series rendered %q", got)
	}
	if got := sparkline([]float64{5, 5, 5}); got != "▁▁▁" {
		t.Errorf("flat series rendered %q, want all-low", got)
	}
	got := sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7})
	if got != "▁▂▃▄▅▆▇█" {
		t.Errorf("ramp rendered %q, want full ladder", got)
	}
	// First and last runes always hit the extremes regardless of scale.
	got = sparkline([]float64{-100, 2e9})
	if r := []rune(got); len(r) != 2 || r[0] != '▁' || r[1] != '█' {
		t.Errorf("two-point series rendered %q", got)
	}
}

// TestBuildSolverHealthJoins checks the observatory join: anomaly events
// become findings rows, health summaries become sparklines, the registry's
// histogram quantiles land in the table — and the render order is sorted,
// not emission order, so reports are byte-identical at any worker count.
func TestBuildSolverHealthJoins(t *testing.T) {
	l := ledger.New()
	// Emission order deliberately scrambled versus the sorted render order.
	l.Emit(ledger.Event{Kind: ledger.KindSolverHealth, Scenario: 3, Solver: "rwa-assign",
		Phase: 2, Count: 7, Value: 2e-9, Series: []float64{9, 5, 1}})
	l.Emit(ledger.Event{Kind: ledger.KindSolverAnomaly, Scenario: 3, Solver: "rwa-assign",
		Anomaly: "stall", Phase: 2, Iter: 64, Value: 0.5, Detail: "no progress over 32 pivots"})
	l.Emit(ledger.Event{Kind: ledger.KindSolverHealth, Scenario: -1, Solver: "arrow-phase2",
		Phase: 2, Count: 5, Value: 1e-9, Series: []float64{4, 3, 2, 1}})
	l.Emit(ledger.Event{Kind: ledger.KindSolverAnomaly, Scenario: -1, Solver: "arrow-phase2",
		Anomaly: "residual_drift", Phase: 2, Iter: 96, Value: 1e-3})

	reg := obs.NewRegistry()
	reg.Add("lp.health.probes", 40)
	reg.Add("lp.health.anomalies", 2)
	reg.Observe("lp.health.residual_inf", 1e-9)
	reg.Observe("lp.health.residual_inf", 2e-9)

	h := buildSolverHealth(l.Snapshot(), reg.Snapshot())
	if h == nil {
		t.Fatal("probed run built a nil health section")
	}
	// Registry tallies win over ledger-derived counts (40 > 7+5).
	if h.Probes != 40 || h.Anomalies != 2 || h.Clean {
		t.Errorf("tallies wrong: probes=%d anomalies=%d clean=%v", h.Probes, h.Anomalies, h.Clean)
	}
	if len(h.Findings) != 2 || len(h.Sparks) != 2 {
		t.Fatalf("findings=%d sparks=%d, want 2 and 2", len(h.Findings), len(h.Sparks))
	}
	// Sorted by scenario: the TE solve (scenario -1) renders before the
	// per-scenario RWA solve, whatever order the ledger saw them in.
	if h.Findings[0].Reason != "residual_drift" || h.Findings[1].Reason != "stall" {
		t.Errorf("findings not sorted by scenario: %+v", h.Findings)
	}
	if h.Sparks[0].Solver != "arrow-phase2" || h.Sparks[1].Solver != "rwa-assign" {
		t.Errorf("sparks not sorted by scenario: %+v", h.Sparks)
	}
	if h.Sparks[1].Spark != sparkline([]float64{9, 5, 1}) {
		t.Errorf("spark not rendered from series: %+v", h.Sparks[1])
	}
	foundResidual := false
	for _, q := range h.Quantiles {
		if q.Metric == "lp.health.residual_inf" {
			foundResidual = true
			if q.Count != 2 || q.Max < 2e-9 {
				t.Errorf("residual quantile row wrong: %+v", q)
			}
		}
	}
	if !foundResidual {
		t.Errorf("quantile table missing lp.health.residual_inf: %+v", h.Quantiles)
	}

	var md bytes.Buffer
	renderSolverHealth(&md, h)
	for _, want := range []string{"## Solver health", "ANOMALOUS", "stall", "residual_drift",
		"Numerical quality percentiles", "Pivot progress"} {
		if !strings.Contains(md.String(), want) {
			t.Errorf("markdown missing %q:\n%s", want, md.String())
		}
	}
}

// TestBuildSolverHealthNilWhenUnprobed pins backwards compatibility: a
// ledger with no health events and a metrics snapshot with no lp.health.*
// keys renders exactly as before the observatory existed.
func TestBuildSolverHealthNilWhenUnprobed(t *testing.T) {
	l := ledger.New()
	l.Emit(ledger.Event{Kind: ledger.KindEnumerated, Scenario: -1, Count: 3})
	reg := obs.NewRegistry()
	reg.Add("lp.solves", 12)
	if h := buildSolverHealth(l.Snapshot(), reg.Snapshot()); h != nil {
		t.Errorf("unprobed run built a health section: %+v", h)
	}
	if h := buildSolverHealth(l.Snapshot(), nil); h != nil {
		t.Errorf("unprobed run without metrics built a health section: %+v", h)
	}

	rep := buildReport(&session.Bundle{Ledger: l.Snapshot()})
	var md bytes.Buffer
	renderMarkdown(&md, rep)
	if strings.Contains(md.String(), "Solver health") {
		t.Error("unprobed markdown report contains a solver-health section")
	}

	// A clean probed run gets the section with the CLEAN verdict.
	l.Emit(ledger.Event{Kind: ledger.KindSolverHealth, Scenario: -1, Solver: "arrow-phase2",
		Phase: 1, Count: 3, Value: 1e-12, Series: []float64{3, 2, 1}})
	rep = buildReport(&session.Bundle{Ledger: l.Snapshot()})
	md.Reset()
	renderMarkdown(&md, rep)
	if !strings.Contains(md.String(), "CLEAN") {
		t.Error("clean probed report missing the CLEAN verdict")
	}
}
