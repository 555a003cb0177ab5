package main

import (
	"strings"
	"testing"

	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/obs"
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
	reg := obs.NewRegistry()
	reg.Add("lp.health.probes", 40)
	reg.Add("lp.health.anomalies", 2)
	reg.Observe("lp.health.residual_inf", 1e-9)
	reg.Observe("lp.health.residual_inf", 2e-9)
	// Emission order deliberately scrambled versus the sorted render order.
	md := renderEvents(reg.Snapshot(),
		ledger.Event{Kind: ledger.KindSolverHealth, Scenario: 3, Solver: "rwa-assign",
			Phase: 2, Count: 7, Value: 2e-9, Series: []float64{9, 5, 1}},
		ledger.Event{Kind: ledger.KindSolverAnomaly, Scenario: 3, Solver: "rwa-assign",
			Anomaly: "stall", Phase: 2, Iter: 64, Value: 0.5, Detail: "no progress over 32 pivots"},
		ledger.Event{Kind: ledger.KindSolverHealth, Scenario: -1, Solver: "arrow-phase2",
			Phase: 2, Count: 5, Value: 1e-9, Series: []float64{4, 3, 2, 1}},
		ledger.Event{Kind: ledger.KindSolverAnomaly, Scenario: -1, Solver: "arrow-phase2",
			Anomaly: "residual_drift", Phase: 2, Iter: 96, Value: 1e-3},
	)
	// Registry tallies win over ledger-derived counts (40 > 7+5).
	wantLines(t, md, "40 health probes, 2 anomalies → **ANOMALOUS**.",
		"| lp.health.residual_inf | 2 |",
		"Numerical quality percentiles", "Pivot progress")
	// Sorted by scenario: the TE solve (scenario -1) renders before the
	// per-scenario RWA solve, whatever order the ledger saw them in.
	wantLines(t, md,
		"| arrow-phase2 | -1 | residual_drift | 2 | 96 | 0.001 |  |\n| rwa-assign | 3 | stall | 2 | 64 | 0.5 | no progress over 32 pivots |\n",
		"| arrow-phase2 | -1 | 2 | 5 | 1.00e-09 | `"+sparkline([]float64{4, 3, 2, 1})+"` |\n"+
			"| rwa-assign | 3 | 2 | 7 | 2.00e-09 | `"+sparkline([]float64{9, 5, 1})+"` |\n")
}

// TestBuildSolverHealthNilWhenUnprobed pins backwards compatibility: a
// ledger with no health events and a metrics snapshot with no lp.health.*
// keys renders exactly as before the observatory existed.
func TestBuildSolverHealthNilWhenUnprobed(t *testing.T) {
	enumerated := ledger.Event{Kind: ledger.KindEnumerated, Scenario: -1, Count: 3}
	reg := obs.NewRegistry()
	reg.Add("lp.solves", 12)
	for _, metrics := range []*obs.Snapshot{reg.Snapshot(), nil} {
		if md := renderEvents(metrics, enumerated); strings.Contains(md, "Solver health") {
			t.Errorf("unprobed markdown report contains a solver-health section:\n%s", md)
		}
	}

	// A clean probed run gets the section with the CLEAN verdict.
	md := renderEvents(nil, enumerated, ledger.Event{Kind: ledger.KindSolverHealth, Scenario: -1,
		Solver: "arrow-phase2", Phase: 1, Count: 3, Value: 1e-12, Series: []float64{3, 2, 1}})
	wantLines(t, md, "3 health probes, 0 anomalies → **CLEAN**.")
}
