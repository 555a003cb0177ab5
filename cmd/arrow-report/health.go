package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/obs"
)

// AnomalyRow is one solver_anomaly ledger event in report form.
type AnomalyRow struct {
	Solver   string
	Scenario int
	Reason   string
	Phase    int
	Iter     int
	Value    float64
	Detail   string
}

// HealthSpark is one probed solve phase's objective-progress trajectory
// (downsampled by the ledger to <= 32 points) with its unicode sparkline.
type HealthSpark struct {
	Solver   string
	Scenario int
	Phase    int
	Probes   int
	WorstRes float64
	Series   []float64
	Spark    string
}

// QuantileRow is one health histogram's percentile summary from the
// metrics snapshot.
type QuantileRow struct {
	Metric string
	Count  int64
	P50    float64
	P90    float64
	P99    float64
	Max    float64
}

// SolverHealthReport is the solver-health observatory section of a run
// report: anomaly findings, numerical-quality percentiles and per-phase
// pivot-progress sparklines.
type SolverHealthReport struct {
	// Probes / Anomalies mirror the lp.health.* counters when a metrics
	// snapshot is embedded (counted from ledger events otherwise).
	Probes    int64
	Anomalies int64
	// Clean is the CI gate: true iff no anomaly was detected anywhere.
	Clean     bool
	Findings  []AnomalyRow
	Quantiles []QuantileRow
	Sparks    []HealthSpark
}

// healthQuantileMetrics are the per-probe histograms summarised in the
// quantile table, in render order.
var healthQuantileMetrics = []string{
	"lp.health.residual_inf",
	"lp.health.degenerate_ratio",
	"lp.health.eta_depth",
	"lp.health.obj_progress",
}

// sparkRunes are the eight block heights of a unicode sparkline.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders vs as a fixed-height unicode strip, scaled to the
// series' own min..max (a flat series renders as all-low).
func sparkline(vs []float64) string {
	if len(vs) == 0 {
		return ""
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range vs {
		i := 0
		if hi > lo {
			i = int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
			if i >= len(sparkRunes) {
				i = len(sparkRunes) - 1
			}
		}
		b.WriteRune(sparkRunes[i])
	}
	return b.String()
}

// buildSolverHealth joins solver_anomaly / solver_health ledger events and
// the lp.health.* metrics into the observatory section. Returns nil when
// the run carried no health probes at all (probing off), so old ledgers
// render unchanged.
func buildSolverHealth(snap *ledger.Snapshot, metrics *obs.Snapshot) *SolverHealthReport {
	h := &SolverHealthReport{}
	for _, ev := range snap.Events {
		switch ev.Kind {
		case ledger.KindSolverAnomaly:
			h.Findings = append(h.Findings, AnomalyRow{
				Solver: ev.Solver, Scenario: ev.Scenario, Reason: ev.Anomaly,
				Phase: ev.Phase, Iter: ev.Iter, Value: ev.Value, Detail: ev.Detail,
			})
		case ledger.KindSolverHealth:
			h.Sparks = append(h.Sparks, HealthSpark{
				Solver: ev.Solver, Scenario: ev.Scenario, Phase: ev.Phase,
				Probes: ev.Count, WorstRes: ev.Value,
				Series: ev.Series, Spark: sparkline(ev.Series),
			})
			h.Probes += int64(ev.Count)
		}
	}
	h.Anomalies = int64(len(h.Findings))
	if metrics != nil {
		// Prefer the registry's tallies: they also cover probed solves whose
		// per-phase series were empty (too few pivots to sample).
		if v, ok := metrics.Counters["lp.health.probes"]; ok && v > 0 {
			h.Probes = v
		}
		if v, ok := metrics.Counters["lp.health.anomalies"]; ok && v > h.Anomalies {
			h.Anomalies = v
		}
		for _, name := range healthQuantileMetrics {
			hist, ok := metrics.Histograms[name]
			if !ok || hist.Count == 0 {
				continue
			}
			h.Quantiles = append(h.Quantiles, QuantileRow{
				Metric: name, Count: hist.Count,
				P50: hist.Quantile(0.50), P90: hist.Quantile(0.90),
				P99: hist.Quantile(0.99), Max: hist.Max,
			})
		}
	}
	if h.Probes == 0 && h.Anomalies == 0 && len(h.Sparks) == 0 {
		return nil
	}
	h.Clean = h.Anomalies == 0
	// Deterministic render order: sparklines by (scenario, solver, phase),
	// findings by (scenario, solver, reason, phase, iter). The ledger's
	// emission order is a schedule-dependent interleaving at Parallelism>1;
	// the sort makes the report byte-identical at any worker count.
	sort.SliceStable(h.Sparks, func(i, j int) bool {
		a, b := h.Sparks[i], h.Sparks[j]
		if a.Scenario != b.Scenario {
			return a.Scenario < b.Scenario
		}
		if a.Solver != b.Solver {
			return a.Solver < b.Solver
		}
		if a.Phase != b.Phase {
			return a.Phase < b.Phase
		}
		// A solver can be probed several times under the same (scenario,
		// solver, phase) key — e.g. the per-scenario phase-1 LPs of one TE
		// solve — so tie-break on content, not emission order, which is a
		// schedule-dependent interleaving.
		if a.Probes != b.Probes {
			return a.Probes < b.Probes
		}
		if a.WorstRes != b.WorstRes {
			return a.WorstRes < b.WorstRes
		}
		return fmt.Sprint(a.Series) < fmt.Sprint(b.Series)
	})
	sort.SliceStable(h.Findings, func(i, j int) bool {
		a, b := h.Findings[i], h.Findings[j]
		if a.Scenario != b.Scenario {
			return a.Scenario < b.Scenario
		}
		if a.Solver != b.Solver {
			return a.Solver < b.Solver
		}
		if a.Reason != b.Reason {
			return a.Reason < b.Reason
		}
		if a.Phase != b.Phase {
			return a.Phase < b.Phase
		}
		if a.Iter != b.Iter {
			return a.Iter < b.Iter
		}
		if a.Value != b.Value {
			return a.Value < b.Value
		}
		return a.Detail < b.Detail
	})
	return h
}

// renderSolverHealth writes the solver-health observatory section.
func renderSolverHealth(w io.Writer, h *SolverHealthReport) {
	fmt.Fprintf(w, "\n## Solver health\n\n")
	verdict := "CLEAN"
	if !h.Clean {
		verdict = "ANOMALOUS"
	}
	fmt.Fprintf(w, "%d health probes, %d anomalies → **%s**.\n", h.Probes, h.Anomalies, verdict)

	if len(h.Findings) > 0 {
		fmt.Fprintf(w, "\n| solver | q | reason | phase | iter | value | detail |\n")
		fmt.Fprintf(w, "|--------|---|--------|-------|------|-------|--------|\n")
		for _, f := range h.Findings {
			fmt.Fprintf(w, "| %s | %d | %s | %d | %d | %.4g | %s |\n",
				f.Solver, f.Scenario, f.Reason, f.Phase, f.Iter, f.Value, f.Detail)
		}
	}

	if len(h.Quantiles) > 0 {
		fmt.Fprintf(w, "\n### Numerical quality percentiles\n\n")
		fmt.Fprintf(w, "| metric | samples | p50 | p90 | p99 | max |\n")
		fmt.Fprintf(w, "|--------|---------|-----|-----|-----|-----|\n")
		for _, q := range h.Quantiles {
			fmt.Fprintf(w, "| %s | %d | %.3g | %.3g | %.3g | %.3g |\n",
				q.Metric, q.Count, q.P50, q.P90, q.P99, q.Max)
		}
	}

	if len(h.Sparks) > 0 {
		fmt.Fprintf(w, "\n### Pivot progress per probed phase\n\n")
		fmt.Fprintf(w, "Objective trajectory at the probe points (downsampled to ≤32); worst ‖Ax−b‖∞ per phase.\n\n")
		fmt.Fprintf(w, "| solver | q | phase | probes | worst residual | objective |\n")
		fmt.Fprintf(w, "|--------|---|-------|--------|----------------|-----------|\n")
		for _, s := range h.Sparks {
			fmt.Fprintf(w, "| %s | %d | %d | %d | %.2e | `%s` |\n",
				s.Solver, s.Scenario, s.Phase, s.Probes, s.WorstRes, s.Spark)
		}
	}
}
