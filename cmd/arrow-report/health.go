package main

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"

	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/obs"
)

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

// renderHealth writes the solver-health observatory section: the anomaly
// findings, the numerical-quality percentiles of the lp.health.* histograms
// and each probed phase's pivot-progress sparkline (its objective trajectory,
// downsampled by the ledger to <= 32 points). It writes nothing for a run
// without health probes (-health-every 0, the default).
func renderHealth(w io.Writer, r *report) {
	findings, sparks := r.kind(ledger.KindSolverAnomaly), r.kind(ledger.KindSolverHealth)
	probes, anomalies := int64(0), int64(len(findings))
	for _, ev := range sparks {
		probes += int64(ev.Count)
	}
	m := r.Metrics
	if m == nil {
		m = &obs.Snapshot{}
	}
	// Prefer the registry's tallies: they also cover probed solves whose
	// per-phase series were empty (too few pivots to sample).
	if v := m.Counters["lp.health.probes"]; v > 0 {
		probes = v
	}
	anomalies = max(anomalies, m.Counters["lp.health.anomalies"])
	if probes == 0 && anomalies == 0 && len(sparks) == 0 {
		return
	}
	// Deterministic render order: the ledger's emission order is a
	// schedule-dependent interleaving at Parallelism>1, and the sort makes
	// the report byte-identical at any worker count. A solver can be probed
	// several times under the same (scenario, solver, phase) key — e.g. the
	// per-scenario phase-1 LPs of one TE solve — so sparklines tie-break on
	// content, not emission order.
	slices.SortStableFunc(sparks, func(a, b ledger.Event) int {
		return cmp.Or(cmp.Compare(a.Scenario, b.Scenario), cmp.Compare(a.Solver, b.Solver),
			cmp.Compare(a.Phase, b.Phase), cmp.Compare(a.Count, b.Count), cmp.Compare(a.Value, b.Value),
			cmp.Compare(fmt.Sprint(a.Series), fmt.Sprint(b.Series)))
	})
	slices.SortStableFunc(findings, func(a, b ledger.Event) int {
		return cmp.Or(cmp.Compare(a.Scenario, b.Scenario), cmp.Compare(a.Solver, b.Solver),
			cmp.Compare(a.Anomaly, b.Anomaly), cmp.Compare(a.Phase, b.Phase), cmp.Compare(a.Iter, b.Iter),
			cmp.Compare(a.Value, b.Value), cmp.Compare(a.Detail, b.Detail))
	})

	fmt.Fprintf(w, "\n## Solver health\n\n")
	verdict := "CLEAN"
	if anomalies > 0 {
		verdict = "ANOMALOUS"
	}
	fmt.Fprintf(w, "%d health probes, %d anomalies → **%s**.\n", probes, anomalies, verdict)

	if len(findings) > 0 {
		fmt.Fprintf(w, "\n| solver | q | reason | phase | iter | value | detail |\n")
		fmt.Fprintf(w, "|--------|---|--------|-------|------|-------|--------|\n")
		for _, f := range findings {
			fmt.Fprintf(w, "| %s | %d | %s | %d | %d | %.4g | %s |\n",
				f.Solver, f.Scenario, f.Anomaly, f.Phase, f.Iter, f.Value, f.Detail)
		}
	}

	var quantiles []string
	for _, name := range healthQuantileMetrics {
		if h, ok := m.Histograms[name]; ok && h.Count > 0 {
			quantiles = append(quantiles, fmt.Sprintf("| %s | %d | %.3g | %.3g | %.3g | %.3g |\n",
				name, h.Count, h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.Max))
		}
	}
	if len(quantiles) > 0 {
		fmt.Fprintf(w, "\n### Numerical quality percentiles\n\n")
		fmt.Fprintf(w, "| metric | samples | p50 | p90 | p99 | max |\n")
		fmt.Fprintf(w, "|--------|---------|-----|-----|-----|-----|\n")
		fmt.Fprint(w, strings.Join(quantiles, ""))
	}

	if len(sparks) > 0 {
		fmt.Fprintf(w, "\n### Pivot progress per probed phase\n\n")
		fmt.Fprintf(w, "Objective trajectory at the probe points (downsampled to ≤32); worst ‖Ax−b‖∞ per phase.\n\n")
		fmt.Fprintf(w, "| solver | q | phase | probes | worst residual | objective |\n")
		fmt.Fprintf(w, "|--------|---|-------|--------|----------------|-----------|\n")
		for _, s := range sparks {
			fmt.Fprintf(w, "| %s | %d | %d | %d | %.2e | `%s` |\n",
				s.Solver, s.Scenario, s.Phase, s.Count, s.Value, sparkline(s.Series))
		}
	}
}
