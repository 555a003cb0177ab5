package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/lp"
	"github.com/arrow-te/arrow/internal/session"
	"github.com/arrow-te/arrow/internal/stats"
)

// report is a run bundle plus the one join its plan sections need: the kept
// scenarios in pipeline order, each with its ticket tallies and its winner.
type report struct {
	*session.Bundle
	events    []ledger.Event
	scenarios []scenarioRow
}

// scenarioRow is one kept scenario's scenario event joined with its ticket
// events (tagged with the enumerated index) and its winner event (tagged
// with the pipeline index; nil when the run stopped before the TE solve).
type scenarioRow struct {
	ledger.Event
	generated int
	rejected  map[ledger.RejectReason]int
	winner    *ledger.Event
}

// newReport joins a bundle's ledger. Scenario events provide the
// enum->pipeline mapping, so the tickets of never-kept scenarios are dropped
// (they have no row to land in).
func newReport(b *session.Bundle) *report {
	r := &report{Bundle: b}
	if b.Ledger != nil {
		r.events = b.Ledger.Events
	}
	byEnum := map[int]int{}
	for _, ev := range r.kind(ledger.KindScenario) {
		byEnum[ev.Enum] = len(r.scenarios)
		r.scenarios = append(r.scenarios, scenarioRow{Event: ev, rejected: map[ledger.RejectReason]int{}})
	}
	for i, ev := range r.events {
		q, kept := byEnum[ev.Scenario]
		switch {
		case ev.Kind == ledger.KindTicketGenerated && kept:
			r.scenarios[q].generated++
		case ev.Kind == ledger.KindTicketRejected && kept:
			r.scenarios[q].rejected[ev.Reason]++
		case ev.Kind == ledger.KindWinner && ev.Scenario >= 0 && ev.Scenario < len(r.scenarios):
			r.scenarios[ev.Scenario].winner = &r.events[i]
		}
	}
	return r
}

// kind returns the ledger's events of kind k in emission order.
func (r *report) kind(k ledger.Kind) []ledger.Event {
	var out []ledger.Event
	for _, ev := range r.events {
		if ev.Kind == k {
			out = append(out, ev)
		}
	}
	return out
}

// sections are the report's sections in render order. Each writes its
// section, or nothing when the bundle carries none of that section's data.
var sections = []func(io.Writer, *report){
	renderPlan, renderPricing, renderLatency, renderHealth,
	renderAttribution, renderPerf, renderCertificates, renderCounters,
}

// renderMarkdown writes the human-readable run report.
func renderMarkdown(w io.Writer, r *report) {
	fmt.Fprintf(w, "# ARROW run report\n")
	for _, section := range sections {
		section(w, r)
	}
}

// cutLabel renders a fiber-cut set as a sorted {f3,f7} label ("-" when the
// ledger predates cut recording or the state is healthy).
func cutLabel(cut []int) string {
	if len(cut) == 0 {
		return "-"
	}
	s := append([]int(nil), cut...)
	sort.Ints(s)
	parts := make([]string, len(s))
	for i, f := range s {
		parts[i] = fmt.Sprintf("f%d", f)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// renderPlan writes the scenario header, the ticket win/loss table and the
// restoration summary: the residual unmet demand of the final plan and the
// untagged timeline replays (mode-tagged ones render in the latency section).
// It writes nothing for a ledger without a plan, such as a testbed run's.
func renderPlan(w io.Writer, r *report) {
	enumerated, planned := 0, len(r.scenarios) > 0
	var unmet ledger.Event
	simIntervals, simDelivered := 0, 0.0
	for _, ev := range r.events {
		switch {
		case ev.Kind == ledger.KindEnumerated:
			enumerated, planned = ev.Count, true
		case ev.Kind == ledger.KindUnmetDemand:
			unmet = ev
		case ev.Kind == ledger.KindSimSummary && ev.Mode == "":
			simIntervals += ev.Count
			simDelivered = ev.Fraction
		}
	}
	if !planned {
		return
	}
	fmt.Fprintf(w, "\nScenarios: %d enumerated, %d relevant (kept).\n\n", enumerated, len(r.scenarios))

	fmt.Fprintf(w, "## Ticket win/loss per scenario\n\n")
	fmt.Fprintf(w, "| q | enum | prob | cut | failed links | tickets | generated | infeasible | clash | dup | winner | restored Gbps | restored %% |\n")
	fmt.Fprintf(w, "|---|------|------|-----|--------------|---------|-----------|------------|-------|-----|--------|---------------|-------------|\n")
	var fractions []float64
	for _, s := range r.scenarios {
		winner, restored, frac := "-", "-", "-"
		if s.winner != nil {
			winner = fmt.Sprintf("#%d", s.winner.Ticket)
			restored = fmt.Sprintf("%.1f", s.winner.Gbps)
			frac = fmt.Sprintf("%.1f%%", 100*s.winner.Fraction)
			fractions = append(fractions, s.winner.Fraction)
		}
		fmt.Fprintf(w, "| %d | %d | %.2e | %s | %s | %d | %d | %d | %d | %d | %s | %s | %s |\n",
			s.Scenario, s.Enum, s.Prob, cutLabel(s.Cut), strings.Trim(fmt.Sprint(s.Links), "[]"), s.Count,
			s.generated, s.rejected[ledger.RejectRounding], s.rejected[ledger.RejectSpectrumClash],
			s.rejected[ledger.RejectDuplicate], winner, restored, frac)
	}

	fmt.Fprintf(w, "\n## Restoration summary\n\n")
	rs := stats.Summarize(fractions)
	fmt.Fprintf(w, "Restored-capacity fraction over %d scenarios: min %.3f, p25 %.3f, median %.3f, p75 %.3f, p90 %.3f, max %.3f (mean %.3f).\n",
		rs.Count, rs.Min, rs.P25, rs.P50, rs.P75, rs.P90, rs.Max, rs.Mean)
	fmt.Fprintf(w, "\nResidual unmet demand: %.1f Gbps (%.2f%% of total).\n", unmet.Gbps, 100*unmet.Fraction)
	if simIntervals > 0 {
		fmt.Fprintf(w, "Timeline replay: %d intervals, %.4f time-weighted delivered fraction.\n", simIntervals, simDelivered)
	}
}

// renderPricing writes the column-generation trajectory: one row per sweep
// over the deferred ticket blocks of a Phase I restricted master, with the
// most negative reduced cost seen (0 in the priced-out sweep) and the
// master's size after the sweep ("<vars>v/<rows>r").
func renderPricing(w io.Writer, r *report) {
	rounds := r.kind(ledger.KindPricingRound)
	if len(rounds) == 0 {
		return
	}
	columns := 0
	for _, ev := range rounds {
		columns += ev.Count
	}
	fmt.Fprintf(w, "\n## Pricing (column generation)\n\n")
	fmt.Fprintf(w, "%d sweeps priced %d ticket columns into the restricted Phase I masters; a sweep with 0 columns is the priced-out certificate (the restricted optimum is exact).\n\n",
		len(rounds), columns)
	fmt.Fprintf(w, "| sweep | columns priced | worst reduced cost | master size |\n")
	fmt.Fprintf(w, "|-------|----------------|--------------------|-------------|\n")
	for _, ev := range rounds {
		fmt.Fprintf(w, "| %d | %d | %.6g | %s |\n", ev.Round, ev.Count, ev.Gbps, ev.Detail)
	}
}

// certFailures counts the solves whose certificate fails lp.CheckCertificate
// at the default tolerance; an uncertified solve is not a failure.
func certFailures(r *report) int {
	n := 0
	for _, ev := range r.kind(ledger.KindSolveEnd) {
		if ev.Cert != nil && lp.CheckCertificate(ev.Cert, 0) != nil {
			n++
		}
	}
	return n
}

// renderCertificates writes every LP/MILP solve with its certificate and the
// run's verdict: PASS iff every attached certificate checks.
func renderCertificates(w io.Writer, r *report) {
	solves := r.kind(ledger.KindSolveEnd)
	if len(solves) == 0 {
		return
	}
	certified, failures := 0, certFailures(r)
	var maxGap, maxPrimal, maxDual float64
	for _, ev := range solves {
		if c := ev.Cert; c != nil {
			certified++
			maxGap, maxPrimal, maxDual = max(maxGap, c.Gap), max(maxPrimal, c.PrimalInf), max(maxDual, c.DualInf)
		}
	}
	status := "PASS"
	if failures > 0 {
		status = "FAIL"
	}
	fmt.Fprintf(w, "\n## Solver certificates\n\n")
	fmt.Fprintf(w, "%d solves, %d certified, %d failures → **%s**. Max duality gap %.2e, max primal residual %.2e, max dual residual %.2e (tolerance %.0e).\n\n",
		len(solves), certified, failures, status, maxGap, maxPrimal, maxDual, lp.DefaultCertTol)
	fmt.Fprintf(w, "| solver | status | primal | dual | gap | cert |\n")
	fmt.Fprintf(w, "|--------|--------|--------|------|-----|------|\n")
	for _, ev := range solves {
		c := ev.Cert
		if c == nil {
			fmt.Fprintf(w, "| %s | %s | - | - | - | none |\n", ev.Solver, ev.Status)
			continue
		}
		ok := "ok"
		if lp.CheckCertificate(c, 0) != nil {
			ok = "FAIL"
		}
		fmt.Fprintf(w, "| %s | %s | %.6g | %.6g | %.2e | %s |\n", ev.Solver, ev.Status, c.Primal, c.Dual, c.Gap, ok)
	}
}

// renderCounters writes the bundle's metrics counters in key order.
func renderCounters(w io.Writer, r *report) {
	if r.Metrics == nil {
		return
	}
	fmt.Fprintf(w, "\n## Metrics snapshot (counters)\n\n")
	keys := make([]string, 0, len(r.Metrics.Counters))
	for k := range r.Metrics.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "| counter | value |\n|---------|-------|\n")
	for _, k := range keys {
		fmt.Fprintf(w, "| %s | %d |\n", k, r.Metrics.Counters[k])
	}
}

func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

// renderPerf writes the Performance section: the per-stage wall time,
// allocation and GC-pause deltas of the run, each top-level stage's share of
// the total bracket, and the share the top-level stages cover (the
// percentages add up to it; the remainder ran outside every stage). It
// writes nothing without a stage profile (only arrow-report -run records
// one).
func renderPerf(w io.Writer, r *report) {
	sp := r.Stages
	if sp == nil || sp.TotalSeconds <= 0 {
		return
	}
	fmt.Fprintf(w, "\n## Performance\n\n")
	fmt.Fprintf(w, "Total bracket: %.3fs — top-level stages account for %.1f%% of it.\n\n",
		sp.TotalSeconds, 100*sp.Coverage)
	fmt.Fprintln(w, "| Stage | Calls | Wall | % of total | Allocated | GC pause |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---:|---:|")
	for _, st := range sp.SortedByWall() {
		if st.Aggregate {
			fmt.Fprintf(w, "| %s (aggregate) | %d | %.3fs | — | — | — |\n", st.Name, st.Count, st.WallSeconds)
			continue
		}
		fmt.Fprintf(w, "| %s | %d | %.3fs | %.1f%% | %s | %.1fms |\n", st.Name, st.Count, st.WallSeconds,
			100*st.WallSeconds/sp.TotalSeconds, fmtBytes(st.AllocBytes), 1000*st.GCPauseSeconds)
	}
}
