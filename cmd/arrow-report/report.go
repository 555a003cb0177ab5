package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/lp"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/session"
	"github.com/arrow-te/arrow/internal/stats"
)

// ScenarioReport is one scenario's row of the run report, joined from the
// scenario / ticket / winner events of the ledger.
type ScenarioReport struct {
	// Scenario is the pipeline index, Enum the enumerated (probability-
	// ordered) index ticket events were tagged with.
	Scenario int
	Enum     int
	Prob     float64
	Links    []int
	// Cut is the fiber-cut set behind the scenario (multi-fiber under
	// k-failure/SRLG enumeration); empty on ledgers that predate it.
	Cut []int
	// Tickets is the candidate-set size the TE saw (|Z^q| after filtering).
	Tickets int
	// Generated / rejection tallies from the randomized-rounding stage.
	Generated          int
	RejectedRounding   int
	RejectedSpectrum   int
	RejectedDuplicates int
	// WinningTicket and the restored capacity it revives.
	WinningTicket    int
	RestoredGbps     float64
	RestoredFraction float64
	// HasWinner is false when the ledger carries no winner event for the
	// scenario (e.g. the run stopped before the TE solve).
	HasWinner bool
}

// SolveReport is one LP/MILP solve with its certificate.
type SolveReport struct {
	Solver string
	Status string
	Cert   *lp.Certificate
	// CertOK reports lp.CheckCertificate at the default tolerance.
	CertOK bool
}

// CertSummary aggregates the certificates of a run.
type CertSummary struct {
	Solves     int
	Certified  int
	Failures   int
	MaxGap     float64
	MaxPrimal  float64
	MaxDual    float64
	AllPassing bool
}

// PricingRound is one column-generation sweep over the deferred ticket
// blocks of the Phase I restricted master, from a KindPricingRound event.
type PricingRound struct {
	Round   int
	Columns int
	// WorstRC is the most negative reduced cost seen in the sweep (0 in the
	// final, priced-out sweep).
	WorstRC float64
	// Master is the restricted master's size after the sweep's appends
	// ("<vars>v/<rows>r").
	Master string
}

// PricingReport is the column-generation trajectory of a run: how many
// sweeps the restricted masters needed, how many ticket columns they priced
// in, and how the worst reduced cost decayed toward the priced-out
// certificate.
type PricingReport struct {
	Rounds        int
	ColumnsPriced int
	Trajectory    []PricingRound
}

// RunReport is the rendered artifact of one recorded run.
type RunReport struct {
	Enumerated   int
	Scenarios    []ScenarioReport
	Solves       []SolveReport
	Certificates CertSummary
	// Restoration summarises the restored-capacity fractions of the
	// winning tickets across scenarios (the per-run restoration CDF).
	Restoration stats.Summary
	// UnmetGbps / UnmetFraction is the residual demand of the final plan.
	UnmetGbps     float64
	UnmetFraction float64
	// SimIntervals / SimDelivered summarise untagged sim_summary events, if
	// any (mode-tagged replays land in Latency.Sims instead).
	SimIntervals int
	SimDelivered float64
	// Latency is the restoration-latency observatory section: emulated
	// episode waterfalls, amplifier-settling percentiles, the legacy/ARROW
	// latency ratio and the latency-aware availability comparison. Absent
	// when the ledger recorded no emulated episodes or tagged replays.
	Latency *LatencyReport
	// Pricing is the column-generation section: sweeps, columns priced per
	// sweep and the reduced-cost trajectory. Absent when the ledger carries
	// no pricing events (it predates them).
	Pricing *PricingReport
	// SolverHealth is the solver-health observatory section: anomaly
	// findings, numerical-quality percentiles and per-phase pivot-progress
	// sparklines. Absent when the run carried no health probes
	// (-health-every 0, the default).
	SolverHealth *SolverHealthReport
	// Attribution is the availability-attribution section: the per-scenario
	// / per-flow loss decomposition, FD-validated shadow prices and ranked
	// what-if probes of the internal/attr pass, plus per-cut replay loss
	// shares. Absent when the run carried no attribution events (-attr off).
	Attribution *AttributionReport
	// Performance is the stage-level resource-attribution section: per-stage
	// wall time, allocation and GC-pause deltas of this run with the covered
	// share of the total bracket. Absent when the bundle carries no stage
	// profile (only arrow-report -run records one).
	Performance *PerfReport
	// Metrics embeds the metrics snapshot of the run, when available.
	Metrics *obs.Snapshot
}

// buildReport joins a run bundle into a RunReport. Ticket events are tagged
// with the enumerated scenario index; scenario events provide the
// enum->pipeline mapping, so rejected tickets of never-kept scenarios are
// dropped (they have no row to land in).
func buildReport(b *session.Bundle) *RunReport {
	snap, metrics := b.Ledger, b.Metrics
	if snap == nil {
		snap = &ledger.Snapshot{} // a CLI that records no ledger
	}
	rep := &RunReport{Metrics: metrics, Performance: buildPerf(b.Stages)}

	for _, ev := range snap.Events {
		switch ev.Kind {
		case ledger.KindEnumerated:
			rep.Enumerated = ev.Count
		case ledger.KindScenario:
			rep.Scenarios = append(rep.Scenarios, ScenarioReport{
				Scenario: ev.Scenario, Enum: ev.Enum, Prob: ev.Prob,
				Links: ev.Links, Cut: ev.Cut, Tickets: ev.Count,
			})
		}
	}
	// Index after the append loop so the pointers survive reallocation.
	byEnum := map[int]*ScenarioReport{}
	for i := range rep.Scenarios {
		byEnum[rep.Scenarios[i].Enum] = &rep.Scenarios[i]
	}

	var fractions []float64
	for _, ev := range snap.Events {
		switch ev.Kind {
		case ledger.KindTicketGenerated:
			if sr := byEnum[ev.Scenario]; sr != nil {
				sr.Generated++
			}
		case ledger.KindTicketRejected:
			sr := byEnum[ev.Scenario]
			if sr == nil {
				continue
			}
			switch ev.Reason {
			case ledger.RejectRounding:
				sr.RejectedRounding++
			case ledger.RejectSpectrumClash:
				sr.RejectedSpectrum++
			case ledger.RejectDuplicate:
				sr.RejectedDuplicates++
			}
		case ledger.KindWinner:
			if ev.Scenario >= 0 && ev.Scenario < len(rep.Scenarios) {
				sr := &rep.Scenarios[ev.Scenario]
				sr.WinningTicket = ev.Ticket
				sr.RestoredGbps = ev.Gbps
				sr.RestoredFraction = ev.Fraction
				sr.HasWinner = true
			}
		case ledger.KindSolveEnd:
			s := SolveReport{Solver: ev.Solver, Status: ev.Status, Cert: ev.Cert}
			if ev.Cert != nil {
				s.CertOK = lp.CheckCertificate(ev.Cert, 0) == nil
			}
			rep.Solves = append(rep.Solves, s)
		case ledger.KindPricingRound:
			if rep.Pricing == nil {
				rep.Pricing = &PricingReport{}
			}
			rep.Pricing.Rounds++
			rep.Pricing.ColumnsPriced += ev.Count
			rep.Pricing.Trajectory = append(rep.Pricing.Trajectory, PricingRound{
				Round: ev.Round, Columns: ev.Count, WorstRC: ev.Gbps, Master: ev.Detail,
			})
		case ledger.KindUnmetDemand:
			rep.UnmetGbps = ev.Gbps
			rep.UnmetFraction = ev.Fraction
		case ledger.KindSimSummary:
			if ev.Mode != "" {
				continue // latency-aware replays render in the latency section
			}
			rep.SimIntervals += ev.Count
			rep.SimDelivered = ev.Fraction
		}
	}
	rep.Latency = buildLatency(snap)
	rep.SolverHealth = buildSolverHealth(snap, metrics)
	rep.Attribution = buildAttribution(snap)
	if rep.Attribution != nil {
		// Join the fiber-cut sets onto the loss decomposition so its rows
		// carry the same {f3,f7} labels as the win/loss table.
		cuts := map[int][]int{}
		for _, sr := range rep.Scenarios {
			cuts[sr.Scenario] = sr.Cut
		}
		for i := range rep.Attribution.Scenarios {
			rep.Attribution.Scenarios[i].Cut = cuts[rep.Attribution.Scenarios[i].Scenario]
		}
	}
	for _, sr := range rep.Scenarios {
		if sr.HasWinner {
			fractions = append(fractions, sr.RestoredFraction)
		}
	}
	rep.Restoration = stats.Summarize(fractions)

	cs := &rep.Certificates
	cs.AllPassing = true
	for _, s := range rep.Solves {
		cs.Solves++
		if s.Cert == nil {
			continue
		}
		cs.Certified++
		if !s.CertOK {
			cs.Failures++
			cs.AllPassing = false
		}
		if s.Cert.Gap > cs.MaxGap {
			cs.MaxGap = s.Cert.Gap
		}
		if s.Cert.PrimalInf > cs.MaxPrimal {
			cs.MaxPrimal = s.Cert.PrimalInf
		}
		if s.Cert.DualInf > cs.MaxDual {
			cs.MaxDual = s.Cert.DualInf
		}
	}
	return rep
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

// renderMarkdown writes the human-readable run report.
func renderMarkdown(w io.Writer, rep *RunReport) {
	fmt.Fprintf(w, "# ARROW run report\n\n")
	fmt.Fprintf(w, "Scenarios: %d enumerated, %d relevant (kept).\n\n", rep.Enumerated, len(rep.Scenarios))

	fmt.Fprintf(w, "## Ticket win/loss per scenario\n\n")
	fmt.Fprintf(w, "| q | enum | prob | cut | failed links | tickets | generated | infeasible | clash | dup | winner | restored Gbps | restored %% |\n")
	fmt.Fprintf(w, "|---|------|------|-----|--------------|---------|-----------|------------|-------|-----|--------|---------------|-------------|\n")
	for _, sr := range rep.Scenarios {
		winner := "-"
		restored, frac := "-", "-"
		if sr.HasWinner {
			winner = fmt.Sprintf("#%d", sr.WinningTicket)
			restored = fmt.Sprintf("%.1f", sr.RestoredGbps)
			frac = fmt.Sprintf("%.1f%%", 100*sr.RestoredFraction)
		}
		links := make([]string, len(sr.Links))
		for i, l := range sr.Links {
			links[i] = fmt.Sprint(l)
		}
		fmt.Fprintf(w, "| %d | %d | %.2e | %s | %s | %d | %d | %d | %d | %d | %s | %s | %s |\n",
			sr.Scenario, sr.Enum, sr.Prob, cutLabel(sr.Cut), strings.Join(links, " "), sr.Tickets,
			sr.Generated, sr.RejectedRounding, sr.RejectedSpectrum, sr.RejectedDuplicates,
			winner, restored, frac)
	}

	fmt.Fprintf(w, "\n## Restoration summary\n\n")
	r := rep.Restoration
	fmt.Fprintf(w, "Restored-capacity fraction over %d scenarios: min %.3f, p25 %.3f, median %.3f, p75 %.3f, p90 %.3f, max %.3f (mean %.3f).\n",
		r.Count, r.Min, r.P25, r.P50, r.P75, r.P90, r.Max, r.Mean)
	fmt.Fprintf(w, "\nResidual unmet demand: %.1f Gbps (%.2f%% of total).\n", rep.UnmetGbps, 100*rep.UnmetFraction)
	if rep.SimIntervals > 0 {
		fmt.Fprintf(w, "Timeline replay: %d intervals, %.4f time-weighted delivered fraction.\n", rep.SimIntervals, rep.SimDelivered)
	}

	if p := rep.Pricing; p != nil {
		fmt.Fprintf(w, "\n## Pricing (column generation)\n\n")
		fmt.Fprintf(w, "%d sweeps priced %d ticket columns into the restricted Phase I masters; a sweep with 0 columns is the priced-out certificate (the restricted optimum is exact).\n\n",
			p.Rounds, p.ColumnsPriced)
		fmt.Fprintf(w, "| sweep | columns priced | worst reduced cost | master size |\n")
		fmt.Fprintf(w, "|-------|----------------|--------------------|-------------|\n")
		for _, pr := range p.Trajectory {
			fmt.Fprintf(w, "| %d | %d | %.6g | %s |\n", pr.Round, pr.Columns, pr.WorstRC, pr.Master)
		}
	}

	if rep.Latency != nil {
		renderLatency(w, rep.Latency)
	}
	if rep.SolverHealth != nil {
		renderSolverHealth(w, rep.SolverHealth)
	}
	if rep.Attribution != nil {
		renderAttribution(w, rep.Attribution)
	}
	if rep.Performance != nil {
		renderPerf(w, rep.Performance)
	}

	fmt.Fprintf(w, "\n## Solver certificates\n\n")
	cs := rep.Certificates
	status := "PASS"
	if !cs.AllPassing {
		status = "FAIL"
	}
	fmt.Fprintf(w, "%d solves, %d certified, %d failures → **%s**. Max duality gap %.2e, max primal residual %.2e, max dual residual %.2e (tolerance %.0e).\n\n",
		cs.Solves, cs.Certified, cs.Failures, status, cs.MaxGap, cs.MaxPrimal, cs.MaxDual, lp.DefaultCertTol)
	fmt.Fprintf(w, "| solver | status | primal | dual | gap | cert |\n")
	fmt.Fprintf(w, "|--------|--------|--------|------|-----|------|\n")
	for _, s := range rep.Solves {
		if s.Cert == nil {
			fmt.Fprintf(w, "| %s | %s | - | - | - | none |\n", s.Solver, s.Status)
			continue
		}
		ok := "ok"
		if !s.CertOK {
			ok = "FAIL"
		}
		fmt.Fprintf(w, "| %s | %s | %.6g | %.6g | %.2e | %s |\n",
			s.Solver, s.Status, s.Cert.Primal, s.Cert.Dual, s.Cert.Gap, ok)
	}

	if m := rep.Metrics; m != nil {
		fmt.Fprintf(w, "\n## Metrics snapshot (counters)\n\n")
		keys := make([]string, 0, len(m.Counters))
		for k := range m.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "| counter | value |\n|---------|-------|\n")
		for _, k := range keys {
			fmt.Fprintf(w, "| %s | %d |\n", k, m.Counters[k])
		}
	}
}
