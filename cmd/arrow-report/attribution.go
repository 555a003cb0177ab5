package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/arrow-te/arrow/internal/ledger"
)

// AttrScenarioRow is one scenario's availability-loss contribution, joined
// from scenario-level attribution events (scenario -1 = healthy state).
type AttrScenarioRow struct {
	Scenario  int
	Prob      float64
	UnmetGbps float64
	Loss      float64
	// Cut is the scenario's fiber-cut set, joined from the scenario events
	// so the decomposition rows carry the same {f3,f7} labels.
	Cut   []int
	Flows []AttrFlowRow
}

// AttrFlowRow is one flow's contribution within a scenario.
type AttrFlowRow struct {
	Flow      int
	UnmetGbps float64
	Loss      float64
}

// AttrSensitivityRow is one FD-validated shadow price (KindSensitivity).
type AttrSensitivityRow struct {
	Row      string
	Link     int
	Scenario int
	Fiber    int
	Dual     float64
	FDLow    float64
	FDHigh   float64 // 0 when the row had no feasible left step
}

// AttrProbeRow is one evaluated what-if perturbation (KindWhatIf).
type AttrProbeRow struct {
	Label            string
	Link             int
	Fiber            int
	Scenario         int
	CapacityGbps     float64
	AvailabilityGain float64
}

// AttrSimCutRow is one replayed fiber-cut set's time-weighted loss share
// (sim.Runner.AttributeLoss events, Detail "sim_cut").
type AttrSimCutRow struct {
	Mode     string
	Cut      []int
	Hours    float64
	LossFrac float64
}

// AttributionReport is the availability-attribution section of the run
// report, joined from the typed attribution/sensitivity/whatif ledger
// events the internal/attr pass (and the loss-attributing replays) emit.
type AttributionReport struct {
	// Scenarios holds the per-scenario loss decomposition sorted by loss
	// descending (the top-regret table); the healthy state keeps scenario
	// index -1.
	Scenarios     []AttrScenarioRow
	TotalLoss     float64
	Sensitivities []AttrSensitivityRow
	Probes        []AttrProbeRow
	SimCuts       []AttrSimCutRow
}

// buildAttribution joins the attribution event stream into the report
// section. Returns nil when the ledger carries no attribution events (the
// run was not recorded with -attr).
func buildAttribution(snap *ledger.Snapshot) *AttributionReport {
	a := &AttributionReport{}
	byScen := map[int]*AttrScenarioRow{}
	var order []int
	found := false
	for _, ev := range snap.Events {
		switch ev.Kind {
		case ledger.KindAttribution:
			found = true
			switch ev.Detail {
			case "scenario":
				sr := byScen[ev.Scenario]
				if sr == nil {
					sr = &AttrScenarioRow{Scenario: ev.Scenario}
					byScen[ev.Scenario] = sr
					order = append(order, ev.Scenario)
				}
				sr.Prob = ev.Prob
				sr.UnmetGbps = ev.Gbps
				sr.Loss = ev.Fraction
			case "flow":
				if sr := byScen[ev.Scenario]; sr != nil {
					sr.Flows = append(sr.Flows, AttrFlowRow{
						Flow: ev.Flow, UnmetGbps: ev.Gbps, Loss: ev.Fraction,
					})
				}
			case "sim_cut":
				a.SimCuts = append(a.SimCuts, AttrSimCutRow{
					Mode: ev.Mode, Cut: ev.Links,
					Hours: ev.DurSec / 3600, LossFrac: ev.Fraction,
				})
			}
		case ledger.KindSensitivity:
			found = true
			a.Sensitivities = append(a.Sensitivities, AttrSensitivityRow{
				Row: ev.Detail, Link: ev.Link, Scenario: ev.Scenario,
				Fiber: ev.Fiber, Dual: ev.Value, FDLow: ev.FDLow, FDHigh: ev.FDHigh,
			})
		case ledger.KindWhatIf:
			found = true
			a.Probes = append(a.Probes, AttrProbeRow{
				Label: ev.Detail, Link: ev.Link, Fiber: ev.Fiber,
				Scenario: ev.Scenario, CapacityGbps: ev.Gbps,
				AvailabilityGain: ev.Value,
			})
		}
	}
	if !found {
		return nil
	}
	for _, q := range order {
		sr := byScen[q]
		a.Scenarios = append(a.Scenarios, *sr)
		a.TotalLoss += sr.Loss
	}
	// Top-regret ordering: biggest loss contribution first, scenario index
	// ascending on ties (the emit order is scenario-ascending, so the
	// stable sort keeps it as the tie-break).
	sort.SliceStable(a.Scenarios, func(i, j int) bool {
		return a.Scenarios[i].Loss > a.Scenarios[j].Loss
	})
	return a
}

// renderAttribution writes the availability-attribution markdown section.
func renderAttribution(w io.Writer, a *AttributionReport) {
	fmt.Fprintf(w, "\n## Availability attribution\n\n")
	fmt.Fprintf(w, "Loss decomposition over %d states (healthy = scenario -1); contributions sum to the headline availability loss %.3e by identity.\n\n",
		len(a.Scenarios), a.TotalLoss)
	fmt.Fprintf(w, "| scenario | cut | prob | unmet Gbps | loss contribution | top flows (flow:unmet) |\n")
	fmt.Fprintf(w, "|----------|-----|------|------------|-------------------|------------------------|\n")
	for _, sr := range a.Scenarios {
		flows := make([]string, 0, len(sr.Flows))
		for _, fl := range sr.Flows {
			flows = append(flows, fmt.Sprintf("%d:%.1f", fl.Flow, fl.UnmetGbps))
		}
		fs := "-"
		if len(flows) > 0 {
			fs = strings.Join(flows, " ")
		}
		fmt.Fprintf(w, "| %d | %s | %.2e | %.1f | %.3e | %s |\n",
			sr.Scenario, cutLabel(sr.Cut), sr.Prob, sr.UnmetGbps, sr.Loss, fs)
	}

	if len(a.Sensitivities) > 0 {
		fmt.Fprintf(w, "\n### Shadow prices (FD-validated)\n\n")
		fmt.Fprintf(w, "Marginal admitted Gbps per extra Gbps of capacity on the final Phase II basis; fd_low/fd_high are the one-sided finite-difference brackets from warm re-solves (fd_high 0 = no feasible tightening step).\n\n")
		fmt.Fprintf(w, "| row | link | fiber | scenario | dual | fd_low | fd_high |\n")
		fmt.Fprintf(w, "|-----|------|-------|----------|------|--------|--------|\n")
		for _, s := range a.Sensitivities {
			fmt.Fprintf(w, "| %s | %d | %d | %d | %.6g | %.6g | %.6g |\n",
				s.Row, s.Link, s.Fiber, s.Scenario, s.Dual, s.FDLow, s.FDHigh)
		}
	}

	if len(a.Probes) > 0 {
		fmt.Fprintf(w, "\n### What-if probes\n\n")
		fmt.Fprintf(w, "Warm re-solved perturbations ranked by availability gained per unit capacity (drops are analytic and spend none).\n\n")
		fmt.Fprintf(w, "| probe | capacity Gbps | availability gain |\n")
		fmt.Fprintf(w, "|-------|---------------|-------------------|\n")
		for _, p := range a.Probes {
			fmt.Fprintf(w, "| %s | %.1f | %.3e |\n", p.Label, p.CapacityGbps, p.AvailabilityGain)
		}
	}

	if len(a.SimCuts) > 0 {
		fmt.Fprintf(w, "\n### Replay loss by fiber-cut set\n\n")
		fmt.Fprintf(w, "Time-weighted share of lost delivery per distinct cut set in the latency-aware replays.\n\n")
		fmt.Fprintf(w, "| mode | cut | hours | loss share |\n")
		fmt.Fprintf(w, "|------|-----|-------|------------|\n")
		for _, c := range a.SimCuts {
			fmt.Fprintf(w, "| %s | %s | %.1f | %.3e |\n",
				c.Mode, cutLabel(c.Cut), c.Hours, c.LossFrac)
		}
	}
}
