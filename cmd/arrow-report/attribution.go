package main

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"

	"github.com/arrow-te/arrow/internal/ledger"
)

// renderAttribution writes the availability-attribution section from the
// typed events the internal/attr pass (and the loss-attributing replays)
// emit: the per-scenario / per-flow loss decomposition (attribution events,
// Detail "scenario" and "flow"; scenario -1 is the healthy state), the
// FD-validated shadow prices (sensitivity), the ranked what-if probes
// (whatif) and each replayed fiber-cut set's loss share (Detail "sim_cut").
// It writes nothing for a run recorded without -attr.
func renderAttribution(w io.Writer, r *report) {
	var rows, simCuts, sensitivities, probes []ledger.Event
	at := map[int]int{}               // scenario -> its row
	flows := map[int][]ledger.Event{} // scenario -> flow splits
	attributed := false
	for _, ev := range r.events {
		switch ev.Kind {
		case ledger.KindAttribution:
			attributed = true
			switch ev.Detail {
			case "scenario":
				// A repeated scenario keeps its first place and its last values.
				if i, ok := at[ev.Scenario]; ok {
					rows[i] = ev
				} else {
					at[ev.Scenario] = len(rows)
					rows = append(rows, ev)
				}
			case "flow":
				if _, ok := at[ev.Scenario]; ok {
					flows[ev.Scenario] = append(flows[ev.Scenario], ev)
				}
			case "sim_cut":
				simCuts = append(simCuts, ev)
			}
		case ledger.KindSensitivity:
			sensitivities = append(sensitivities, ev)
		case ledger.KindWhatIf:
			probes = append(probes, ev)
		}
	}
	if !attributed && len(sensitivities)+len(probes) == 0 {
		return
	}
	totalLoss := 0.0
	for _, row := range rows {
		totalLoss += row.Fraction
	}
	// Top-regret ordering: biggest loss contribution first, scenario index
	// ascending on ties (the emit order is scenario-ascending, so the stable
	// sort keeps it as the tie-break).
	slices.SortStableFunc(rows, func(a, b ledger.Event) int { return cmp.Compare(b.Fraction, a.Fraction) })
	// The win/loss table's fiber-cut sets label the decomposition rows.
	cuts := map[int][]int{}
	for _, s := range r.scenarios {
		cuts[s.Scenario] = s.Cut
	}

	fmt.Fprintf(w, "\n## Availability attribution\n\n")
	fmt.Fprintf(w, "Loss decomposition over %d states (healthy = scenario -1); contributions sum to the headline availability loss %.3e by identity.\n\n",
		len(rows), totalLoss)
	fmt.Fprintf(w, "| scenario | cut | prob | unmet Gbps | loss contribution | top flows (flow:unmet) |\n")
	fmt.Fprintf(w, "|----------|-----|------|------------|-------------------|------------------------|\n")
	for _, row := range rows {
		top := "-"
		if fl := flows[row.Scenario]; len(fl) > 0 {
			parts := make([]string, len(fl))
			for i, f := range fl {
				parts[i] = fmt.Sprintf("%d:%.1f", f.Flow, f.Gbps)
			}
			top = strings.Join(parts, " ")
		}
		fmt.Fprintf(w, "| %d | %s | %.2e | %.1f | %.3e | %s |\n",
			row.Scenario, cutLabel(cuts[row.Scenario]), row.Prob, row.Gbps, row.Fraction, top)
	}

	if len(sensitivities) > 0 {
		fmt.Fprintf(w, "\n### Shadow prices (FD-validated)\n\n")
		fmt.Fprintf(w, "Marginal admitted Gbps per extra Gbps of capacity on the final Phase II basis; fd_low/fd_high are the one-sided finite-difference brackets from warm re-solves (fd_high 0 = no feasible tightening step).\n\n")
		fmt.Fprintf(w, "| row | link | fiber | scenario | dual | fd_low | fd_high |\n")
		fmt.Fprintf(w, "|-----|------|-------|----------|------|--------|--------|\n")
		for _, s := range sensitivities {
			fmt.Fprintf(w, "| %s | %d | %d | %d | %.6g | %.6g | %.6g |\n",
				s.Detail, s.Link, s.Fiber, s.Scenario, s.Value, s.FDLow, s.FDHigh)
		}
	}

	if len(probes) > 0 {
		fmt.Fprintf(w, "\n### What-if probes\n\n")
		fmt.Fprintf(w, "Warm re-solved perturbations ranked by availability gained per unit capacity (drops are analytic and spend none).\n\n")
		fmt.Fprintf(w, "| probe | capacity Gbps | availability gain |\n")
		fmt.Fprintf(w, "|-------|---------------|-------------------|\n")
		for _, p := range probes {
			fmt.Fprintf(w, "| %s | %.1f | %.3e |\n", p.Detail, p.Gbps, p.Value)
		}
	}

	if len(simCuts) > 0 {
		fmt.Fprintf(w, "\n### Replay loss by fiber-cut set\n\n")
		fmt.Fprintf(w, "Time-weighted share of lost delivery per distinct cut set in the latency-aware replays.\n\n")
		fmt.Fprintf(w, "| mode | cut | hours | loss share |\n")
		fmt.Fprintf(w, "|------|-----|-------|------------|\n")
		for _, c := range simCuts {
			fmt.Fprintf(w, "| %s | %s | %.1f | %.3e |\n", c.Mode, cutLabel(c.Links), c.DurSec/3600, c.Fraction)
		}
	}
}
