package main

import (
	"fmt"
	"io"
	"slices"

	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/stats"
)

// criticalPathSec mirrors emu.(*Trial).CriticalPathSec over emu_stage
// events: the serial lane plus the slowest concurrent lane, amp_settle spans
// folded into their chain.
func criticalPathSec(stages []ledger.Event) float64 {
	serial := 0.0
	lanes := map[int]float64{}
	for _, st := range stages {
		switch {
		case st.Stage == "amp_settle":
		case st.Lane == 0:
			serial += st.DurSec
		default:
			lanes[st.Lane] += st.DurSec
		}
	}
	slowest := 0.0
	for _, d := range lanes {
		slowest = max(slowest, d)
	}
	return serial + slowest
}

// renderLatency writes the "Restoration latency" section: each emulated
// episode with its per-stage waterfall, the amplifier-settling latency
// distribution (Fig. 20 shape), the legacy/ARROW latency ratio and the
// latency-aware availability replays (mode-tagged sim_summary events). It
// writes nothing for a run with neither episodes nor tagged replays. Stage
// events precede their episode summary, so pending stages attach to the next
// episode. The per-amplifier settle spans are summarised as percentiles
// rather than listed (a legacy episode has dozens); the bundle's ledger keeps
// every span.
func renderLatency(w io.Writer, r *report) {
	var episodes, sims, pending []ledger.Event
	var waterfalls [][]ledger.Event
	var ampSettles []float64
	for _, ev := range r.events {
		switch {
		case ev.Kind == ledger.KindEmuStage:
			pending = append(pending, ev)
			if ev.Stage == "amp_settle" {
				ampSettles = append(ampSettles, ev.DurSec)
			}
		case ev.Kind == ledger.KindEmuEpisode:
			episodes = append(episodes, ev)
			waterfalls = append(waterfalls, pending)
			pending = nil
		case ev.Kind == ledger.KindSimSummary && ev.Mode != "":
			sims = append(sims, ev)
		}
	}
	if len(episodes) == 0 && len(sims) == 0 {
		return
	}

	fmt.Fprintf(w, "\n## Restoration latency\n\n")
	sum, n := map[string]float64{}, map[string]float64{} // episode seconds and count per mode
	if len(episodes) > 0 {
		fmt.Fprintf(w, "| episode | mode | total (s) | restored Gbps | amps settled | stage sum (s) |\n")
		fmt.Fprintf(w, "|---------|------|-----------|---------------|--------------|---------------|\n")
		for i, ep := range episodes {
			fmt.Fprintf(w, "| %d | %s | %.1f | %.0f | %d | %.1f |\n",
				i, ep.Mode, ep.DurSec, ep.Gbps, ep.Count, criticalPathSec(waterfalls[i]))
			sum[ep.Mode] += ep.DurSec
			n[ep.Mode]++
		}
		for i, ep := range episodes {
			fmt.Fprintf(w, "\n### Episode %d waterfall (%s)\n\n", i, ep.Mode)
			fmt.Fprintf(w, "| stage | device | lane | start (s) | duration (s) |\n")
			fmt.Fprintf(w, "|-------|--------|------|-----------|-------------|\n")
			settles := 0
			for _, st := range waterfalls[i] {
				if st.Stage == "amp_settle" {
					settles++
					continue
				}
				fmt.Fprintf(w, "| %s | %s | %d | %.1f | %.1f |\n",
					st.Stage, st.Device, st.Lane, st.StartSec, st.DurSec)
			}
			if settles > 0 {
				fmt.Fprintf(w, "\n%d per-amplifier settle spans folded into their chains (the run bundle's ledger lists each).\n", settles)
			}
		}
	}
	if a := stats.Summarize(ampSettles); a.Count > 0 {
		fmt.Fprintf(w, "\nAmplifier settling over %d amplifiers (Fig. 20 shape): p50 %.1f s, p90 %.1f s, p99 %.1f s (min %.1f, max %.1f, mean %.1f).\n",
			a.Count, a.P50, a.P90, stats.NewCDF(ampSettles).Percentile(99), a.Min, a.Max, a.Mean)
	}
	// Mean legacy episode latency over mean noise-loading latency (paper: 127x).
	if n["legacy"] > 0 && n["noise_loading"] > 0 && sum["noise_loading"] > 0 {
		fmt.Fprintf(w, "\nLegacy / noise-loading latency ratio: **%.0fx** (paper: 1021 s vs 8 s = 127x).\n",
			(sum["legacy"]/n["legacy"])/(sum["noise_loading"]/n["noise_loading"]))
	}
	if len(sims) > 0 {
		fmt.Fprintf(w, "\n### Latency-aware availability replay\n\n")
		fmt.Fprintf(w, "| mode | delivered | full service | restoring (h) | intervals |\n")
		fmt.Fprintf(w, "|------|-----------|--------------|---------------|-----------|\n")
		for _, s := range sims {
			fmt.Fprintf(w, "| %s | %.4f | %.4f | %.2f | %d |\n",
				s.Mode, s.Fraction, s.FullService, s.RestoringH, s.Count)
		}
		mode := func(m string) int { return slices.IndexFunc(sims, func(ev ledger.Event) bool { return ev.Mode == m }) }
		if legacy, arrow := mode("legacy"), mode("noise_loading"); legacy >= 0 && arrow >= 0 {
			verdict := "legacy loses more full-service time than noise loading, as the paper predicts"
			if sims[legacy].FullService >= sims[arrow].FullService {
				verdict = "WARNING: legacy is not worse than noise loading on this timeline"
			}
			fmt.Fprintf(w, "\nSame timeline, same seed, only the restoration-latency model differs: %s.\n", verdict)
		}
	}
}
