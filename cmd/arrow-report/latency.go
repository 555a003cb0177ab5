package main

import (
	"fmt"
	"io"

	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/stats"
)

// LatencyStage is one row of an episode's restoration waterfall.
type LatencyStage struct {
	Stage    string
	Device   string
	Lane     int
	StartSec float64
	DurSec   float64
}

// LatencyEpisode is one emulated restoration episode reconstructed from the
// ledger's emu_stage/emu_episode events.
type LatencyEpisode struct {
	Mode         string
	TotalSec     float64
	RestoredGbps float64
	AmpsSettled  int
	// Stages is the full waterfall, including per-amplifier settle spans.
	Stages []LatencyStage
	// StageSumSec is the critical-path stage sum (serial lane plus slowest
	// concurrent lane, amp_settle spans folded into their chain); it equals
	// TotalSec when the waterfall accounts for the whole episode.
	StageSumSec float64
}

// LatencySim is one latency-aware availability replay (a mode-tagged
// sim_summary event).
type LatencySim struct {
	Mode            string
	Delivered       float64
	FullServiceFrac float64
	RestoringHours  float64
	Intervals       int
}

// LatencyReport is the "Restoration latency" section of the run report:
// the per-stage waterfalls, the amplifier-settling latency distribution
// (Fig. 20 shape), the legacy/ARROW latency ratio, and the latency-aware
// availability comparison.
type LatencyReport struct {
	Episodes []LatencyEpisode
	// AmpSettle summarises per-amplifier settle durations across episodes;
	// AmpSettleP99 extends the summary to the tail percentile.
	AmpSettle    stats.Summary
	AmpSettleP99 float64
	// LatencyRatio is mean legacy episode latency over mean noise-loading
	// episode latency (0 when either mode is absent; paper: 127x).
	LatencyRatio float64
	Sims         []LatencySim
}

// criticalPathSec mirrors emu.(*Trial).CriticalPathSec over report rows.
func criticalPathSec(stages []LatencyStage) float64 {
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
		if d > slowest {
			slowest = d
		}
	}
	return serial + slowest
}

// buildLatency reconstructs the latency section from a ledger stream, or
// returns nil when the run recorded no emulated episodes and no
// latency-aware replays. Stage events precede their episode summary, so
// pending stages attach to the next episode event of the same mode.
func buildLatency(snap *ledger.Snapshot) *LatencyReport {
	lr := &LatencyReport{}
	var pending []LatencyStage
	var ampSettles []float64
	for _, ev := range snap.Events {
		switch ev.Kind {
		case ledger.KindEmuStage:
			pending = append(pending, LatencyStage{
				Stage: ev.Stage, Device: ev.Device, Lane: ev.Lane,
				StartSec: ev.StartSec, DurSec: ev.DurSec,
			})
			if ev.Stage == "amp_settle" {
				ampSettles = append(ampSettles, ev.DurSec)
			}
		case ledger.KindEmuEpisode:
			ep := LatencyEpisode{
				Mode: ev.Mode, TotalSec: ev.DurSec, RestoredGbps: ev.Gbps,
				AmpsSettled: ev.Count, Stages: pending,
			}
			ep.StageSumSec = criticalPathSec(ep.Stages)
			lr.Episodes = append(lr.Episodes, ep)
			pending = nil
		case ledger.KindSimSummary:
			if ev.Mode == "" {
				continue // untagged replays belong to the main report
			}
			lr.Sims = append(lr.Sims, LatencySim{
				Mode: ev.Mode, Delivered: ev.Fraction,
				FullServiceFrac: ev.FullService, RestoringHours: ev.RestoringH,
				Intervals: ev.Count,
			})
		}
	}
	if len(lr.Episodes) == 0 && len(lr.Sims) == 0 {
		return nil
	}
	lr.AmpSettle = stats.Summarize(ampSettles)
	if cdf := stats.NewCDF(ampSettles); cdf.Len() > 0 {
		lr.AmpSettleP99 = cdf.Percentile(99)
	}
	var legacySum, legacyN, arrowSum, arrowN float64
	for _, ep := range lr.Episodes {
		switch ep.Mode {
		case "legacy":
			legacySum += ep.TotalSec
			legacyN++
		case "noise_loading":
			arrowSum += ep.TotalSec
			arrowN++
		}
	}
	if legacyN > 0 && arrowN > 0 && arrowSum > 0 {
		lr.LatencyRatio = (legacySum / legacyN) / (arrowSum / arrowN)
	}
	return lr
}

// renderLatency writes the markdown "Restoration latency" section. The
// per-amplifier settle spans are summarised as percentiles rather than
// listed (a legacy episode has dozens); the bundle's ledger keeps every span.
func renderLatency(w io.Writer, lr *LatencyReport) {
	fmt.Fprintf(w, "\n## Restoration latency\n\n")
	if len(lr.Episodes) > 0 {
		fmt.Fprintf(w, "| episode | mode | total (s) | restored Gbps | amps settled | stage sum (s) |\n")
		fmt.Fprintf(w, "|---------|------|-----------|---------------|--------------|---------------|\n")
		for i, ep := range lr.Episodes {
			fmt.Fprintf(w, "| %d | %s | %.1f | %.0f | %d | %.1f |\n",
				i, ep.Mode, ep.TotalSec, ep.RestoredGbps, ep.AmpsSettled, ep.StageSumSec)
		}
		for i, ep := range lr.Episodes {
			fmt.Fprintf(w, "\n### Episode %d waterfall (%s)\n\n", i, ep.Mode)
			fmt.Fprintf(w, "| stage | device | lane | start (s) | duration (s) |\n")
			fmt.Fprintf(w, "|-------|--------|------|-----------|-------------|\n")
			settles := 0
			for _, st := range ep.Stages {
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
	if lr.AmpSettle.Count > 0 {
		a := lr.AmpSettle
		fmt.Fprintf(w, "\nAmplifier settling over %d amplifiers (Fig. 20 shape): p50 %.1f s, p90 %.1f s, p99 %.1f s (min %.1f, max %.1f, mean %.1f).\n",
			a.Count, a.P50, a.P90, lr.AmpSettleP99, a.Min, a.Max, a.Mean)
	}
	if lr.LatencyRatio > 0 {
		fmt.Fprintf(w, "\nLegacy / noise-loading latency ratio: **%.0fx** (paper: 1021 s vs 8 s = 127x).\n", lr.LatencyRatio)
	}
	if len(lr.Sims) > 0 {
		fmt.Fprintf(w, "\n### Latency-aware availability replay\n\n")
		fmt.Fprintf(w, "| mode | delivered | full service | restoring (h) | intervals |\n")
		fmt.Fprintf(w, "|------|-----------|--------------|---------------|-----------|\n")
		for _, s := range lr.Sims {
			fmt.Fprintf(w, "| %s | %.4f | %.4f | %.2f | %d |\n",
				s.Mode, s.Delivered, s.FullServiceFrac, s.RestoringHours, s.Intervals)
		}
		if legacy, arrow := findSim(lr.Sims, "legacy"), findSim(lr.Sims, "noise_loading"); legacy != nil && arrow != nil {
			verdict := "legacy loses more full-service time than noise loading, as the paper predicts"
			if legacy.FullServiceFrac >= arrow.FullServiceFrac {
				verdict = "WARNING: legacy is not worse than noise loading on this timeline"
			}
			fmt.Fprintf(w, "\nSame timeline, same seed, only the restoration-latency model differs: %s.\n", verdict)
		}
	}
}

func findSim(sims []LatencySim, mode string) *LatencySim {
	for i := range sims {
		if sims[i].Mode == mode {
			return &sims[i]
		}
	}
	return nil
}
