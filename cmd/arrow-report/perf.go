package main

import (
	"fmt"
	"io"

	"github.com/arrow-te/arrow/internal/obs"
)

// StageRow is one attributed pipeline stage in the Performance section.
type StageRow struct {
	Name           string
	Count          int64
	WallSeconds    float64
	Percent        float64 // share of the total bracket (aggregates excluded)
	AllocBytes     uint64
	GCPauseSeconds float64
	Aggregate      bool
}

// PerfReport is the Performance section of a run report: the per-stage
// wall/allocation attribution of this run.
type PerfReport struct {
	TotalSeconds float64
	// Coverage is the fraction of the total bracket attributed to
	// top-level stages: the Percent column adds up to 100 × Coverage, and
	// the remainder ran outside every stage.
	Coverage float64
	Stages   []StageRow
}

// buildPerf converts a stage profile into the report section. Returns nil
// when nothing was profiled.
func buildPerf(sp *obs.StageProfile) *PerfReport {
	if sp == nil || sp.TotalSeconds <= 0 {
		return nil
	}
	p := &PerfReport{TotalSeconds: sp.TotalSeconds, Coverage: sp.Coverage}
	for _, st := range sp.SortedByWall() {
		row := StageRow{
			Name: st.Name, Count: st.Count, WallSeconds: st.WallSeconds,
			AllocBytes: st.AllocBytes, GCPauseSeconds: st.GCPauseSeconds,
			Aggregate: st.Aggregate,
		}
		if !st.Aggregate && sp.TotalSeconds > 0 {
			row.Percent = 100 * st.WallSeconds / sp.TotalSeconds
		}
		p.Stages = append(p.Stages, row)
	}
	return p
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

// renderPerf writes the Performance markdown section.
func renderPerf(w io.Writer, p *PerfReport) {
	fmt.Fprintf(w, "\n## Performance\n\n")
	fmt.Fprintf(w, "Total bracket: %.3fs — top-level stages account for %.1f%% of it.\n\n",
		p.TotalSeconds, 100*p.Coverage)
	fmt.Fprintln(w, "| Stage | Calls | Wall | % of total | Allocated | GC pause |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---:|---:|")
	for _, st := range p.Stages {
		if st.Aggregate {
			fmt.Fprintf(w, "| %s (aggregate) | %d | %.3fs | — | — | — |\n", st.Name, st.Count, st.WallSeconds)
			continue
		}
		fmt.Fprintf(w, "| %s | %d | %.3fs | %.1f%% | %s | %.1fms |\n",
			st.Name, st.Count, st.WallSeconds, st.Percent, fmtBytes(st.AllocBytes), 1000*st.GCPauseSeconds)
	}
}
