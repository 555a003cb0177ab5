package main

import (
	"fmt"
	"io"

	"github.com/arrow-te/arrow/internal/bench"
	"github.com/arrow-te/arrow/internal/obs"
)

// StageRow is one attributed pipeline stage in the Performance section.
type StageRow struct {
	Name           string  `json:"name"`
	Count          int64   `json:"count"`
	WallSeconds    float64 `json:"wall_seconds"`
	Percent        float64 `json:"percent"` // share of the total bracket (aggregates excluded)
	AllocBytes     uint64  `json:"alloc_bytes,omitempty"`
	GCPauseSeconds float64 `json:"gc_pause_seconds,omitempty"`
	Aggregate      bool    `json:"aggregate,omitempty"`
}

// PerfTrend is one workload's median wall time across the benchmark
// history, oldest first, with a unicode sparkline.
type PerfTrend struct {
	Workload string    `json:"workload"`
	Medians  []float64 `json:"medians"`
	Spark    string    `json:"spark"`
	Latest   float64   `json:"latest"`
}

// PerfReport is the Performance section of a run report: the per-stage
// wall/allocation attribution of this run plus, when a benchmark history
// was supplied, per-workload trend sparklines.
type PerfReport struct {
	TotalSeconds float64 `json:"total_seconds"`
	// Coverage is the fraction of the total bracket attributed to
	// top-level stages: the Percent column adds up to 100 × Coverage, and
	// the remainder ran outside every stage.
	Coverage float64     `json:"coverage"`
	Stages   []StageRow  `json:"stages"`
	Trends   []PerfTrend `json:"trends,omitempty"`
}

// buildPerf converts a stage profile (plus optional benchmark history)
// into the report section. Returns nil when nothing was profiled.
func buildPerf(sp *obs.StageProfile, history []bench.Entry) *PerfReport {
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
	p.Trends = buildTrends(history)
	return p
}

// buildTrends extracts per-workload median series from the history,
// oldest entry first, keeping workload order of the latest entry.
func buildTrends(history []bench.Entry) []PerfTrend {
	if len(history) == 0 {
		return nil
	}
	series := map[string][]float64{}
	var order []string
	for _, e := range history {
		for _, r := range e.Results {
			if _, seen := series[r.Workload]; !seen {
				order = append(order, r.Workload)
			}
			series[r.Workload] = append(series[r.Workload], r.MedianSeconds)
		}
	}
	out := make([]PerfTrend, 0, len(order))
	for _, w := range order {
		vs := series[w]
		out = append(out, PerfTrend{
			Workload: w, Medians: vs, Spark: sparkline(vs), Latest: vs[len(vs)-1],
		})
	}
	return out
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
	if len(p.Trends) > 0 {
		fmt.Fprintf(w, "\nBenchmark history (median wall time per workload, oldest → newest):\n\n")
		fmt.Fprintln(w, "| Workload | Trend | Latest |")
		fmt.Fprintln(w, "|---|---|---:|")
		for _, tr := range p.Trends {
			fmt.Fprintf(w, "| %s | `%s` | %.4fs |\n", tr.Workload, tr.Spark, tr.Latest)
		}
	}
}
