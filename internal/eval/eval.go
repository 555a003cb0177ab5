// Package eval is the experiment harness: every table and figure of the
// ARROW paper's evaluation is a registered experiment that regenerates the
// corresponding rows or series from this repository's implementations.
// cmd/arrow-experiments exposes the registry on the command line, and
// bench_test.go wraps the heavy experiments as benchmarks.
package eval

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/par"
	"github.com/arrow-te/arrow/internal/plan"
	"github.com/arrow-te/arrow/internal/topo"
)

// Config controls experiment scale.
type Config struct {
	// Fast shrinks sweeps (fewer matrices, tickets, scales) so the full
	// registry completes on a laptop-class single core. The full
	// configuration matches the paper's parameters where feasible.
	Fast bool
	Seed int64
	// Parallelism is the worker count for the scenario-independent hot
	// loops (pipeline construction, availability sweeps, timeline replay).
	// 0 selects runtime.NumCPU(); 1 restores fully sequential execution.
	// Results are identical for every setting and seed.
	Parallelism int
	// Recorder receives solver and pipeline metrics from every layer an
	// experiment touches: the experiment attaches it to the context its
	// pipelines and solves read their sinks from. A nil Recorder costs
	// nothing and never changes any result.
	Recorder obs.Recorder
	// NoWarm disables LP warm starts in the pipeline RWA solves and ARROW's
	// TE solves; the baseline schemes always start from the all-slack basis.
	// Exposed as arrow-experiments -warm=false; the default keeps warm starts
	// on. The LPs are degenerate, so a cold start can change tickets, winners
	// and throughput (fig14 moves; ROADMAP item 1).
	NoWarm bool
	// HealthEvery probes every LP solve for numerical health at this pivot
	// period (0 = off). Exposed as arrow-experiments -health-every; probes
	// only read solver state and never change any result.
	HealthEvery int
	// Space is the scenario space every experiment pipeline plans (see
	// plan.Space); the zero value plans every single and double fiber cut
	// above the cutoff. Exposed as arrow-experiments -max-cut-size / -srlgs
	// / -target-mass / -max-enumerated / -compose.
	Space plan.Space
}

// ctx is the context an experiment runs under: the session's recorder,
// probe period and worker count attached.
func (c Config) ctx() context.Context {
	return par.WithWorkers(obs.WithHealthEvery(obs.WithRecorder(context.Background(), c.Recorder), c.HealthEvery), c.Parallelism)
}

// pipeline builds an experiment's pipeline under the session: its context,
// solver switches and scenario space, over whatever po sets of the instance.
func (c Config) pipeline(tp *topo.Topology, po PipelineOptions) (*Pipeline, error) {
	po.NoWarm, po.Space = c.NoWarm, c.Space
	return BuildPipelineContext(c.ctx(), tp, po)
}

// Result is one regenerated table or figure.
type Result struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (r *Result) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// AddNote appends a free-text note (paper-vs-measured commentary).
func (r *Result) AddNote(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Experiment is one registered table/figure reproduction.
type Experiment struct {
	ID    string
	Title string
	// PaperClaim summarises what the paper reports, for EXPERIMENTS.md.
	PaperClaim string
	Run        func(cfg Config) (*Result, error)
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// Experiments returns all registered experiments sorted by ID.
func Experiments() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.SliceStable(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RenderText formats a result as an aligned plain-text table.
func RenderText(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", pad))
		}
		b.WriteByte('\n')
	}
	if len(r.Header) > 0 {
		writeRow(r.Header)
		total := 0
		for _, w := range widths {
			total += w + 2
		}
		b.WriteString(strings.Repeat("-", total))
		b.WriteByte('\n')
	}
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func f1(x float64) string { return fmt.Sprintf("%.1f", x) }
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func f4(x float64) string { return fmt.Sprintf("%.4f", x) }
func fi(x int) string     { return fmt.Sprintf("%d", x) }
func pct(x float64) string {
	return fmt.Sprintf("%.1f%%", 100*x)
}

// RenderMarkdown formats a result as a GitHub-flavoured markdown table,
// used to regenerate EXPERIMENTS.md sections.
func RenderMarkdown(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", r.ID, r.Title)
	if len(r.Header) > 0 {
		b.WriteString("| " + strings.Join(r.Header, " | ") + " |\n")
		b.WriteString("|" + strings.Repeat("---|", len(r.Header)) + "\n")
	}
	for _, row := range r.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	if len(r.Notes) > 0 {
		b.WriteByte('\n')
		for _, n := range r.Notes {
			fmt.Fprintf(&b, "> %s\n", n)
		}
	}
	return b.String()
}
