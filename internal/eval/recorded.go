package eval

import (
	"context"

	"github.com/arrow-te/arrow/internal/attr"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/plan"
	"github.com/arrow-te/arrow/internal/te"
	"github.com/arrow-te/arrow/internal/topo"
	"github.com/arrow-te/arrow/internal/traffic"
)

// RunRecorded runs the standard B4 pipeline (cutoff 0.001, 12 tickets, 16
// scenarios) over the scenario space, under the sinks, probe period and
// worker budget attached to ctx, then solves the ARROW scheme on a standard
// traffic matrix so the ledger carries the complete decision stream:
// scenarios, tickets, the two-phase solves with certificates, winners and
// residual demand. The profiler sees eval.topo, pipeline.*, eval.prepare,
// te.* and, with attribution, eval.attr: the availability-attribution pass
// (internal/attr: loss decomposition, shadow-price sensitivities, what-if
// probes, published as attr.* counters and ledger events) run sequentially
// after the solve. Results are byte-identical with or without it, which
// alone returns a report. This is the run behind cmd/arrow-report -run.
func RunRecorded(ctx context.Context, seed int64, space plan.Space, attribution bool) (*Pipeline, *te.Allocation, *attr.Report, error) {
	prof := obs.ProfilerFrom(ctx)
	endTopo := prof.Stage("eval.topo")
	tp, err := topo.B4(seed + 5)
	endTopo()
	if err != nil {
		return nil, nil, nil, err
	}
	pl, err := BuildPipelineContext(ctx, tp, PipelineOptions{
		Cutoff: 0.001, NumTickets: 12, Seed: seed, MaxScenarios: 16,
		CaptureSensitivity: attribution, Space: space,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	endPrep := prof.Stage("eval.prepare")
	m := traffic.Generate(traffic.Options{
		Sites: tp.NumRouters(), Count: 1, MaxFlows: 40, TotalGbps: 1, Seed: seed + 7,
	})[0]
	base, err := pl.BaseNetwork(m, 8)
	endPrep()
	if err != nil {
		return nil, nil, nil, err
	}
	n := base.Scaled(3)
	al, restored, err := pl.SolveScheme(SchemeArrow, n)
	if err != nil {
		return nil, nil, nil, err
	}
	var rep *attr.Report
	if attribution {
		endAttr := prof.Stage("eval.attr")
		rep, err = attr.Run(ctx,
			attr.Input{Net: n, Alloc: al, Scenarios: pl.EvalScenarios(restored)},
			&attr.Options{LinkFibers: tp.LinkFibers(), WaveGbps: linkWaveGbps(tp)})
		endAttr()
		if err != nil {
			return nil, nil, nil, err
		}
	}
	return pl, al, rep, nil
}

// linkWaveGbps derives each IP link's "+1 wavelength" probe granularity
// from its provisioned lightpaths (capacity / wavelength count).
func linkWaveGbps(tp *topo.Topology) []float64 {
	out := make([]float64, len(tp.Opt.IPLinks))
	for i, l := range tp.Opt.IPLinks {
		if len(l.Waves) > 0 {
			out[i] = l.CapacityGbps() / float64(len(l.Waves))
		}
	}
	return out
}
