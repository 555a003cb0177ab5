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

// RunOptions parameterises RunRecorded. The zero value runs the standard
// instance serially.
type RunOptions struct {
	Seed    int64
	Workers int
	// HealthEvery probes every LP solve's numerical health at this pivot
	// period (0 = off); see PipelineOptions.HealthEvery.
	HealthEvery int
	// Attribution runs the post-solve availability-attribution pass
	// (internal/attr) over the solved ARROW allocation: loss decomposition,
	// shadow-price sensitivities and what-if probes, published to the
	// context's recorder (attr.* counters) and ledger (attribution/
	// sensitivity/whatif events). The pass runs after the solve,
	// sequentially; pipeline results are byte-identical on or off at any
	// Workers setting.
	Attribution bool
	// Space is the run's scenario space (see plan.Space); the zero value
	// plans every single and double fiber cut above the cutoff.
	Space plan.Space
}

// RunRecorded runs the standard B4 pipeline (cutoff 0.001, 12 tickets, 16
// scenarios) under the recorder, ledger and stage profiler attached to ctx,
// then solves the ARROW scheme on a standard traffic matrix so the ledger
// carries the complete decision stream: scenarios, tickets, the two-phase
// solves with certificates, winners and residual demand. The profiler sees
// eval.topo, pipeline.*, eval.prepare, te.* and, with Attribution, eval.attr.
// The attribution report is nil unless opts.Attribution is set. This is the
// run behind cmd/arrow-report -run.
func RunRecorded(ctx context.Context, opts RunOptions) (*Pipeline, *te.Allocation, *attr.Report, error) {
	seed := opts.Seed
	prof := obs.ProfilerFrom(ctx)
	endTopo := prof.Stage("eval.topo")
	tp, err := topo.B4(seed + 5)
	endTopo()
	if err != nil {
		return nil, nil, nil, err
	}
	pl, err := BuildPipelineContext(ctx, tp, PipelineOptions{
		Cutoff: 0.001, NumTickets: 12, Seed: seed, MaxScenarios: 16,
		Parallelism: opts.Workers, HealthEvery: opts.HealthEvery,
		CaptureSensitivity: opts.Attribution, Space: opts.Space,
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
	if opts.Attribution {
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
