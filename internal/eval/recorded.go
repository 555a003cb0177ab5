package eval

import (
	"github.com/arrow-te/arrow/internal/attr"
	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/te"
	"github.com/arrow-te/arrow/internal/topo"
	"github.com/arrow-te/arrow/internal/traffic"
)

// RunOptions parameterises RunRecorded. The zero value runs the
// standard instance serially with no sinks attached.
type RunOptions struct {
	Seed     int64
	Workers  int
	Recorder obs.Recorder
	Ledger   *ledger.Ledger
	// NoColgen switches the TE solves to full ticket enumeration, the A/B
	// reference for the column-generation default (arrow-report -run
	// -no-colgen).
	NoColgen bool
	// HealthEvery probes every LP solve's numerical health at this pivot
	// period (0 = off); see PipelineOptions.HealthEvery.
	HealthEvery int
	// Profiler attributes the run's wall time and allocations to stages
	// (eval.topo, pipeline.*, eval.prepare, te.*); see
	// PipelineOptions.Profiler. Nil-safe and result-neutral like Recorder.
	Profiler *obs.StageProfiler
	// Attribution runs the post-solve availability-attribution pass
	// (internal/attr) over the solved ARROW allocation: loss decomposition,
	// shadow-price sensitivities and what-if probes, published to Recorder
	// (attr.* counters) and Ledger (attribution/sensitivity/whatif events).
	// The pass runs after the solve, sequentially; pipeline results are
	// byte-identical on or off at any Workers setting.
	Attribution bool
	// MaxCutSize, UseSRLGs, TargetMass and MaxEnumerated opt the run into
	// the correlated k-failure enumerator; NoCompose disables the
	// compositional warm-start stage for multi-fiber cuts. All-zero keeps
	// the legacy enumeration byte-identical (see PipelineOptions).
	MaxCutSize    int
	UseSRLGs      bool
	TargetMass    float64
	MaxEnumerated int
	NoCompose     bool
}

// RunRecorded runs the standard B4 pipeline (cutoff 0.001, 12 tickets, 16
// scenarios) with the options' recorder, ledger and profiler attached, then
// solves the ARROW scheme on a standard traffic matrix so the ledger carries
// the complete decision stream: scenarios, tickets, the two-phase solves with
// certificates, winners and residual demand. The attribution report is nil
// unless opts.Attribution is set. This is the run behind cmd/arrow-report
// -run.
func RunRecorded(opts RunOptions) (*Pipeline, *te.Allocation, *attr.Report, error) {
	seed := opts.Seed
	endTopo := opts.Profiler.Stage("eval.topo")
	tp, err := topo.B4(seed + 5)
	endTopo()
	if err != nil {
		return nil, nil, nil, err
	}
	pl, err := BuildPipeline(tp, PipelineOptions{
		Cutoff: 0.001, NumTickets: 12, Seed: seed, MaxScenarios: 16,
		Parallelism: opts.Workers, Recorder: opts.Recorder, Ledger: opts.Ledger,
		NoColgen: opts.NoColgen, HealthEvery: opts.HealthEvery,
		Profiler: opts.Profiler, CaptureSensitivity: opts.Attribution,
		MaxCutSize: opts.MaxCutSize, UseSRLGs: opts.UseSRLGs,
		TargetMass: opts.TargetMass, MaxEnumerated: opts.MaxEnumerated,
		NoCompose: opts.NoCompose,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	endPrep := opts.Profiler.Stage("eval.prepare")
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
		endAttr := opts.Profiler.Stage("eval.attr")
		rep, err = attr.Run(
			attr.Input{Net: n, Alloc: al, Scenarios: pl.EvalScenarios(restored)},
			&attr.Options{
				LinkFibers: tp.LinkFibers(),
				WaveGbps:   linkWaveGbps(tp),
				Recorder:   opts.Recorder,
				Ledger:     opts.Ledger,
			})
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
