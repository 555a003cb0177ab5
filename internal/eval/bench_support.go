package eval

import (
	"github.com/arrow-te/arrow/internal/attr"
	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/te"
	"github.com/arrow-te/arrow/internal/topo"
	"github.com/arrow-te/arrow/internal/traffic"
)

// ResetSweepCache drops the memoised availability sweeps. The
// arrow-experiments -bench-json snapshot uses it so repeated fig13 runs
// measure the computation rather than the cache hit.
func ResetSweepCache() {
	sweepMu.Lock()
	defer sweepMu.Unlock()
	sweepCache = map[sweepKey]*sweepEntry{}
}

// BuildPipelineBench runs one standard B4 offline pipeline build (the same
// instance bench_test.go uses) at the given worker count. It exists so
// cmd/arrow-experiments can time the offline stage without importing test
// code; the result is discarded. noWarm disables LP warm starts and
// noColgen disables ticket column generation, for A/B comparison
// (arrow-experiments -warm=false / -colgen=false).
func BuildPipelineBench(seed int64, workers int, noWarm, noColgen bool) error {
	return BuildPipelineInstrumented(seed, workers, nil, noWarm, noColgen)
}

// BuildPipelineInstrumented is BuildPipelineBench with a metrics recorder
// attached, used by the -bench-json snapshot to embed the solver counters
// of the standard build. A nil recorder reproduces BuildPipelineBench.
func BuildPipelineInstrumented(seed int64, workers int, rec obs.Recorder, noWarm, noColgen bool) error {
	tp, err := topo.B4(seed + 5)
	if err != nil {
		return err
	}
	_, err = BuildPipeline(tp, PipelineOptions{
		Cutoff: 0.001, NumTickets: 12, Seed: seed, MaxScenarios: 16,
		Parallelism: workers, Recorder: rec, NoWarm: noWarm, NoColgen: noColgen,
	})
	return err
}

// BuildStressBench runs one correlated stress build — the stress-scenarios
// experiment's instance (B4 + conduit SRLGs, k-way cuts, zero cutoff) — and
// returns how many scenarios went through the offline stage. The bench
// harness's scenario-stress workload times it and gates on its deterministic
// counters; noCompose builds the cold A/B reference with the compositional
// warm starts disabled.
func BuildStressBench(seed int64, workers int, fast, noCompose bool, rec obs.Recorder) (int, error) {
	tp, err := topo.B4(seed + 5)
	if err != nil {
		return 0, err
	}
	po := stressOptions(Config{Fast: fast, Seed: seed, Parallelism: workers, NoCompose: noCompose}, rec)
	pl, err := BuildPipeline(tp, po)
	if err != nil {
		return 0, err
	}
	return len(pl.Set.Scenarios), nil
}

// RunRecorded runs the standard B4 pipeline (the same instance the bench
// snapshot measures) with a metrics recorder and flight-recorder ledger
// attached, then solves the ARROW scheme on a standard traffic matrix so
// the ledger carries the complete decision stream: scenarios, tickets, the
// two-phase solves with certificates, winners and residual demand. This is
// the default run behind cmd/arrow-report -run. noColgen switches the TE
// solves to full ticket enumeration (arrow-report -run -no-colgen), the A/B
// reference for the column-generation default.
func RunRecorded(seed int64, workers int, rec obs.Recorder, led *ledger.Ledger, noColgen bool) (*Pipeline, *te.Allocation, error) {
	return RunRecordedWith(RunOptions{
		Seed: seed, Workers: workers, Recorder: rec, Ledger: led, NoColgen: noColgen,
	})
}

// RunOptions parameterises RunRecordedWith. The zero value runs the
// standard instance serially with no sinks attached.
type RunOptions struct {
	Seed     int64
	Workers  int
	Recorder obs.Recorder
	Ledger   *ledger.Ledger
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

// RunRecordedWith is RunRecorded with the full option set, notably the
// solver-health probe period behind cmd/arrow-report -run -health-every.
func RunRecordedWith(opts RunOptions) (*Pipeline, *te.Allocation, error) {
	pl, al, _, err := RunRecordedAttr(opts)
	return pl, al, err
}

// RunRecordedAttr is RunRecordedWith plus the attribution report (nil
// unless opts.Attribution is set). This is the run behind
// cmd/arrow-report -run -attr.
func RunRecordedAttr(opts RunOptions) (*Pipeline, *te.Allocation, *attr.Report, error) {
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
