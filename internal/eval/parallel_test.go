package eval

import (
	"context"
	"reflect"
	"testing"

	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/sim"
	"github.com/arrow-te/arrow/internal/topo"
	"github.com/arrow-te/arrow/internal/traffic"
)

// TestBuildPipelineDeterministicAcrossParallelism checks the tentpole
// contract: the worker count must not change the pipeline in any way.
// Per-scenario RNGs are derived from the enumerated scenario index, and
// compaction happens in enumeration order, so Parallelism 1 and 8 must
// produce byte-identical artifacts.
func TestBuildPipelineDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two full pipelines")
	}
	build := func(workers int) *Pipeline {
		t.Helper()
		tp, err := topo.B4(6)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := BuildPipeline(tp, PipelineOptions{
			Cutoff: 0.001, NumTickets: 8, Seed: 1, MaxScenarios: 12, Parallelism: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	seq, par := build(1), build(8)
	if !reflect.DeepEqual(seq.Scenarios, par.Scenarios) {
		t.Error("Scenarios differ between Parallelism 1 and 8")
	}
	if !reflect.DeepEqual(seq.Plain, par.Plain) {
		t.Error("Plain scenarios differ between Parallelism 1 and 8")
	}
	if len(seq.RWAResults) != len(par.RWAResults) {
		t.Fatalf("RWAResults length: %d vs %d", len(seq.RWAResults), len(par.RWAResults))
	}
	for i := range seq.RWAResults {
		if !reflect.DeepEqual(seq.RWAResults[i].Failed, par.RWAResults[i].Failed) ||
			!reflect.DeepEqual(seq.RWAResults[i].FracWaves, par.RWAResults[i].FracWaves) {
			t.Errorf("RWAResults[%d] differs between Parallelism 1 and 8", i)
		}
	}

	// The simulator must be schedule-independent too: same events, same
	// plan, identical report at every worker count.
	m := traffic.Generate(traffic.Options{
		Sites: seq.Topo.NumRouters(), Count: 1, MaxFlows: 40, TotalGbps: 1, Seed: 8,
	})[0]
	base, err := seq.BaseNetwork(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	n := base.Scaled(3)
	al, restored, err := seq.SolveScheme(SchemeArrow, n)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 90 * 24.0
	events := sim.GenerateTimeline(len(seq.Topo.Opt.Fibers), sim.TimelineOptions{
		DurationH: horizon, CutsPerMonth: 8, Seed: 17,
	})
	replay := func(workers int) sim.Report {
		r := sim.NewRunner(n, al, func(cut []int) []int { return seq.Topo.Opt.FailedLinks(cut) },
			seq.Plain, restored)
		return *r.Run(withSettings(context.Background(), 0, workers), events, horizon)
	}
	if r1, r8 := replay(1), replay(8); r1 != r8 {
		t.Errorf("sim reports differ between Parallelism 1 and 8:\n  1: %+v\n  8: %+v", r1, r8)
	}
}

// TestWarmCountersDeterministicAcrossParallelism pins the warm-start
// determinism contract: every warm source is fixed before the solve fans
// out (slack basis for RWA, never "whichever sibling finished first"), so
// the LP pivot and warm-start counters must be identical at every worker
// count — not merely the solutions. A cold (NoWarm) leg pins what the warm
// starts buy: at most 60 % of the cold build's phase-1 pivots.
func TestWarmCountersDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four full pipelines")
	}
	counterKeys := []string{
		"lp.solves", "lp.pivots", "lp.phase1_pivots",
		"lp.warm_starts", "lp.warm_accepted", "lp.warm_repairs",
		"lp.phase1_skipped", "lp.pivots_saved",
	}
	snap := func(workers int, noWarm bool) map[string]int64 {
		t.Helper()
		tp, err := topo.B4(6)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		if _, err := BuildPipelineContext(withSinks(reg, nil, nil), tp, PipelineOptions{
			Cutoff: 0.001, NumTickets: 8, Seed: 1, MaxScenarios: 12,
			Parallelism: workers, NoWarm: noWarm,
		}); err != nil {
			t.Fatal(err)
		}
		counters := reg.Snapshot().Counters
		out := map[string]int64{}
		for _, k := range counterKeys {
			out[k] = counters[k]
		}
		return out
	}
	p1 := snap(1, false)
	if p1["lp.warm_starts"] == 0 || p1["lp.phase1_skipped"] == 0 {
		t.Fatalf("pipeline exercised no warm starts: %v", p1)
	}
	cold := snap(1, true)
	if cold["lp.phase1_pivots"] == 0 {
		t.Fatalf("cold build spent no phase-1 pivots, so the warm-start drop is vacuous: %v", cold)
	}
	if warm, limit := p1["lp.phase1_pivots"], 0.6*float64(cold["lp.phase1_pivots"]); float64(warm) > limit {
		t.Errorf("warm starts no longer cut phase-1 work: %d phase-1 pivots warm vs %d cold, want <= %.0f",
			warm, cold["lp.phase1_pivots"], limit)
	}
	for _, workers := range []int{4, 8} {
		if pw := snap(workers, false); !reflect.DeepEqual(p1, pw) {
			t.Errorf("warm counters differ between Parallelism 1 and %d:\n  1: %v\n  %d: %v",
				workers, p1, workers, pw)
		}
	}
}
