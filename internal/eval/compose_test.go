package eval

import (
	"reflect"
	"strings"
	"testing"

	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/plan"
	"github.com/arrow-te/arrow/internal/topo"
)

// correlatedOpts is the shared correlated-enumerator configuration of the
// compositional-pipeline tests: 3-way cuts, conduit SRLGs, enough kept
// scenarios to include both singles and multi-cuts.
func correlatedOpts(workers int) PipelineOptions {
	return PipelineOptions{
		Cutoff: 1e-5, NumTickets: 6, Seed: 7, MaxScenarios: 24,
		Space:       plan.Space{MaxCutSize: 3, UseSRLGs: true},
		Parallelism: workers,
	}
}

// TestCorrelatedPipelineDeterministicAcrossParallelism extends the worker-
// independence contract to the compositional path: SRLG-expanded 3-way
// enumeration, pre-staged single-cut warm sources and composed seed tickets
// must produce byte-identical pipelines at Parallelism 1, 4 and 8.
func TestCorrelatedPipelineDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three full pipelines")
	}
	build := func(workers int) *Pipeline {
		t.Helper()
		tp, err := topo.B4(6)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := BuildPipeline(tp, correlatedOpts(workers))
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	seq := build(1)
	multi, seeded := 0, 0
	for _, sc := range seq.Scenarios {
		if sc.Seeds > 1 {
			seeded++
		}
	}
	for _, sc := range seq.Set.Scenarios {
		if len(sc.Cut) > 1 {
			multi++
		}
	}
	if multi == 0 || seeded == 0 {
		t.Fatalf("pipeline exercised no compositional scenarios: %d multi-cuts, %d seeded", multi, seeded)
	}
	for _, workers := range []int{4, 8} {
		par := build(workers)
		if !reflect.DeepEqual(seq.Set, par.Set) {
			t.Errorf("scenario set differs between Parallelism 1 and %d", workers)
		}
		if !reflect.DeepEqual(seq.Scenarios, par.Scenarios) {
			t.Errorf("Scenarios differ between Parallelism 1 and %d", workers)
		}
		if len(seq.RWAResults) != len(par.RWAResults) {
			t.Fatalf("RWAResults length: %d vs %d", len(seq.RWAResults), len(par.RWAResults))
		}
		for i := range seq.RWAResults {
			if !reflect.DeepEqual(seq.RWAResults[i].Failed, par.RWAResults[i].Failed) ||
				!reflect.DeepEqual(seq.RWAResults[i].FracWaves, par.RWAResults[i].FracWaves) {
				t.Errorf("RWAResults[%d] differs between Parallelism 1 and %d", i, workers)
			}
		}
	}
}

// TestCorrelatedPairsMatchLegacyPipeline pins the cross-enumerator identity
// end to end: MaxCutSize=2 without SRLGs walks the same singles+pairs
// scenario space as the zero Space, and with composition disabled
// the offline stage issues the same solves — the pipelines must match
// field for field.
func TestCorrelatedPairsMatchLegacyPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two full pipelines")
	}
	tp, err := topo.B4(6)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := BuildPipeline(tp, PipelineOptions{
		Cutoff: 0.001, NumTickets: 8, Seed: 1, MaxScenarios: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	tp2, err := topo.B4(6)
	if err != nil {
		t.Fatal(err)
	}
	correlated, err := BuildPipeline(tp2, PipelineOptions{
		Cutoff: 0.001, NumTickets: 8, Seed: 1, MaxScenarios: 12,
		Space: plan.Space{MaxCutSize: 2, NoCompose: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(legacy.Set, correlated.Set) {
		t.Error("scenario sets differ between legacy and correlated enumerators")
	}
	if !reflect.DeepEqual(legacy.Scenarios, correlated.Scenarios) {
		t.Error("Scenarios differ between legacy and correlated pipelines")
	}
	if !reflect.DeepEqual(legacy.Plain, correlated.Plain) {
		t.Error("Plain scenarios differ between legacy and correlated pipelines")
	}
}

// TestComposeLeavesRWAAlone: the compositional pre-stage decides ticket
// pools, not LP starts. On the same correlated instance, planned with and
// without it, every RWA result is the same and so is every lp.* counter
// (each distinct block is solved once per plan from slack either way);
// only the composed tickets, and the pools around them, differ. Every
// scenario is planned: under a MaxScenarios budget the pre-stage also
// solves singles the budget leaves out, and the counters differ by those.
func TestComposeLeavesRWAAlone(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two full pipelines")
	}
	build := func(noCompose bool) (*Pipeline, map[string]int64) {
		t.Helper()
		tp, err := topo.B4(6)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		opts := correlatedOpts(0)
		opts.MaxScenarios = 0
		opts.Space.NoCompose = noCompose
		pl, err := BuildPipelineContext(withSinks(reg, nil, nil), tp, opts)
		if err != nil {
			t.Fatal(err)
		}
		return pl, reg.Snapshot().Counters
	}
	plain, cold := build(true)
	composed, warm := build(false)
	if warm["scenario.warm_from_singles"] == 0 || cold["scenario.warm_from_singles"] != 0 {
		t.Fatalf("composed-ticket scenarios: %d composed, %d with NoCompose", warm["scenario.warm_from_singles"], cold["scenario.warm_from_singles"])
	}
	if !reflect.DeepEqual(composed.RWAResults, plain.RWAResults) {
		t.Error("the RWA results move with the compositional pre-stage")
	}
	lpCounters := 0
	for name, v := range warm {
		if strings.HasPrefix(name, "lp.") {
			lpCounters++
			if cold[name] != v {
				t.Errorf("%s: %d composed, %d with NoCompose", name, v, cold[name])
			}
		}
	}
	if lpCounters == 0 || warm["rwa.block_hits"] == 0 {
		t.Fatalf("no lp.* counters or no block hits recorded: %v", warm)
	}
	seeded := 0
	for _, sc := range composed.Scenarios {
		if sc.Seeds > 1 {
			seeded++
		}
	}
	if seeded == 0 || reflect.DeepEqual(composed.Scenarios, plain.Scenarios) {
		t.Errorf("%d scenarios seeded with a composed ticket, and the pools do not differ", seeded)
	}
}
