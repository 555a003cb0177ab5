package eval

import (
	"testing"

	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/plan"
	"github.com/arrow-te/arrow/internal/topo"
)

// TestStageProfilingPreservesDeterminism is the performance observatory's
// core guarantee: attaching a StageProfiler must not change a single byte
// of any pipeline artifact or TE allocation, at any worker count. The
// profiled builds at Parallelism 1, 4 and 8 are compared against the
// unprofiled Parallelism-1 baseline, and the profiler must actually have
// attributed the run (stages present, non-zero wall time) or the
// comparison proves nothing.
func TestStageProfilingPreservesDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds several full pipelines")
	}
	build := func(workers int, prof *obs.StageProfiler) *Pipeline {
		t.Helper()
		tp, err := topo.B4(6)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := BuildPipelineContext(withSinks(nil, nil, prof), tp, PipelineOptions{
			Cutoff: 0.001, NumTickets: 8, Seed: 1, MaxScenarios: 12,
			Parallelism: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}

	baseline := build(1, nil)
	want := pipelineFingerprint(baseline)
	for _, workers := range []int{1, 4, 8} {
		prof := obs.NewStageProfiler()
		endTotal := prof.Total()
		pl := build(workers, prof)
		endTotal()
		if got := pipelineFingerprint(pl); got != want {
			t.Errorf("profiled pipeline at %d workers differs from unprofiled baseline", workers)
		}
		sp := prof.Snapshot()
		stages := map[string]obs.StageRecord{}
		for _, st := range sp.Stages {
			stages[st.Name] = st
		}
		for _, name := range []string{"pipeline.graph", "pipeline.enumerate", "pipeline.offline", "rwa.solve", "ticket.generate"} {
			if stages[name].Count == 0 {
				t.Errorf("workers=%d: stage %q never recorded; have %v", workers, name, sp.Stages)
			}
		}
		if stages["pipeline.offline"].WallSeconds <= 0 {
			t.Errorf("workers=%d: pipeline.offline recorded no wall time", workers)
		}
		if stages["rwa.solve"].Aggregate != true {
			t.Errorf("workers=%d: rwa.solve should be an aggregate stage", workers)
		}
		if sp.TotalSeconds <= 0 || sp.Coverage <= 0 {
			t.Errorf("workers=%d: total %.3fs coverage %.3f, want both > 0", workers, sp.TotalSeconds, sp.Coverage)
		}
	}

	// The TE solve must be equally oblivious: same allocation with the
	// profiler threaded through SolveScheme (te.phase1/te.phase2 stages).
	runOnce := func(prof *obs.StageProfiler) *pipelineSolve {
		pl, al, _, err := RunRecorded(withSettings(withSinks(nil, nil, prof), 0, 2), 1, plan.Space{}, false)
		if err != nil {
			t.Fatal(err)
		}
		return &pipelineSolve{fp: pipelineFingerprint(pl), b: al.B, winners: al.WinningTicket}
	}
	plain := runOnce(nil)
	prof := obs.NewStageProfiler()
	profiled := runOnce(prof)
	if plain.fp != profiled.fp {
		t.Error("recorded run's pipeline differs with a profiler attached")
	}
	if len(plain.b) != len(profiled.b) {
		t.Fatalf("allocation size differs: %d vs %d", len(plain.b), len(profiled.b))
	}
	for i := range plain.b {
		if plain.b[i] != profiled.b[i] {
			t.Fatalf("allocation b[%d] differs: %v vs %v", i, plain.b[i], profiled.b[i])
		}
	}
	for i := range plain.winners {
		if plain.winners[i] != profiled.winners[i] {
			t.Fatalf("winning ticket %d differs: %d vs %d", i, plain.winners[i], profiled.winners[i])
		}
	}
	sp := prof.Snapshot()
	found := map[string]bool{}
	for _, st := range sp.Stages {
		found[st.Name] = true
	}
	for _, name := range []string{"eval.topo", "eval.prepare", "te.phase1", "te.phase2", "te.pricing"} {
		if !found[name] {
			t.Errorf("recorded run missing stage %q; have %v", name, sp.Stages)
		}
	}
}

type pipelineSolve struct {
	fp      string
	b       []float64
	winners []int
}
