package arrow

import (
	"context"
	"testing"

	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/topo"
)

// TestReactionResolvesWithPlannedSurrogatePaths: a planner asked for five
// surrogate paths per failed link must re-solve a cut with five as well.
// The reaction used to hard-code three, and a ticket planned on the richer
// path set could then not be assigned on the poorer one — silently, because
// the reaction discards AssignIntegral's verdict; the shortfall shows as
// fewer re-lit wavelengths (two reused ports each) than the ticket holds.
func TestReactionResolvesWithPlannedSurrogatePaths(t *testing.T) {
	tp, err := topo.B4(3)
	if err != nil {
		t.Fatal(err)
	}
	net := rebuildThroughBuilder(t, tp)
	probs := make([]float64, net.NumFibers())
	for i := range probs {
		probs[i] = 0.01 // every single cut above the cutoff, every pair below
	}
	planner, err := net.Plan(PlanOptions{Tickets: 6, Cutoff: 1e-3, FailureProbs: probs, SurrogatePaths: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planner.Solve([]Demand{{Src: 0, Dst: 5, Gbps: 100}, {Src: 3, Dst: 9, Gbps: 100}}, SolveOptions{NaiveOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	cuts := 0
	for f := 0; f < net.NumFibers(); f++ {
		failed := net.opt.FailedLinks([]int{f})
		if len(failed) == 0 {
			continue
		}
		cuts++
		re, err := plan.OnFiberCut(FiberID(f))
		if err != nil {
			t.Fatalf("fiber %d: %v", f, err)
		}
		want := 0
		for _, w := range planner.scenarios[planner.byFailed[failedKey(failed)]].Tickets[0].Waves {
			want += 2 * w
		}
		if re.ReusedPorts != want {
			t.Errorf("fiber %d: the reaction re-lights %d ports, the planned ticket %d", f, re.ReusedPorts, want)
		}
	}
	if cuts == 0 {
		t.Fatal("no single-fiber cut fails a link")
	}
}

// TestPlanDrawsNoTicketsWhenNoneAreLeft: with Tickets: 1 the naive ticket
// (and, on the correlated path, the composed one behind it) already fills
// the budget, so the rounding generator must not run: it used to be called
// with a zero or negative count, re-seeding its state to draw nothing and
// subtracting from ticket.rounding_attempts.
func TestPlanDrawsNoTicketsWhenNoneAreLeft(t *testing.T) {
	tp, err := topo.B4(3)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	planner, err := rebuildThroughBuilder(t, tp).PlanContext(obs.WithRecorder(context.Background(), reg),
		PlanOptions{Tickets: 1, Cutoff: 1e-5, MaxCutSize: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if reg.Counter("scenario.warm_from_singles") == 0 {
		t.Fatal("no multi-fiber cut was planned: the instance does not reach the composed path")
	}
	if got := reg.Counter("ticket.rounding_attempts"); got != 0 {
		t.Errorf("ticket.rounding_attempts = %d after planning %d scenarios with Tickets: 1, want 0", got, planner.NumScenarios())
	}
}

// TestPlanContextEmitsSolverHealth: PlanOptions.HealthEvery promises probes
// on the offline RWA solves; with a ledger attached their summaries must
// reach it, tagged with the enumerated scenario like the pipeline's.
func TestPlanContextEmitsSolverHealth(t *testing.T) {
	net, _, _ := buildSquare(t)
	led := ledger.New()
	if _, err := net.PlanContext(ledger.WithLedger(context.Background(), led),
		PlanOptions{Tickets: 4, Cutoff: 1e-4, Seed: 1, HealthEvery: 1}); err != nil {
		t.Fatal(err)
	}
	health := 0
	for _, ev := range led.Events() {
		if ev.Kind == ledger.KindSolverHealth && ev.Solver == "rwa-assign" {
			health++
		}
	}
	if health == 0 {
		t.Error("no solver_health event for the offline RWA solves")
	}
}
