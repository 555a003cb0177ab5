package arrow

import (
	"context"
	"testing"

	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/topo"
)

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
