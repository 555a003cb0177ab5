package te_test

import (
	"testing"

	"github.com/arrow-te/arrow/internal/eval"
	"github.com/arrow-te/arrow/internal/race"
	"github.com/arrow-te/arrow/internal/te"
	"github.com/arrow-te/arrow/internal/topo"
	"github.com/arrow-te/arrow/internal/traffic"
)

// b4Fast is the fast B4 instance of the availability sweep and the kernel
// golden: the network at demand scale 1 and the pipeline's restorable
// scenarios.
func b4Fast(tb testing.TB) (*te.Network, []te.RestorableScenario) {
	tb.Helper()
	const seed = 1
	tp, err := topo.B4(seed + 5)
	if err != nil {
		tb.Fatal(err)
	}
	pl, err := eval.BuildPipeline(tp, eval.PipelineOptions{Cutoff: 0.001, NumTickets: 12, Seed: seed, MaxScenarios: 16})
	if err != nil {
		tb.Fatal(err)
	}
	m := traffic.Generate(traffic.Options{Sites: tp.NumRouters(), Count: 1, MaxFlows: 40, TotalGbps: 1, Seed: seed + 7})[0]
	base, err := pl.BaseNetwork(m, 8)
	if err != nil {
		tb.Fatal(err)
	}
	return base, pl.Scenarios
}

// TestArrowOnSweepMatchesReference holds ARROW at the sweep's nine demand
// scales to the three oracles: models equal to the full-scan builders' row
// by row, every Phase II solve started feasible and certified, and the
// surviving plan (winning tickets, restored capacities, objective) equal to
// the one Phase II reached from Phase I's basis.
func TestArrowOnSweepMatchesReference(t *testing.T) {
	if testing.Short() || race.Enabled {
		t.Skip("builds a full pipeline and solves ~200 LPs on one goroutine: 4 s, a minute under the race detector")
	}
	base, scs := b4Fast(t)
	for _, scale := range []float64{1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 7.0} {
		n := base.Scaled(scale)
		for _, check := range []func(*te.Network, []te.RestorableScenario) error{
			te.BuildersMatchReference, te.CheckPhase2Start, te.SameAnswersAsPhase1Start,
		} {
			if err := check(n, scs); err != nil {
				t.Errorf("scale %g: %v", scale, err)
			}
		}
	}
}

// TestPhase2StartsCheap pins what the feasible start buys: on the golden's
// instance the surviving Phase II solve takes 143 pivots; from Phase I's
// basis it took 649, nearly all of them regaining feasibility.
func TestPhase2StartsCheap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a full pipeline")
	}
	base, scs := b4Fast(t)
	al, err := te.Arrow(base.Scaled(3), scs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if al.Stats.Phase2Iters > 200 {
		t.Errorf("phase II took %d pivots, want <= 200", al.Stats.Phase2Iters)
	}
}

// BenchmarkArrowSolve times the full two-phase solve on the golden's
// instance and reports the simplex effort of each phase and the size of the
// Phase II model.
func BenchmarkArrowSolve(b *testing.B) {
	base, scs := b4Fast(b)
	n := base.Scaled(3)
	b.ResetTimer()
	var al *te.Allocation
	for i := 0; i < b.N; i++ {
		var err error
		if al, err = te.Arrow(n, scs, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(al.Stats.Phase2Iters), "phase2-pivots")
	b.ReportMetric(float64(al.Stats.Phase1Iters), "phase1-pivots")
	b.ReportMetric(float64(al.Stats.Phase2Rows), "rows")
}
