package te_test

import (
	"context"
	"testing"

	"github.com/arrow-te/arrow/internal/eval"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/race"
	"github.com/arrow-te/arrow/internal/topo"
	"github.com/arrow-te/arrow/internal/traffic"
)

// TestBaselinesStartFeasible pins the start rule of the baseline LPs on the
// 45 baseline cells of the fast B4 availability sweep (FFC-1, FFC-2, TeaVaR,
// ECMP and Fully-Restorable at its nine demand scales), read off the
// session recorder eval.SolveScheme reports each solve to:
//   - every solve starts from its all-slack basis, accepted with no repair
//     and no fall-back to a cold start;
//   - FFC, ECMP and Fully-Restorable rows all hold at x = 0, so phase 1 is
//     skipped;
//   - TeaVaR's cvar rows are the only ones x = 0 violates, and each costs
//     at most one feasibility pivot (one pivot of theta clears them all:
//     every solve here takes exactly one);
//   - the sweep's pivots stay within what the slack start was measured at
//     (the cold start took FFC 14,277, TeaVaR 13,627 and ECMP 841).
func TestBaselinesStartFeasible(t *testing.T) {
	if testing.Short() || race.Enabled {
		t.Skip("builds a full pipeline and solves 45 LPs")
	}
	const seed = 1
	tp, err := topo.B4(seed + 5)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	pl, err := eval.BuildPipelineContext(obs.WithRecorder(context.Background(), reg), tp,
		eval.PipelineOptions{Cutoff: 0.001, NumTickets: 12, Seed: seed, MaxScenarios: 16})
	if err != nil {
		t.Fatal(err)
	}
	m := traffic.Generate(traffic.Options{Sites: tp.NumRouters(), Count: 1, MaxFlows: 40, TotalGbps: 1, Seed: seed + 7})[0]
	base, err := pl.BaseNetwork(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	cvarRows := int64(len(pl.Plain) + 1) // the healthy scenario's row too

	pivots := map[eval.Scheme]int64{}
	for _, scale := range []float64{1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 7.0} {
		n := base.Scaled(scale)
		for _, s := range []eval.Scheme{eval.SchemeFFC1, eval.SchemeFFC2, eval.SchemeTeaVaR, eval.SchemeECMP, eval.SchemeFullyRest} {
			before := reg.Snapshot().Counters
			if _, _, err := pl.SolveScheme(s, n); err != nil {
				t.Fatalf("%s at scale %g: %v", s, scale, err)
			}
			after := reg.Snapshot().Counters
			d := func(name string) int64 { return after[name] - before[name] }
			if d("lp.solves") != 1 || d("lp.warm_starts") != 1 || d("lp.warm_accepted") != 1 || d("lp.warm_repairs") != 0 {
				t.Errorf("%s at scale %g: %d solves, %d warm starts, %d accepted, %d repairs; want one slack start, accepted unrepaired",
					s, scale, d("lp.solves"), d("lp.warm_starts"), d("lp.warm_accepted"), d("lp.warm_repairs"))
			}
			if s == eval.SchemeTeaVaR {
				if p1 := d("lp.phase1_pivots"); p1 > cvarRows {
					t.Errorf("TeaVaR at scale %g: %d feasibility pivots for %d cvar rows", scale, p1, cvarRows)
				}
			} else if d("lp.phase1_skipped") != 1 || d("lp.phase1_pivots") != 0 {
				t.Errorf("%s at scale %g: phase 1 skipped %d times, %d feasibility pivots; the slack basis is feasible",
					s, scale, d("lp.phase1_skipped"), d("lp.phase1_pivots"))
			}
			pivots[s] += d("lp.pivots")
		}
	}
	t.Logf("sweep pivots: %v", pivots)
	for _, c := range []struct {
		what   string
		got    int64
		budget int64
	}{
		{"FFC-1 + FFC-2", pivots[eval.SchemeFFC1] + pivots[eval.SchemeFFC2], 3700},
		{"TeaVaR", pivots[eval.SchemeTeaVaR], 4219},
		{"ECMP", pivots[eval.SchemeECMP], 355},
		{"Fully-Restorable", pivots[eval.SchemeFullyRest], 753},
	} {
		if c.got > c.budget {
			t.Errorf("%s: %d pivots over the sweep, budget %d", c.what, c.got, c.budget)
		}
	}
}
