package te_test

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/arrow-te/arrow/internal/eval"
	"github.com/arrow-te/arrow/internal/lp"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/race"
	"github.com/arrow-te/arrow/internal/te"
	"github.com/arrow-te/arrow/internal/ticket"
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

// TestTicketBlocksShareBySupport holds Phase I's blocks, built once per
// set of failed links a ticket lights, to the blocks each ticket builds
// alone: on a constructed scenario whose tickets restore one link with 0, a
// negative and a NaN capacity and which lists a failed link twice, on the
// sweep's B4 instance and on the online benchmark's Facebook instance.
func TestTicketBlocksShareBySupport(t *testing.T) {
	n := &te.Network{
		LinkCap: []float64{100, 100, 100},
		Flows:   []te.Flow{{Src: 0, Dst: 1, Demand: 50}, {Src: 1, Dst: 2, Demand: 50}},
		Tunnels: [][]te.Tunnel{
			{{Links: []int{0}}, {Links: []int{1}}, {Links: []int{2}}},
			{{Links: []int{0, 1}}, {Links: []int{2}}},
		},
	}
	nan := math.NaN()
	tk := func(g0, g1 float64) ticket.Ticket { return ticket.Ticket{Waves: []int{1, 1}, Gbps: []float64{g0, g1}} }
	constructed := []te.RestorableScenario{{
		FailureScenario: te.FailureScenario{Prob: 0.01, FailedLinks: []int{0, 1, 0}},
		TicketLinks:     []int{0, 1},
		Tickets:         []ticket.Ticket{tk(100, 0), tk(200, -50), tk(100, nan), tk(50, 100), tk(0, nan), tk(-1, 0), tk(nan, 300), tk(0, 0)},
	}}
	tickets, built, err := te.TicketBlocksMatchPerTicket(n, constructed)
	if err != nil {
		t.Fatal(err)
	}
	if tickets != 8 || built != 4 {
		t.Errorf("constructed scenario: %d tickets, %d blocks built; want 8 and 4", tickets, built)
	}
	if testing.Short() {
		return
	}
	b4, b4Scs := b4Fast(t)
	fb, fbScs := facebookOnline(t)
	for _, c := range []struct {
		name string
		n    *te.Network
		scs  []te.RestorableScenario
	}{{"b4-fast", b4, b4Scs}, {"facebook", fb, fbScs}} {
		tickets, built, err := te.TicketBlocksMatchPerTicket(c.n, c.scs)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		t.Logf("%s: %d scenarios, %d tickets, %d blocks built", c.name, len(c.scs), tickets, built)
		if built >= tickets {
			t.Errorf("%s: %d blocks built for %d tickets: no two tickets share one", c.name, built, tickets)
		}
	}
}

// facebookOnline is the online benchmark's Facebook instance as the eval
// pipeline builds it: topo.Facebook with seed 6, cutoff 2e-4 and 12
// tickets, one matrix of 120 flows over 8 tunnels each.
func facebookOnline(tb testing.TB) (*te.Network, []te.RestorableScenario) {
	tb.Helper()
	const seed = 1
	tp, err := topo.Facebook(seed + 5)
	if err != nil {
		tb.Fatal(err)
	}
	pl, err := eval.BuildPipeline(tp, eval.PipelineOptions{Cutoff: 2e-4, NumTickets: 12, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	m := traffic.Generate(traffic.Options{Sites: tp.NumRouters(), Count: 1, MaxFlows: 120, TotalGbps: 1, Seed: seed + 7})[0]
	base, err := pl.BaseNetwork(m, 8)
	if err != nil {
		tb.Fatal(err)
	}
	return base, pl.Scenarios
}

// TestFallbackKeptCounted holds te.fallback_kept to its meaning at the
// sweep's demand scales: one count for each solve whose plan is the
// all-ticket-0 Phase II although Phase I picked other winners.
func TestFallbackKeptCounted(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a full pipeline")
	}
	base, scs := b4Fast(t)
	allZero := func(ws []int) bool { return !slices.ContainsFunc(ws, func(w int) bool { return w != 0 }) }
	kept := 0
	for _, scale := range []float64{1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0} {
		n := base.Scaled(scale)
		reg := obs.NewRegistry()
		al, err := te.Arrow(n, scs, &te.ArrowOptions{LP: &lp.Options{Recorder: reg}})
		if err != nil {
			t.Fatal(err)
		}
		winners, err := te.ArrowPhase1(n, scs, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		if allZero(al.WinningTicket) && !allZero(winners) {
			want = 1
		}
		if got := reg.Counter("te.fallback_kept"); got != want {
			t.Errorf("scale %g: te.fallback_kept %d, want %d (phase I winners %v, plan %v)", scale, got, want, winners, al.WinningTicket)
		}
		kept += int(want)
	}
	if kept == 0 || kept == 7 {
		t.Errorf("the all-ticket-0 plan kept at %d of 7 scales: one branch of the count is untested", kept)
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

// TestArrowNaiveIsArrowsTicketZeroPhase2 holds ArrowAndNaive to Arrow and
// ArrowNaive bit for bit: its ARROW allocation is Arrow's and its naive one
// is ArrowNaive's (objective, every b_f and a_{f,t}, winners, restored
// capacities, Phase II stats and certificate). The sweep's B4 instance at
// its nine scales takes the branch where some Phase I winner is not ticket
// 0, so the naive allocation is Arrow's fallback solve; the same scenarios
// cut to their first ticket (|Z| = 1) take the one where every winner is,
// so it is the winners' own solve.
func TestArrowNaiveIsArrowsTicketZeroPhase2(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a full pipeline")
	}
	base, scs := b4Fast(t)
	firstOnly := make([]te.RestorableScenario, len(scs))
	for qi, q := range scs {
		firstOnly[qi] = q
		firstOnly[qi].Tickets = q.Tickets[:1]
		firstOnly[qi].Seeds = 1
	}
	branches := map[bool]int{} // all winners ticket 0 → solves seen
	for _, in := range []struct {
		name string
		scs  []te.RestorableScenario
	}{{"b4", scs}, {"b4 |Z|=1", firstOnly}} {
		for _, scale := range []float64{1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 7.0} {
			n := base.Scaled(scale)
			arrow, naive, err := te.ArrowAndNaive(n, in.scs, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantArrow, err := te.Arrow(n, in.scs, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantNaive, err := te.ArrowNaive(n, in.scs, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(arrow, wantArrow) {
				t.Errorf("%s scale %g: ArrowAndNaive's ARROW allocation is not Arrow's", in.name, scale)
			}
			if !reflect.DeepEqual(naive, wantNaive) {
				t.Errorf("%s scale %g: ArrowAndNaive's naive allocation is not ArrowNaive's:\n%+v\nvs\n%+v", in.name, scale, naive, wantNaive)
			}
			if &naive.B[0] == &arrow.B[0] {
				t.Errorf("%s scale %g: the naive allocation shares Arrow's B", in.name, scale)
			}
			winners, err := te.ArrowPhase1(n, in.scs, nil)
			if err != nil {
				t.Fatal(err)
			}
			branches[!slices.ContainsFunc(winners, func(w int) bool { return w != 0 })]++
		}
	}
	if branches[true] == 0 || branches[false] == 0 {
		t.Errorf("all winners ticket 0 on %d solves, some other on %d: one branch is untested", branches[true], branches[false])
	}
}
