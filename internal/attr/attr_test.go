package attr

import (
	"context"
	"math"
	"reflect"
	"testing"

	"github.com/arrow-te/arrow/internal/availability"
	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/te"
	"github.com/arrow-te/arrow/internal/ticket"
)

// fig7 is the paper's Fig. 7 instance: two parallel IP links carrying two
// flows, one both-links failure scenario with three LotteryTickets.
func fig7() (*te.Network, []te.RestorableScenario) {
	n := &te.Network{
		LinkCap: []float64{400, 800},
		Flows:   []te.Flow{{Src: 0, Dst: 1, Demand: 100}, {Src: 0, Dst: 1, Demand: 400}},
		Tunnels: [][]te.Tunnel{
			{{Links: []int{0}}},
			{{Links: []int{1}}},
		},
	}
	scs := []te.RestorableScenario{{
		FailureScenario: te.FailureScenario{Prob: 0.01, FailedLinks: []int{0, 1}},
		TicketLinks:     []int{0, 1},
		Tickets: []ticket.Ticket{
			{Waves: []int{2, 3}, Gbps: []float64{200, 300}},
			{Waves: []int{1, 4}, Gbps: []float64{100, 400}},
			{Waves: []int{3, 2}, Gbps: []float64{300, 200}},
		},
	}}
	return n, scs
}

// solveFig7 runs ARROW with sensitivity capture and builds the evaluation
// scenarios from the plan's restored capacities.
func solveFig7(t *testing.T) (*te.Network, *te.Allocation, []availability.ScenarioEval) {
	t.Helper()
	n, scs := fig7()
	al, err := te.Arrow(n, scs, &te.ArrowOptions{CaptureSensitivity: true})
	if err != nil {
		t.Fatal(err)
	}
	if al.Sens == nil {
		t.Fatal("CaptureSensitivity left Alloc.Sens nil")
	}
	evScs := []availability.ScenarioEval{{
		Prob: scs[0].Prob, Failed: scs[0].FailedLinks, Restored: scs[0].Restoration(al.WinningTicket[0]),
	}}
	return n, al, evScs
}

func TestDecompositionIdentity(t *testing.T) {
	n, al, scs := solveFig7(t)
	reg := obs.NewRegistry()
	led := ledger.New()
	rep, err := Run(ledger.WithLedger(obs.WithRecorder(context.Background(), reg), led), Input{Net: n, Alloc: al, Scenarios: scs}, nil)
	if err != nil {
		t.Fatal(err)
	}

	// The headline number must match the evaluator's, and the decomposition
	// must reproduce it as an identity.
	ev := &availability.Evaluator{Net: n, Alloc: al}
	if got, want := rep.Availability, ev.Availability(scs); math.Abs(got-want) > 1e-12 {
		t.Fatalf("availability %g, evaluator says %g", got, want)
	}
	if rep.IdentityGap > IdentityTol {
		t.Fatalf("identity gap %g exceeds %g", rep.IdentityGap, IdentityTol)
	}
	if rep.IdentityViolations != 0 {
		t.Fatalf("identity violations %d, want 0", rep.IdentityViolations)
	}
	outer := rep.Healthy.Loss
	for _, sl := range rep.Scenarios {
		outer += sl.Loss
		if math.Abs(sl.Loss-sl.FlowLossSum) > IdentityTol {
			t.Fatalf("scenario %d flow sum %g != loss %g", sl.Scenario, sl.FlowLossSum, sl.Loss)
		}
	}
	if math.Abs(outer-rep.Loss) > IdentityTol {
		t.Fatalf("scenario contributions sum to %g, headline loss %g", outer, rep.Loss)
	}

	snap := reg.Snapshot()
	if snap.Counters["attr.runs"] != 1 || snap.Counters["attr.identity_violations"] != 0 {
		t.Fatalf("counters %v", snap.Counters)
	}
	kinds := map[ledger.Kind]int{}
	for _, e := range led.Events() {
		kinds[e.Kind]++
	}
	if kinds[ledger.KindAttribution] == 0 || kinds[ledger.KindSensitivity] == 0 || kinds[ledger.KindWhatIf] == 0 {
		t.Fatalf("ledger kinds %v, want attribution+sensitivity+whatif", kinds)
	}
}

func TestSensitivitiesMatchFiniteDifferences(t *testing.T) {
	n, al, scs := solveFig7(t)
	rep, err := Run(context.Background(), Input{Net: n, Alloc: al, Scenarios: scs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Sensitivities) == 0 {
		t.Fatal("no sensitivities harvested")
	}
	for _, s := range rep.Sensitivities {
		if !s.Validated {
			t.Errorf("row %s: dual %g outside FD bracket [%g, %g]", s.Row, s.Dual, s.FDLow, s.FDHigh)
		}
		if s.Dual < s.FDLow-1e-6 || s.Dual > s.FDHigh+1e-6 {
			t.Errorf("row %s: dual %g vs bracket [%g, %g] beyond 1e-6", s.Row, s.Dual, s.FDLow, s.FDHigh)
		}
	}
}

func TestProbesRankedAndSideEffectFree(t *testing.T) {
	n, al, scs := solveFig7(t)
	// The attribution pass perturbs the captured model's RHS values; it must
	// restore every one, so a second run from the same handle is identical.
	b0 := append([]float64(nil), al.B...)
	rep1, err := Run(context.Background(), Input{Net: n, Alloc: al, Scenarios: scs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Run(context.Background(), Input{Net: n, Alloc: al, Scenarios: scs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatal("back-to-back attribution runs differ: RHS perturbation leaked")
	}
	if !reflect.DeepEqual(al.B, b0) {
		t.Fatal("attribution mutated the allocation")
	}
	if len(rep1.Probes) == 0 {
		t.Fatal("no probes evaluated")
	}
	for i := 1; i < len(rep1.Probes); i++ {
		if rep1.Probes[i-1].GainPerGbps < rep1.Probes[i].GainPerGbps {
			t.Fatalf("probes not sorted by gain/Gbps at %d: %v", i, rep1.Probes)
		}
	}
	for _, p := range rep1.Probes {
		if p.Kind == "add_capacity" && p.CapacityGbps <= 0 {
			t.Errorf("capacity probe %q spends %g Gbps", p.Label, p.CapacityGbps)
		}
	}
}

// TestCaptureDoesNotChangeAllocation pins the determinism contract at the
// te layer: solving with CaptureSensitivity on and off yields numerically
// identical allocations.
func TestCaptureDoesNotChangeAllocation(t *testing.T) {
	n, scs := fig7()
	plain, err := te.Arrow(n, scs, nil)
	if err != nil {
		t.Fatal(err)
	}
	captured, err := te.Arrow(n, scs, &te.ArrowOptions{CaptureSensitivity: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.B, captured.B) || !reflect.DeepEqual(plain.A, captured.A) ||
		!reflect.DeepEqual(plain.WinningTicket, captured.WinningTicket) {
		t.Fatal("CaptureSensitivity changed the allocation")
	}
	if plain.Sens != nil {
		t.Fatal("plain solve captured a sensitivity handle")
	}
}

// TestListedFlowsIgnoreRoundoff: a flow is listed in a loss breakdown only
// when its unmet demand is more than roundoff of its demand, so nudging one
// allocation entry by an ulp, which leaves a fully delivered flow short by
// roundoff, lists the same flows.
func TestListedFlowsIgnoreRoundoff(t *testing.T) {
	n := &te.Network{
		LinkCap: []float64{1000, 1000, 1000, 40},
		Flows:   []te.Flow{{Demand: 100}, {Demand: 70}, {Demand: 90}},
		Tunnels: [][]te.Tunnel{
			{{Links: []int{0}}, {Links: []int{1}}, {Links: []int{2}}},
			{{Links: []int{1}}, {Links: []int{2}}},
			{{Links: []int{3}}},
		},
	}
	al := &te.Allocation{
		B: []float64{100, 70, 40},
		A: [][]float64{{32.9, 56.4, 23.5}, {0.7, 69.3}, {40}},
	}
	scs := []availability.ScenarioEval{
		{Prob: 0.01, Failed: []int{0}},
		{Prob: 0.02, Failed: []int{2}},
	}
	listed := func(al *te.Allocation) [][]int {
		rep, err := Run(context.Background(), Input{Net: n, Alloc: al, Scenarios: scs}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]int
		for _, sl := range append([]ScenarioLoss{rep.Healthy}, rep.Scenarios...) {
			var fs []int
			for _, fl := range sl.Flows {
				fs = append(fs, fl.Flow)
			}
			out = append(out, fs)
		}
		return out
	}
	want := listed(al)
	if !reflect.DeepEqual(want[0], []int{2}) {
		t.Fatalf("fixture: the healthy state lists flows %v, want [2] alone", want[0])
	}
	ev := &availability.Evaluator{Net: n, Alloc: al}
	short := 0 // nudges that leave a fully delivered flow short by roundoff
	for f := range al.A {
		for ti := range al.A[f] {
			for _, dir := range []float64{0, math.Inf(1)} {
				nudged := &te.Allocation{B: al.B, A: make([][]float64, len(al.A))}
				for g := range al.A {
					nudged.A[g] = append([]float64(nil), al.A[g]...)
				}
				nudged.A[f][ti] = math.Nextafter(al.A[f][ti], dir)
				nev := &availability.Evaluator{Net: n, Alloc: nudged}
				for i := -1; i < len(scs); i++ {
					sc := &availability.ScenarioEval{}
					if i >= 0 {
						sc = &scs[i]
					}
					was, is := ev.DeliveredPerFlow(sc), nev.DeliveredPerFlow(sc)
					for g, d := range is {
						if was[g] == n.Flows[g].Demand && d < was[g] {
							short++
						}
					}
				}
				if got := listed(nudged); !reflect.DeepEqual(got, want) {
					t.Errorf("a_{%d,%d} nudged by an ulp: listed flows %v, want %v", f, ti, got, want)
				}
			}
		}
	}
	if short == 0 {
		t.Fatal("fixture: no nudge leaves a fully delivered flow short by roundoff")
	}
}
