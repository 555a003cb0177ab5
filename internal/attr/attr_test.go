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
