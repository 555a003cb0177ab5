package te

import (
	"math"
	"testing"

	"github.com/arrow-te/arrow/internal/ticket"
)

func TestMaxConcurrentScaleKnown(t *testing.T) {
	// One flow, demand 100, single tunnel of capacity 40: scale = 0.4.
	n := &Network{
		LinkCap: []float64{40},
		Flows:   []Flow{{Src: 0, Dst: 1, Demand: 100}},
		Tunnels: [][]Tunnel{{{Links: []int{0}}}},
	}
	s, err := MaxConcurrentScale(n)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-0.4) > 1e-9 {
		t.Fatalf("scale %g want 0.4", s)
	}
	// Two flows sharing a link: scale set by the joint bottleneck.
	n2 := &Network{
		LinkCap: []float64{60},
		Flows:   []Flow{{Src: 0, Dst: 1, Demand: 100}, {Src: 0, Dst: 1, Demand: 20}},
		Tunnels: [][]Tunnel{{{Links: []int{0}}}, {{Links: []int{0}}}},
	}
	s2, err := MaxConcurrentScale(n2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s2-0.5) > 1e-9 { // 120 * 0.5 = 60
		t.Fatalf("scale %g want 0.5", s2)
	}
}

func TestArrowNoScenariosEqualsMaxThroughput(t *testing.T) {
	n := parallelLinks()
	arrow, err := Arrow(n, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	free, err := MaxThroughput(n)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(arrow.Objective-free.Objective) > 1e-9 {
		t.Fatalf("arrow %g vs max-throughput %g", arrow.Objective, free.Objective)
	}
}

func TestFFCNoScenariosEqualsMaxThroughput(t *testing.T) {
	n := parallelLinks()
	ffc, err := FFC(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ffc.Objective-500) > 1e-9 {
		t.Fatalf("objective %g", ffc.Objective)
	}
}

func TestTeaVaRBadBeta(t *testing.T) {
	n := parallelLinks()
	if _, err := TeaVaR(n, nil, &TeaVaROptions{Beta: 1.0}); err == nil {
		t.Fatal("beta=1 accepted")
	}
}

func TestTeaVaRZeroDemand(t *testing.T) {
	n := parallelLinks()
	n.Flows[0].Demand = 0
	n.Flows[1].Demand = 0
	al, err := TeaVaR(n, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if al.Objective != 0 {
		t.Fatalf("objective %g", al.Objective)
	}
}

func TestArrowRejectsEmptyTicketSet(t *testing.T) {
	n := parallelLinks()
	scs := []RestorableScenario{{
		FailureScenario: FailureScenario{FailedLinks: []int{0}},
		TicketLinks:     []int{0},
	}}
	if _, err := Arrow(n, scs, nil); err == nil {
		t.Fatal("empty ticket set accepted")
	}
}

func TestArrowPhase2WinnerOutOfRange(t *testing.T) {
	n := parallelLinks()
	scs := fig7Scenario()
	if _, err := ArrowPhase2(n, scs, []int{99}, nil); err == nil {
		t.Fatal("out-of-range winner accepted")
	}
	if _, err := ArrowPhase2(n, scs, []int{0, 0}, nil); err == nil {
		t.Fatal("winner length mismatch accepted")
	}
}

func TestZeroRestorationTicketBehavesLikeFFC(t *testing.T) {
	// A ticket restoring nothing must reproduce FFC's guarantee exactly.
	n := &Network{
		LinkCap: []float64{100, 100},
		Flows:   []Flow{{Src: 0, Dst: 1, Demand: 200}},
		Tunnels: [][]Tunnel{{{Links: []int{0}}, {Links: []int{1}}}},
	}
	scs := []RestorableScenario{{
		FailureScenario: FailureScenario{FailedLinks: []int{0}},
		TicketLinks:     []int{0},
		Tickets:         []ticket.Ticket{{Waves: []int{0}, Gbps: []float64{0}}},
	}}
	arrow, err := Arrow(n, scs, nil)
	if err != nil {
		t.Fatal(err)
	}
	ffc, err := FFC(n, []FailureScenario{{FailedLinks: []int{0}}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(arrow.Objective-ffc.Objective) > 1e-9 {
		t.Fatalf("arrow %g vs ffc %g", arrow.Objective, ffc.Objective)
	}
}

func TestRestorableTunnelsSemantics(t *testing.T) {
	// A tunnel crossing TWO failed links is restorable only if BOTH have
	// restored capacity.
	n := &Network{
		LinkCap: []float64{100, 100, 100},
		Flows:   []Flow{{Src: 0, Dst: 2, Demand: 100}},
		Tunnels: [][]Tunnel{{{Links: []int{0, 1}}, {Links: []int{2}}}},
	}
	failed := failedSet(n, []int{0, 1})
	both := restorableTunnels(n, 0, failed, func(l int) float64 { return 50 })
	if len(both) != 1 || both[0] != 0 {
		t.Fatalf("restorable %v, want [0]", both)
	}
	half := restorableTunnels(n, 0, failed, func(l int) float64 {
		if l == 0 {
			return 50
		}
		return 0
	})
	if len(half) != 0 {
		t.Fatalf("restorable %v, want none (link 1 dark)", half)
	}
	res := residualTunnels(n, 0, failed)
	if len(res) != 1 || res[0] != 1 {
		t.Fatalf("residual %v, want [1]", res)
	}
}

func TestBinaryILPRespectsSinglePick(t *testing.T) {
	n := parallelLinks()
	scs := fig7Scenario()
	_, winners, err := BinaryILP(n, scs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(winners) != 1 || winners[0] < 0 || winners[0] >= len(scs[0].Tickets) {
		t.Fatalf("winners %v", winners)
	}
}

func TestSolveStatsPopulated(t *testing.T) {
	n := parallelLinks()
	al, err := Arrow(n, fig7Scenario(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if al.Stats.Phase1Vars == 0 || al.Stats.Phase1Rows == 0 {
		t.Fatalf("phase 1 stats empty: %+v", al.Stats)
	}
	if al.Stats.Phase2Vars == 0 {
		t.Fatalf("phase 2 stats empty: %+v", al.Stats)
	}
}
