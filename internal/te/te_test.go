package te

import (
	"math"
	"testing"

	"github.com/arrow-te/arrow/internal/lp"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/ticket"
)

// parallelLinks builds the IP-layer view of the paper's Fig. 7: two parallel
// IP links between sites B and C. IP1 (link 0) has capacity 400 and carries
// flow 0 (demand 100); IP2 (link 1) has capacity 800 and carries flow 1
// (demand 400). Each flow has a single one-link tunnel.
func parallelLinks() *Network {
	return &Network{
		LinkCap: []float64{400, 800},
		Flows:   []Flow{{0, 1, 100}, {0, 1, 400}},
		Tunnels: [][]Tunnel{
			{{Links: []int{0}}},
			{{Links: []int{1}}},
		},
	}
}

// fig7Scenario attaches the paper's three LotteryTickets to the both-links
// failure: Ticket1 (200,300), Ticket2 (100,400), Ticket3 (300,200).
func fig7Scenario() []RestorableScenario {
	return []RestorableScenario{{
		FailureScenario: FailureScenario{Prob: 0.01, FailedLinks: []int{0, 1}},
		TicketLinks:     []int{0, 1},
		Tickets: []ticket.Ticket{
			{Waves: []int{2, 3}, Gbps: []float64{200, 300}},
			{Waves: []int{1, 4}, Gbps: []float64{100, 400}},
			{Waves: []int{3, 2}, Gbps: []float64{300, 200}},
		},
	}}
}

func TestMaxThroughputSimple(t *testing.T) {
	n := parallelLinks()
	al, err := MaxThroughput(n)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(al.Objective-500) > 1e-6 {
		t.Fatalf("objective %g, want 500", al.Objective)
	}
	if math.Abs(al.Throughput(n)-1) > 1e-9 {
		t.Fatalf("throughput %g", al.Throughput(n))
	}
}

func TestMaxThroughputCapacityBound(t *testing.T) {
	n := parallelLinks()
	n.Flows[1].Demand = 2000 // exceeds IP2's 800
	al, err := MaxThroughput(n)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(al.Objective-900) > 1e-6 { // 100 + 800
		t.Fatalf("objective %g, want 900", al.Objective)
	}
}

func TestArrowPicksWinningTicket(t *testing.T) {
	// The core Fig. 7 claim: with demands (100, 400), ticket 2 = (100,400)
	// is the winner; candidates 1 and 3 are sub-optimal.
	n := parallelLinks()
	scs := fig7Scenario()
	al, err := Arrow(n, scs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(al.WinningTicket) != 1 || al.WinningTicket[0] != 1 {
		t.Fatalf("winning ticket %v, want [1]", al.WinningTicket)
	}
	if math.Abs(al.Objective-500) > 1e-6 {
		t.Fatalf("objective %g, want 500", al.Objective)
	}
	if got := scs[0].Restoration(al.WinningTicket[0]).On(1); got != 400 {
		t.Fatalf("restored capacity on link 1 = %g, want 400", got)
	}
}

func TestArrowThroughputPerTicketMatchesPaper(t *testing.T) {
	// Forcing each candidate reproduces the paper's 400/500/300 Gbps.
	n := parallelLinks()
	scs := fig7Scenario()
	want := []float64{400, 500, 300}
	for z, w := range want {
		al, err := ArrowPhase2(n, scs, []int{z}, nil)
		if err != nil {
			t.Fatalf("ticket %d: %v", z, err)
		}
		if math.Abs(al.Objective-w) > 1e-6 {
			t.Fatalf("ticket %d: objective %g, want %g", z, al.Objective, w)
		}
	}
}

func TestArrowNaiveUsesFirstTicket(t *testing.T) {
	n := parallelLinks()
	scs := fig7Scenario()
	al, err := ArrowNaive(n, scs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(al.Objective-400) > 1e-6 { // ticket (200,300)
		t.Fatalf("objective %g, want 400", al.Objective)
	}
}

func TestArrowMatchesBinaryILP(t *testing.T) {
	n := parallelLinks()
	scs := fig7Scenario()
	lpAl, err := Arrow(n, scs, nil)
	if err != nil {
		t.Fatal(err)
	}
	ilpAl, winners, err := BinaryILP(n, scs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lpAl.Objective-ilpAl.Objective) > 1e-5 {
		t.Fatalf("two-phase %g vs binary ILP %g", lpAl.Objective, ilpAl.Objective)
	}
	if winners[0] != 1 {
		t.Fatalf("ILP winner %v", winners)
	}
}

func TestFFCReservesHeadroom(t *testing.T) {
	// Diamond network: flow can use two link-disjoint tunnels. FFC-1 over
	// single-link failures must keep b_f <= capacity of the surviving
	// tunnel alone.
	n := &Network{
		LinkCap: []float64{100, 100},
		Flows:   []Flow{{0, 1, 200}},
		Tunnels: [][]Tunnel{{{Links: []int{0}}, {Links: []int{1}}}},
	}
	free, err := MaxThroughput(n)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(free.Objective-200) > 1e-6 {
		t.Fatalf("unconstrained %g", free.Objective)
	}
	scs := []FailureScenario{
		{FailedLinks: []int{0}},
		{FailedLinks: []int{1}},
	}
	al, err := FFC(n, scs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(al.Objective-100) > 1e-6 {
		t.Fatalf("FFC objective %g, want 100", al.Objective)
	}
	// Verify the guarantee: each single tunnel covers b alone.
	for ti := range n.Tunnels[0] {
		if al.A[0][ti] < al.B[0]-1e-6 {
			t.Fatalf("tunnel %d allocation %g < b %g", ti, al.A[0][ti], al.B[0])
		}
	}
}

func TestFFC2MoreConservativeThanFFC1(t *testing.T) {
	// Three parallel links/tunnels of 100 each, demand 300.
	n := &Network{
		LinkCap: []float64{100, 100, 100},
		Flows:   []Flow{{0, 1, 300}},
		Tunnels: [][]Tunnel{{{Links: []int{0}}, {Links: []int{1}}, {Links: []int{2}}}},
	}
	singles := []FailureScenario{{FailedLinks: []int{0}}, {FailedLinks: []int{1}}, {FailedLinks: []int{2}}}
	doubles := []FailureScenario{
		{FailedLinks: []int{0, 1}}, {FailedLinks: []int{0, 2}}, {FailedLinks: []int{1, 2}},
	}
	ffc1, err := FFC(n, singles)
	if err != nil {
		t.Fatal(err)
	}
	ffc2, err := FFC(n, append(singles, doubles...))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ffc1.Objective-200) > 1e-6 { // lose one link -> 2x100
		t.Fatalf("ffc1 %g, want 200", ffc1.Objective)
	}
	if math.Abs(ffc2.Objective-100) > 1e-6 { // lose two links -> 1x100
		t.Fatalf("ffc2 %g, want 100", ffc2.Objective)
	}
}

func TestArrowBeatsFFCWithRestoration(t *testing.T) {
	// Same 2-tunnel diamond as TestFFCReservesHeadroom, but ARROW knows each
	// failed link can be 60% restored. Constraint (11) caps each tunnel's
	// reservation at its worst-scenario restored capacity (60), so ARROW
	// guarantees 60 + 60 = 120, still beating FFC-1's 100.
	n := &Network{
		LinkCap: []float64{100, 100},
		Flows:   []Flow{{0, 1, 200}},
		Tunnels: [][]Tunnel{{{Links: []int{0}}, {Links: []int{1}}}},
	}
	scs := []RestorableScenario{
		{
			FailureScenario: FailureScenario{FailedLinks: []int{0}},
			TicketLinks:     []int{0},
			Tickets:         []ticket.Ticket{{Waves: []int{6}, Gbps: []float64{60}}},
		},
		{
			FailureScenario: FailureScenario{FailedLinks: []int{1}},
			TicketLinks:     []int{1},
			Tickets:         []ticket.Ticket{{Waves: []int{6}, Gbps: []float64{60}}},
		},
	}
	al, err := Arrow(n, scs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(al.Objective-120) > 1e-6 {
		t.Fatalf("arrow objective %g, want 120", al.Objective)
	}
}

func TestECMPEqualSplit(t *testing.T) {
	// Two tunnels with asymmetric capacity: ECMP is limited by the smaller.
	n := &Network{
		LinkCap: []float64{50, 200},
		Flows:   []Flow{{0, 1, 300}},
		Tunnels: [][]Tunnel{{{Links: []int{0}}, {Links: []int{1}}}},
	}
	al, err := ECMP(n)
	if err != nil {
		t.Fatal(err)
	}
	// b/2 <= 50 -> b <= 100.
	if math.Abs(al.Objective-100) > 1e-6 {
		t.Fatalf("ecmp objective %g, want 100", al.Objective)
	}
	if math.Abs(al.A[0][0]-al.A[0][1]) > 1e-9 {
		t.Fatalf("unequal split %v", al.A[0])
	}
	opt, err := MaxThroughput(n)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Objective <= al.Objective {
		t.Fatal("optimal TE should beat ECMP here")
	}
}

func TestTeaVaRAvoidsRiskyTunnel(t *testing.T) {
	// Flow with two tunnels; link 0 fails with high probability. TeaVaR at
	// beta=0.9 should shift reservation toward tunnel 1.
	n := &Network{
		LinkCap: []float64{100, 100},
		Flows:   []Flow{{0, 1, 100}},
		Tunnels: [][]Tunnel{{{Links: []int{0}}, {Links: []int{1}}}},
	}
	scs := []FailureScenario{{Prob: 0.2, FailedLinks: []int{0}}}
	al, err := TeaVaR(n, scs, &TeaVaROptions{Beta: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	// Under the failure scenario only tunnel 1 delivers; CVaR at 0.9 is
	// dominated by that scenario, so tunnel 1 must carry the full demand.
	if al.A[0][1] < 100-1e-4 {
		t.Fatalf("tunnel 1 reservation %g, want ~100 (allocations %v)", al.A[0][1], al.A[0])
	}
	if math.Abs(al.B[0]-100) > 1e-4 {
		t.Fatalf("b = %g", al.B[0])
	}
}

func TestJointILPUpperBoundsTwoPhase(t *testing.T) {
	// On the Fig. 7 optical instance the joint ILP should achieve 500
	// (restore 1 wave for IP1 and 4 for IP2), matching ARROW with the
	// optimal ticket present.
	net, opt := fig7Joint(t)
	joint, err := JointILP(&JointInstance{Net: net, Opt: opt, Cuts: [][]int{{0}}, K: 3, AllowTuning: true, AllowModulationChange: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(joint.Objective-500) > 1e-5 {
		t.Fatalf("joint objective %g, want 500", joint.Objective)
	}
	arrow, err := Arrow(net, fig7Scenario(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if arrow.Objective > joint.Objective+1e-6 {
		t.Fatalf("two-phase %g exceeds joint upper bound %g", arrow.Objective, joint.Objective)
	}
	if math.Abs(arrow.Objective-joint.Objective) > 1e-5 {
		t.Fatalf("with the optimal ticket in Z, two-phase %g should match joint %g", arrow.Objective, joint.Objective)
	}
}

func TestJointModelStatsBlowUp(t *testing.T) {
	small := JointModelStats(6, 2, 4, 5, 8, 3, 2, 2, 2)
	big := JointModelStats(1122, 16, 262, 156, 96, 30, 4, 3, 5)
	if small.BinaryVars <= 0 || small.Constraints <= 0 {
		t.Fatalf("small stats %+v", small)
	}
	if big.BinaryVars < 1_000_000 {
		t.Fatalf("big instance binary vars %d, expected blow-up", big.BinaryVars)
	}
	if big.BinaryVars <= small.BinaryVars*1000 {
		t.Fatalf("expected orders-of-magnitude growth: %d vs %d", big.BinaryVars, small.BinaryVars)
	}
}

func TestSplitRatios(t *testing.T) {
	al := &Allocation{A: [][]float64{{30, 70}, {0, 0}}}
	r := al.SplitRatios()
	if math.Abs(r[0][0]-0.3) > 1e-9 || math.Abs(r[0][1]-0.7) > 1e-9 {
		t.Fatalf("ratios %v", r[0])
	}
	if math.Abs(r[1][0]-0.5) > 1e-9 { // zero allocation -> uniform
		t.Fatalf("ratios %v", r[1])
	}
}

func TestValidateCatchesBadInstances(t *testing.T) {
	bad := &Network{LinkCap: []float64{10}, Flows: []Flow{{0, 1, 5}}, Tunnels: [][]Tunnel{}}
	if err := bad.Validate(); err == nil {
		t.Fatal("mismatched tunnels accepted")
	}
	bad2 := &Network{LinkCap: []float64{10}, Flows: []Flow{{0, 1, 5}}, Tunnels: [][]Tunnel{{{Links: []int{3}}}}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("unknown link accepted")
	}
	bad3 := &Network{LinkCap: []float64{10}, Flows: []Flow{{0, 1, 5}}, Tunnels: [][]Tunnel{{}}}
	if err := bad3.Validate(); err == nil {
		t.Fatal("flow without tunnels accepted")
	}
}

func TestScaled(t *testing.T) {
	n := parallelLinks()
	s := n.Scaled(2)
	if s.Flows[0].Demand != 200 || n.Flows[0].Demand != 100 {
		t.Fatal("scaling wrong or aliased")
	}
}

func TestColgenMultiSeed(t *testing.T) {
	// Raising Seeds installs more leading ticket blocks up front; the
	// converged restricted optimum (and the winner) must not move, and the
	// deferred-ticket accounting must recognise every seeded block.
	n := parallelLinks()
	base, err := Arrow(n, fig7Scenario(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, seeds := range []int{0, 2, 3, 99} {
		scs := fig7Scenario()
		scs[0].Seeds = seeds
		reg := obs.NewRegistry()
		al, err := Arrow(n, scs, &ArrowOptions{LP: &lp.Options{Recorder: reg}})
		if err != nil {
			t.Fatalf("seeds=%d: %v", seeds, err)
		}
		if al.WinningTicket[0] != base.WinningTicket[0] {
			t.Fatalf("seeds=%d: winner %v, want %v", seeds, al.WinningTicket, base.WinningTicket)
		}
		if math.Abs(al.Objective-base.Objective) > 1e-9 {
			t.Fatalf("seeds=%d: objective %g, want %g", seeds, al.Objective, base.Objective)
		}
		snap := reg.Snapshot()
		seeded := int64(seeds)
		if seeded < 1 {
			seeded = 1
		}
		if seeded > 3 {
			seeded = 3
		}
		total := seeded + snap.Counters["lp.columns_priced"] + snap.Counters["te.tickets_deferred"]
		if total != 3 {
			t.Fatalf("seeds=%d: seeded %d + priced %d + deferred %d != 3 tickets",
				seeds, seeded, snap.Counters["lp.columns_priced"], snap.Counters["te.tickets_deferred"])
		}
	}
}
