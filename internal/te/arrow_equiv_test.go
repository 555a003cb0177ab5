package te

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/lp"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/ticket"
)

// randomArrowInstance draws a network (2-40 flows, 1-8 tunnels each over
// shared links, some tunnels looping back over a link) and scenarios with
// everything the incidence index has to get right: 1-4 failed links,
// sometimes a link outside the network, one repeated, or none at all; and
// tickets that restore all, some or none of them, sometimes leaving a
// failed link out of TicketLinks altogether.
func randomArrowInstance(rng *rand.Rand) (*Network, []RestorableScenario) {
	links := 3 + rng.Intn(14)
	n := &Network{LinkCap: make([]float64, links+1)} // the last link carries no tunnel
	for e := range n.LinkCap {
		n.LinkCap[e] = 50 + 450*rng.Float64()
	}
	for f, flows := 0, 2+rng.Intn(39); f < flows; f++ {
		n.Flows = append(n.Flows, Flow{Src: f, Dst: f + 1, Demand: 20 + 200*rng.Float64()})
		var ts []Tunnel
		for t, tunnels := 0, 1+rng.Intn(8); t < tunnels; t++ {
			path := rng.Perm(links)[:1+rng.Intn(min(4, links))]
			if rng.Intn(5) == 0 {
				path = append(path, path[0]) // back over its first link
			}
			ts = append(ts, Tunnel{Links: path})
		}
		n.Tunnels = append(n.Tunnels, ts)
	}

	var scs []RestorableScenario
	for q, cuts := 0, 1+rng.Intn(6); q < cuts; q++ {
		failed := rng.Perm(links)[:1+rng.Intn(min(4, links))]
		switch rng.Intn(8) {
		case 0:
			failed = append(failed, links+1, -1) // no such link, either side of the range
		case 1:
			failed = append(failed, failed[0], links) // a repeat, and the link no tunnel uses
		case 2:
			failed = nil
		}
		sc := RestorableScenario{
			FailureScenario: FailureScenario{Prob: 0.02 * rng.Float64(), FailedLinks: failed},
			TicketLinks:     failed,
		}
		if len(failed) > 1 && rng.Intn(4) == 0 {
			sc.TicketLinks = failed[1:]
		}
		for z, tickets := 0, 1+rng.Intn(5); z < tickets; z++ {
			tk := ticket.Ticket{Waves: make([]int, len(sc.TicketLinks)), Gbps: make([]float64, len(sc.TicketLinks))}
			kind := rng.Intn(4) // 0: all dark, 1: all lit, otherwise a mix
			for i := range tk.Waves {
				if kind == 1 || (kind > 1 && rng.Intn(2) == 0) {
					tk.Waves[i] = 1 + rng.Intn(4)
					tk.Gbps[i] = 100 * float64(tk.Waves[i])
				}
			}
			sc.Tickets = append(sc.Tickets, tk)
		}
		scs = append(scs, sc)
	}
	return n, scs
}

// TestArrowBuildersMatchFullScan holds the indexed builders to the
// full-scan reference on seeded random instances: reference loads, ticket
// blocks, both Phase I masters and both Phase II models, row by row.
func TestArrowBuildersMatchFullScan(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		n, scs := randomArrowInstance(rand.New(rand.NewSource(seed)))
		if err := buildersMatchReference(n, scs); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestCrossIndex pins the index itself: a tunnel is listed once under a
// link however often it crosses it, in ascending (flow, tunnel) order.
func TestCrossIndex(t *testing.T) {
	n := &Network{
		LinkCap: []float64{100, 100, 100},
		Flows:   []Flow{{Src: 0, Dst: 1, Demand: 10}, {Src: 1, Dst: 2, Demand: 10}},
		Tunnels: [][]Tunnel{
			{{Links: []int{1, 0, 1}}, {Links: []int{0}}},
			{{Links: []int{1, 1}}},
		},
	}
	bm := newBaseModel("t", n)
	want := [][]tunnelRef{{{0, 0}, {0, 1}}, {{0, 0}, {1, 0}}, nil}
	if !reflect.DeepEqual(bm.cross, want) {
		t.Fatalf("cross = %v, want %v", bm.cross, want)
	}
	// One term per tunnel in the load rows too, as the full scan's break has it.
	scs := []RestorableScenario{{FailureScenario: FailureScenario{FailedLinks: []int{1}}}}
	if got := viewRefLoads(callView(n, scs, nil), bm)[0][0]; !reflect.DeepEqual(got, lp.Expr{{Var: bm.a[0][0], Coef: 1}, {Var: bm.a[1][0], Coef: 1}}) {
		t.Fatalf("reference load over link 1 = %v", got)
	}
}

// TestBuildersAddNoRowWhereNothingIsLost walks the cases that must leave no
// trace in a model: a failed link outside the network, a scenario that
// fails nothing, a flow no failed link touches, and a flow left with
// neither a residual nor a restorable tunnel. Loads with no term stay nil,
// not empty, so len(load) > 0 guards and DeepEqual keep their meaning.
func TestBuildersAddNoRowWhereNothingIsLost(t *testing.T) {
	n := &Network{
		LinkCap: []float64{100, 100, 100, 100},
		Flows:   []Flow{{Src: 0, Dst: 1, Demand: 50}, {Src: 1, Dst: 2, Demand: 50}, {Src: 2, Dst: 3, Demand: 50}},
		Tunnels: [][]Tunnel{
			{{Links: []int{0}}, {Links: []int{1}}}, // loses tunnel 0 when link 0 fails
			{{Links: []int{2}}},                    // never touched
			{{Links: []int{0}}},                    // disconnected when link 0 fails dark
		},
	}
	dark := []ticket.Ticket{{Waves: []int{0}, Gbps: []float64{0}}}
	scs := []RestorableScenario{
		{FailureScenario: FailureScenario{FailedLinks: []int{0, 4, -1}}, TicketLinks: []int{0}, Tickets: dark},
		{FailureScenario: FailureScenario{}, Tickets: []ticket.Ticket{{}}},
		{FailureScenario: FailureScenario{FailedLinks: []int{3}}, TicketLinks: []int{3}, Tickets: dark},
	}
	if err := buildersMatchReference(n, scs); err != nil {
		t.Fatal(err)
	}
	bm := newBaseModel("t", n)
	v := callView(n, scs, nil)
	refLoad := viewRefLoads(v, bm)
	for _, k := range [][2]int{{0, 1}, {0, 2}, {2, 0}} {
		if load := refLoad[k[0]][k[1]]; load != nil {
			t.Errorf("reference load of scenario %d's failed link #%d = %v, want nil", k[0], k[1], load)
		}
	}
	blk := viewBlock(v, bm, 0, 0)
	if len(blk.covers) != 1 || blk.covers[0].f != 0 || blk.load != nil {
		t.Errorf("scenario 0 block = %+v, want flow 0's cover alone and a nil load", blk)
	}
	for qi := 1; qi < len(scs); qi++ {
		if blk := viewBlock(v, bm, qi, 0); blk.covers != nil || blk.load != nil {
			t.Errorf("scenario %d block = %+v, want nothing", qi, blk)
		}
	}
	al, err := ArrowPhase2(n, scs, []int{0, 0, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := al.Stats.Phase2Rows, bm.m.NumConstrs()+1; got != want {
		t.Errorf("phase II has %d rows, want the base model's and flow 0's cover: %d", got, want)
	}
}

// phase2Solves runs solve with a fresh registry and ledger and returns what
// its Phase II solves recorded: the counters net of phase1 (the same
// instance's Phase I alone, nil when solve runs none) and the statuses of
// the arrow-phase2 warm_start events.
func phase2Solves(solve func(*ArrowOptions) (*Allocation, error), noWarm bool, phase1 map[string]int64) (*Allocation, map[string]int64, []string, error) {
	reg, L := obs.NewRegistry(), ledger.New()
	al, err := solve(&ArrowOptions{LP: &lp.Options{Recorder: reg}, Ledger: L, NoWarm: noWarm})
	if err != nil {
		return nil, nil, nil, err
	}
	c := reg.Snapshot().Counters
	for k, v := range phase1 {
		c[k] -= v
	}
	var starts []string
	for _, ev := range L.Events() {
		if ev.Kind == ledger.KindWarmStart && ev.Solver == "arrow-phase2" {
			starts = append(starts, ev.Status)
		}
	}
	return al, c, starts, nil
}

// checkPhase2Start holds every Phase II solve Arrow, ArrowNaive and
// ArrowPhase2 make on the instance to the feasible start: accepted with no
// repair, the simplex's feasibility phase skipped and not one pivot spent
// in it; the optimum certified and equal to a cold solve of the same model;
// and with NoWarm no warm start recorded or reported at all.
func checkPhase2Start(n *Network, scs []RestorableScenario) error {
	p1 := obs.NewRegistry()
	winners, _, err := arrowPhase1Dispatch(n, scs, &ArrowOptions{LP: &lp.Options{Recorder: p1}})
	if err != nil {
		return err
	}
	for _, run := range []struct {
		name   string
		phase1 map[string]int64
		solve  func(*ArrowOptions) (*Allocation, error)
	}{
		{"Arrow", p1.Snapshot().Counters, func(o *ArrowOptions) (*Allocation, error) { return Arrow(n, scs, o) }},
		{"ArrowNaive", nil, func(o *ArrowOptions) (*Allocation, error) { return ArrowNaive(n, scs, o) }},
		{"ArrowPhase2", nil, func(o *ArrowOptions) (*Allocation, error) { return ArrowPhase2(n, scs, winners, o) }},
	} {
		al, c, starts, err := phase2Solves(run.solve, false, run.phase1)
		if err != nil {
			return fmt.Errorf("%s: %w", run.name, err)
		}
		solves := c["lp.solves"]
		if solves < 1 || c["lp.warm_starts"] != solves || c["lp.warm_accepted"] != solves || c["lp.phase1_skipped"] != solves ||
			c["lp.warm_repairs"] != 0 || c["lp.phase1_pivots"] != 0 {
			return fmt.Errorf("%s: %d phase II solves recorded warm_starts=%d accepted=%d phase1_skipped=%d repairs=%d phase1_pivots=%d",
				run.name, solves, c["lp.warm_starts"], c["lp.warm_accepted"], c["lp.phase1_skipped"], c["lp.warm_repairs"], c["lp.phase1_pivots"])
		}
		if int64(len(starts)) != solves {
			return fmt.Errorf("%s: %d warm_start events for %d phase II solves", run.name, len(starts), solves)
		}
		for _, st := range starts {
			if st != "phase1_skipped" {
				return fmt.Errorf("%s: phase II warm_start event says %q", run.name, st)
			}
		}
		if err := lp.CheckCertificate(al.Cert, lp.DefaultCertTol); err != nil {
			return fmt.Errorf("%s: %w", run.name, err)
		}
		cold, cc, coldStarts, err := phase2Solves(func(o *ArrowOptions) (*Allocation, error) {
			return ArrowPhase2(n, scs, al.WinningTicket, o)
		}, true, nil)
		if err != nil {
			return fmt.Errorf("%s, cold: %w", run.name, err)
		}
		if relDiff(cold.Objective, al.Objective) > 1e-9 {
			return fmt.Errorf("%s: objective %.15g, cold solve of the same model %.15g", run.name, al.Objective, cold.Objective)
		}
		if cc["lp.warm_starts"] != 0 || len(coldStarts) != 0 {
			return fmt.Errorf("%s: NoWarm recorded %d warm starts and %d warm_start events", run.name, cc["lp.warm_starts"], len(coldStarts))
		}
	}
	return nil
}

// arrowFromPhase1Basis is Arrow as it ran before Phase II started from the
// all-slack basis: both Phase II solves begin at Phase I's final basis cut
// down to the base model's variables and rows. It is kept to show that the
// start moved no answer.
func arrowFromPhase1Basis(n *Network, scs []RestorableScenario) (*Allocation, error) {
	v := callView(n, scs, nil)
	pm, err := arrowPhase1Colgen(n, v, nil, false)
	if err != nil {
		return nil, err
	}
	winners := pickWinners(v, pm.sol.X)
	base := newBaseModel("base", n).m
	solve := func(w []int) (*Allocation, error) {
		start := &lp.Basis{
			VarStatus: append([]lp.BasisStatus(nil), pm.sol.Basis.VarStatus[:base.NumVars()]...),
			RowStatus: append([]lp.BasisStatus(nil), pm.sol.Basis.RowStatus[:base.NumConstrs()]...),
		}
		bm := refPhase2Model(n, scs, w, false)
		sol, err := solveModel(new(lp.Solution), bm.m, bm.m.Name(), start, nil, nil)
		if err != nil {
			return nil, err
		}
		al := bm.extract(n, 1, sol)
		al.WinningTicket = w
		return al, nil
	}
	al, err := solve(winners)
	if err != nil {
		return nil, err
	}
	fallback, err := solve(make([]int, len(scs)))
	if err != nil {
		return nil, err
	}
	if fallback.Objective > al.Objective+1e-9 ||
		(fallback.Objective > al.Objective-1e-9 && totalRestored(scs, fallback.WinningTicket) > totalRestored(scs, al.WinningTicket)+1e-9) {
		al = fallback
	}
	return al, nil
}

// sameAnswersAsPhase1Start compares Arrow with arrowFromPhase1Basis: the
// surviving plan's winning tickets, and so the capacities they restore, are
// equal and the objective agrees to 1e-9 relative.
func sameAnswersAsPhase1Start(n *Network, scs []RestorableScenario) error {
	got, err := Arrow(n, scs, nil)
	if err != nil {
		return err
	}
	want, err := arrowFromPhase1Basis(n, scs)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(got.WinningTicket, want.WinningTicket) {
		return fmt.Errorf("winning tickets %v, from phase I's basis %v", got.WinningTicket, want.WinningTicket)
	}
	if relDiff(got.Objective, want.Objective) > 1e-9 {
		return fmt.Errorf("objective %.15g, from phase I's basis %.15g", got.Objective, want.Objective)
	}
	return nil
}

// TestPhase2StartIsFeasible runs both checks on the paper's Fig. 7 instance
// and on seeded random ones.
func TestPhase2StartIsFeasible(t *testing.T) {
	check := func(name string, n *Network, scs []RestorableScenario) {
		t.Helper()
		if err := checkPhase2Start(n, scs); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if err := sameAnswersAsPhase1Start(n, scs); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	check("fig7", parallelLinks(), fig7Scenario())
	for seed := int64(1); seed <= 25; seed++ {
		n, scs := randomArrowInstance(rand.New(rand.NewSource(seed)))
		check(fmt.Sprint("seed ", seed), n, scs)
	}
}

// TestValidateRejectsBadNumbers: a capacity or a demand that is negative,
// NaN or infinite is refused before any model is built.
func TestValidateRejectsBadNumbers(t *testing.T) {
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		n := parallelLinks()
		n.Flows[1].Demand = bad
		if err := n.Validate(); err == nil || err.Error() != fmt.Sprintf("te: flow 1 has invalid demand %v", bad) {
			t.Errorf("demand %v: %v", bad, err)
		}
		if _, err := Arrow(n, fig7Scenario(), nil); err == nil {
			t.Errorf("Arrow accepted demand %v", bad)
		}
		n = parallelLinks()
		n.LinkCap[0] = bad
		if err := n.Validate(); err == nil || err.Error() != fmt.Sprintf("te: link 0 has invalid capacity %v", bad) {
			t.Errorf("capacity %v: %v", bad, err)
		}
	}
	zero := parallelLinks()
	zero.Flows[0].Demand, zero.LinkCap[1] = 0, 0
	if err := zero.Validate(); err != nil {
		t.Errorf("zero demand and capacity refused: %v", err)
	}
}
