package te_test

import (
	"context"
	"fmt"
	"testing"

	arrow "github.com/arrow-te/arrow"
	"github.com/arrow-te/arrow/internal/plan"
	"github.com/arrow-te/arrow/internal/race"
	"github.com/arrow-te/arrow/internal/scenario"
	"github.com/arrow-te/arrow/internal/stats"
	"github.com/arrow-te/arrow/internal/te"
	"github.com/arrow-te/arrow/internal/topo"
	"github.com/arrow-te/arrow/internal/traffic"
)

// onlineTE is the repository benchmark's online-te instance as te sees it:
// the TE network of each of its four matrices, as a Planner of the public
// API solves it (Facebook(6), 12 tickets at cutoff 2e-4, seed 1, its
// tunnels, every flow scaled to 3.75 % of the summed IP capacity), and the
// restorable scenarios the planner's offline stage plans.
func onlineTE(tb testing.TB) ([]*te.Network, []te.RestorableScenario) {
	tb.Helper()
	tp, err := topo.Facebook(6)
	if err != nil {
		tb.Fatal(err)
	}
	b := arrow.NewBuilder(tp.Opt.NumROADMs, tp.Opt.SlotCount)
	for _, f := range tp.Opt.Fibers {
		b.AddFiber(int(f.A), int(f.B), f.LengthKm)
	}
	for _, l := range tp.Opt.IPLinks {
		if len(l.Waves) == 0 {
			continue
		}
		w0 := l.Waves[0]
		path := make([]arrow.FiberID, len(w0.FiberPath))
		for i, id := range w0.FiberPath {
			path[i] = arrow.FiberID(id)
		}
		if _, err := b.AddIPLink(int(l.Src), int(l.Dst), len(l.Waves), w0.Modulation.GbpsPerWavelength, path); err != nil {
			tb.Fatal(err)
		}
	}
	groups := make([]scenario.Group, len(tp.SRLGs))
	for i, g := range tp.SRLGs {
		fibers := make([]arrow.FiberID, len(g.Fibers))
		for j, id := range g.Fibers {
			fibers[j] = arrow.FiberID(id)
		}
		b.AddSRLG(g.Prob, fibers...)
		groups[i] = scenario.Group{Name: fmt.Sprintf("srlg%d", i), Fibers: g.Fibers, Prob: g.Prob}
	}
	net, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	opts := arrow.PlanOptions{Tickets: 12, Cutoff: 2e-4, Parallelism: 1, Seed: 1}
	p, err := net.Plan(opts)
	if err != nil {
		tb.Fatal(err)
	}
	off, err := plan.Build(context.Background(), tp.Opt, nil, groups, plan.Options{Tickets: opts.Tickets, Seed: opts.Seed, Cutoff: opts.Cutoff})
	if err != nil {
		tb.Fatal(err)
	}
	ms := traffic.Generate(traffic.Options{Sites: tp.NumRouters(), Count: 4, MaxFlows: 120, TotalGbps: 1, Seed: 8})
	share := 0.0375 * stats.Sum(tp.LinkCaps())
	var nets []*te.Network
	for _, m := range ms {
		ds := make([]arrow.Demand, len(m.Flows))
		n := &te.Network{LinkCap: make([]float64, net.NumLinks())}
		for i, f := range m.Flows {
			ds[i] = arrow.Demand{Src: int(tp.Routers[f.Src]), Dst: int(tp.Routers[f.Dst]), Gbps: f.Demand * share}
		}
		for l := range n.LinkCap {
			n.LinkCap[l] = net.LinkCapacityGbps(arrow.LinkID(l))
		}
		solved, err := p.Solve(ds, arrow.SolveOptions{})
		if err != nil {
			tb.Fatal(err)
		}
		for d, dm := range ds {
			n.Flows = append(n.Flows, te.Flow{Src: dm.Src, Dst: dm.Dst, Demand: dm.Gbps})
			var ts []te.Tunnel
			for t := 0; t < len(solved.SplitRatios()[d]); t++ {
				var links []int
				for _, l := range solved.TunnelLinks(d, t) {
					links = append(links, int(l))
				}
				ts = append(ts, te.Tunnel{Links: links})
			}
			n.Tunnels = append(n.Tunnels, ts)
		}
		// The same instance: te.Arrow admits what the planner's Solve does.
		al, err := te.Arrow(n, off.Scenarios, nil)
		if err != nil {
			tb.Fatal(err)
		}
		if al.Objective != solved.AdmittedGbps() {
			tb.Fatalf("te.Arrow admits %v Gbps, the planner %v", al.Objective, solved.AdmittedGbps())
		}
		nets = append(nets, n)
	}
	return nets, off.Scenarios
}

// TestPhase2QuotientMatchesFullModel holds the Phase II model of distinct
// rows to the full Table 3 model (te.Phase2QuotientMatchesFullModel) for
// both winner sets ARROW solves Phase II for, Phase I's and the all-ticket-0
// fallback's: on the online-te workload's four matrices, on every ARROW
// cell of the fast fig13 sweep and on TestTwoPhaseNeverBeatsJointILP's 12
// instances.
func TestPhase2QuotientMatchesFullModel(t *testing.T) {
	if testing.Short() || race.Enabled {
		t.Skip("plans the Facebook network and solves ~100 LPs twice, the full models cold")
	}
	check := func(name string, n *te.Network, scs []te.RestorableScenario) {
		t.Helper()
		winners, err := te.ArrowPhase1(n, scs, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, w := range [][]int{winners, make([]int, len(scs))} {
			if err := te.Phase2QuotientMatchesFullModel(n, scs, w); err != nil {
				t.Errorf("%s, winners %v: %v", name, w, err)
			}
		}
	}
	nets, scs := onlineTE(t)
	for mi, n := range nets {
		check(fmt.Sprintf("online-te m%d", mi), n, scs)
	}
	base, scs := b4Fast(t)
	for _, scale := range []float64{1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 7.0} {
		check(fmt.Sprintf("fig13 at scale %g", scale), base.Scaled(scale), scs)
	}
	nets, joint := te.JointInstances()
	if len(nets) != 12 {
		t.Fatalf("%d joint instances, want 12", len(nets))
	}
	for i, n := range nets {
		check(fmt.Sprintf("joint instance %d", i), n, joint[i])
	}
}
