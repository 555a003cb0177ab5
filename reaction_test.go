package arrow

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/arrow-te/arrow/internal/noise"
	"github.com/arrow-te/arrow/internal/race"
	"github.com/arrow-te/arrow/internal/rwa"
	"github.com/arrow-te/arrow/internal/stats"
	"github.com/arrow-te/arrow/internal/topo"
	"github.com/arrow-te/arrow/internal/traffic"
)

// winningTicket returns the index of scenario qi's winning ticket.
func winningTicket(tp *TrafficPlan, qi int) int {
	if tp.alloc.WinningTicket == nil {
		return 0
	}
	return tp.alloc.WinningTicket[qi]
}

// fiberIDs converts a planned cut to OnFiberCut's arguments.
func fiberIDs(cut []int) []FiberID {
	fs := make([]FiberID, len(cut))
	for i, f := range cut {
		fs[i] = FiberID(f)
	}
	return fs
}

// TestReactionAnswersTheCutsOwnScenario: two fibers in series under one IP
// link fail exactly the same links, but cutting a leaves one slot to restore
// on and cutting b leaves four. Both single cuts are planned, a's first.
// Cutting b must re-light b's own winning ticket. Keyed by failed links, the
// reaction used to answer b with a's ticket and a's restored capacity, and
// the shortfall went unnoticed because AssignIntegral's verdict was dropped.
func TestReactionAnswersTheCutsOwnScenario(t *testing.T) {
	b := NewBuilder(5, 8)
	fa := b.AddFiber(0, 1, 100)
	fb := b.AddFiber(1, 2, 100)
	fc := b.AddFiber(0, 3, 100) // a's detour: 0-3-1, one free slot
	fd := b.AddFiber(3, 1, 100)
	b.AddFiber(1, 4, 100) // b's detour: 1-4-2, all free
	b.AddFiber(4, 2, 100)
	for _, l := range []struct {
		src, dst, waves int
		path            []FiberID
	}{{0, 2, 4, []FiberID{fa, fb}}, {0, 3, 7, []FiberID{fc}}, {3, 1, 7, []FiberID{fd}}} {
		if _, err := b.AddIPLink(l.src, l.dst, l.waves, 100, l.path); err != nil {
			t.Fatal(err)
		}
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	planner, err := net.Plan(PlanOptions{Tickets: 4, Cutoff: 1e-3, Seed: 1, FailureProbs: []float64{0.02, 0.01, 1e-6, 1e-6, 1e-6, 1e-6}})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planner.Solve([]Demand{{Src: 0, Dst: 2, Gbps: 300}}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	qa, _, okA := planner.scenarioOf(nil, []FiberID{fa})
	qb, _, okB := planner.scenarioOf(nil, []FiberID{fb})
	if !okA || !okB || qa > qb || !slices.Equal(planner.scenarios[qa].FailedLinks, planner.scenarios[qb].FailedLinks) {
		t.Fatalf("fixture: a and b must be planned, a first, failing the same links (scenarios %d, %d)", qa, qb)
	}
	relit := func(qi int) int {
		n := 0
		for _, w := range planner.scenarios[qi].Tickets[winningTicket(plan, qi)].Waves {
			n += 2 * w
		}
		return n
	}
	if relit(qa) == relit(qb) {
		t.Fatalf("fixture: a's and b's winning tickets both re-light %d ports", relit(qa))
	}
	re, err := plan.OnFiberCut(fb)
	if err != nil {
		t.Fatal(err)
	}
	if re.ReusedPorts != relit(qb) {
		t.Errorf("cutting b re-lights %d ports, b's winning ticket %d (a's %d)", re.ReusedPorts, relit(qb), relit(qa))
	}
	for _, l := range plan.planner.scenarios[qb].FailedLinks {
		if g := plan.planner.scenarios[qb].TicketGbps(plan.alloc.WinningTicket[qb], l); re.RestoredGbps[LinkID(l)] != g {
			t.Errorf("cutting b restores %v Gbps on link %d, b's scenario %v", re.RestoredGbps[LinkID(l)], l, g)
		}
	}
}

// TestReactionReLightsThePlannedTicket: on a planner asked for five surrogate
// paths per failed link, every single cut re-lights its winning ticket in
// full, two reused ports per wavelength. When the reaction re-solved the cut
// it once hard-coded three paths, and a ticket planned on the richer path set
// could then not be assigned on the poorer one.
func TestReactionReLightsThePlannedTicket(t *testing.T) {
	tp, err := topo.B4(3)
	if err != nil {
		t.Fatal(err)
	}
	net := rebuildThroughBuilder(t, tp)
	probs := make([]float64, net.NumFibers())
	for i := range probs {
		probs[i] = 0.01 // every single cut above the cutoff, every pair below
	}
	planner, err := net.Plan(PlanOptions{Tickets: 6, Cutoff: 1e-3, FailureProbs: probs, SurrogatePaths: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planner.Solve([]Demand{{Src: 0, Dst: 5, Gbps: 100}, {Src: 3, Dst: 9, Gbps: 100}}, SolveOptions{NaiveOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	cuts := 0
	for f := 0; f < net.NumFibers(); f++ {
		if len(net.FailedLinks(FiberID(f))) == 0 {
			continue
		}
		cuts++
		re, err := plan.OnFiberCut(FiberID(f))
		if err != nil {
			t.Fatalf("fiber %d: %v", f, err)
		}
		qi, _, _ := planner.scenarioOf(nil, []FiberID{FiberID(f)})
		want := 0
		for _, w := range planner.scenarios[qi].Tickets[winningTicket(plan, qi)].Waves {
			want += 2 * w
		}
		if re.ReusedPorts != want {
			t.Errorf("fiber %d: the reaction re-lights %d ports, the planned ticket %d", f, re.ReusedPorts, want)
		}
	}
	if cuts == 0 {
		t.Fatal("no single-fiber cut fails a link")
	}
}

// reactionInstance is a plan the reaction is checked on.
type reactionInstance struct {
	name string
	topo func(seed int64) (*topo.Topology, error)
	opts PlanOptions
}

// B4's legacy singles and pairs, B4 with its conduit SRLGs up to three
// elements, and the repository benchmark's Facebook plan.
var reactionInstances = []reactionInstance{
	{name: "b4-legacy", topo: topo.B4, opts: PlanOptions{Tickets: 12, Cutoff: 1e-3, Seed: 1}},
	{name: "b4-srlg-k3", topo: topo.B4, opts: PlanOptions{Tickets: 12, Cutoff: 1e-5, MaxCutSize: 3, UseSRLGs: true, Seed: 1}},
	{name: "facebook-6", topo: topo.Facebook, opts: PlanOptions{Tickets: 12, Cutoff: 2e-4, Seed: 1}},
}

// planner plans the instance on its topology drawn with seed 6.
func (in reactionInstance) planner(t testing.TB, workers int) (*topo.Topology, *Planner) {
	t.Helper()
	tp, err := in.topo(6)
	if err != nil {
		t.Fatal(err)
	}
	opts := in.opts
	opts.Parallelism = workers
	p, err := rebuildThroughBuilder(t, tp).Plan(opts)
	if err != nil {
		t.Fatalf("%s: %v", in.name, err)
	}
	return tp, p
}

// plan plans the instance and solves it for up to 40 gravity flows between
// its routers, offered at 1 % of the summed IP capacity: a load at which
// every instance lets a rolled ticket win some scenarios.
func (in reactionInstance) plan(t testing.TB, workers int) *TrafficPlan {
	t.Helper()
	tp, p := in.planner(t, workers)
	m := traffic.Generate(traffic.Options{Sites: tp.NumRouters(), Count: 1, MaxFlows: 40, TotalGbps: 0.01 * stats.Sum(tp.LinkCaps()), Seed: 8})[0]
	demands := make([]Demand, len(m.Flows))
	for i, f := range m.Flows {
		demands[i] = Demand{Src: int(tp.Routers[f.Src]), Dst: int(tp.Routers[f.Dst]), Gbps: f.Demand}
	}
	plan, err := p.Solve(demands, SolveOptions{})
	if err != nil {
		t.Fatalf("%s: %v", in.name, err)
	}
	return plan
}

// TestPlannedTicketsFitTheirRWAResult shows that the reaction's "does not fit"
// error is unreachable on plans the offline stage produces. Every ticket of
// every scenario is assignable on the scenario's retained RWA result: the
// naive ticket is the greedy's own MaxIntegralWaves, a composed ticket the
// greedy's realised counts, and a rolled one passed the same greedy as its
// feasibility filter. And the tickets are indexed by that result's failed
// links, so the reaction needs no remapping.
func TestPlannedTicketsFitTheirRWAResult(t *testing.T) {
	for _, in := range reactionInstances {
		for _, workers := range []int{1, 4} {
			_, p := in.planner(t, workers)
			if len(p.rwa) != len(p.scenarios) || len(p.cuts) != len(p.scenarios) {
				t.Fatalf("%s: %d scenarios, %d RWA results, %d cuts", in.name, len(p.scenarios), len(p.rwa), len(p.cuts))
			}
			for qi, sc := range p.scenarios {
				res := p.rwa[qi]
				if !slices.Equal(sc.TicketLinks, res.Failed) {
					t.Errorf("%s (workers=%d) scenario %d: ticket links %v, RWA failed links %v", in.name, workers, qi, sc.TicketLinks, res.Failed)
				}
				for zi, tk := range sc.Tickets {
					if _, ok := rwa.AssignIntegral(res, tk.Waves); !ok {
						t.Errorf("%s (workers=%d) scenario %d: ticket %d %v does not fit its RWA result", in.name, workers, qi, zi, tk.Waves)
					}
				}
			}
		}
	}
}

// resolveReaction is the reaction as it was before it read the plan, kept as
// the oracle of the read: re-solve the cut's RWA cold, with the request the
// offline stage builds at the planner's K, then assign scenario qi's own
// winning ticket on that result, its counts mapped from the scenario's
// TicketLinks onto the re-solve's failed links. It returns the ROADM plan and
// the links the cut fails.
func resolveReaction(t *testing.T, tp *TrafficPlan, k, qi int) (*noise.Plan, []int) {
	t.Helper()
	p := tp.planner
	cut := p.cuts[qi]
	res, err := rwa.Solve(&rwa.Request{Net: p.net.opt, Cut: cut, K: k, AllowTuning: true, AllowModulationChange: true})
	if err != nil {
		t.Fatalf("cut %v: %v", cut, err)
	}
	tk := p.scenarios[qi].Tickets[winningTicket(tp, qi)]
	target := make([]int, len(res.Failed))
	for i, l := range res.Failed {
		for j, tl := range p.scenarios[qi].TicketLinks {
			if tl == l {
				target[i] = tk.Waves[j]
			}
		}
	}
	asg, _ := rwa.AssignIntegral(res, target)
	return noise.BuildPlan(p.net.opt, res, asg), p.net.opt.FailedLinks(cut)
}

// TestReactionMatchesResolveOracle: on every planned cut, single and
// multi-fiber, of the three instances, the Reaction and the ROADM config the
// plan is read into are the ones a cold re-solve of the cut gives. The
// retained result may come from a warm or composed solve, but the reaction
// reads only its failed links, wave counts and path options, which the LP
// does not touch.
func TestReactionMatchesResolveOracle(t *testing.T) {
	for _, in := range reactionInstances {
		plan := in.plan(t, 1)
		multi, rolled := 0, 0
		for qi, cut := range plan.planner.cuts {
			if len(cut) > 1 {
				multi++
			}
			if winningTicket(plan, qi) > 0 {
				rolled++
			}
			fibers := fiberIDs(cut)
			roadm, failed := resolveReaction(t, plan, in.opts.SurrogatePaths, qi)
			want := plan.reaction(qi, roadm)
			want.Failed = nil // the oracle's own, not the plan's
			for _, l := range failed {
				want.Failed = append(want.Failed, LinkID(l))
			}
			re, err := plan.OnFiberCut(fibers...)
			if err != nil {
				t.Fatalf("%s: cut %v: %v", in.name, cut, err)
			}
			if !reflect.DeepEqual(re, want) {
				t.Errorf("%s: cut %v: reaction %+v, the re-solve's %+v", in.name, cut, re, want)
			}
			cfg, err := plan.ROADMConfig(fibers...)
			if err != nil {
				t.Fatalf("%s: cut %v: %v", in.name, cut, err)
			}
			if wantCfg := noise.BuildConfig(fmt.Sprintf("cut%v", fibers), roadm).Render(); cfg != wantCfg {
				t.Errorf("%s: cut %v: ROADM config\n%s\nthe re-solve's\n%s", in.name, cut, cfg, wantCfg)
			}
		}
		if multi == 0 || rolled == 0 {
			t.Errorf("%s: fixture: %d multi-fiber cuts, %d scenarios won by a ticket other than the naive one", in.name, multi, rolled)
		}
	}
}

// TestReactionConcurrent: four goroutines react to every planned cut of one
// plan, out of step, and each gets what a lone caller gets. The plan is
// read-only after Solve and the assignment's scratch comes from a pool, so
// this is clean under -race with no lock on TrafficPlan.
func TestReactionConcurrent(t *testing.T) {
	plan := reactionInstances[0].plan(t, 1)
	cuts := plan.planner.cuts
	reactions, configs := make([]*Reaction, len(cuts)), make([]string, len(cuts))
	for qi, cut := range cuts {
		var err error
		if reactions[qi], err = plan.OnFiberCut(fiberIDs(cut)...); err != nil {
			t.Fatal(err)
		}
		if configs[qi], err = plan.ROADMConfig(fiberIDs(cut)...); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range cuts {
				qi := (i + g*len(cuts)/4) % len(cuts)
				re, err := plan.OnFiberCut(fiberIDs(cuts[qi])...)
				if err != nil || !reflect.DeepEqual(re, reactions[qi]) {
					t.Errorf("goroutine %d, cut %v: reaction %+v (%v), alone %+v", g, cuts[qi], re, err, reactions[qi])
				}
				if cfg, err := plan.ROADMConfig(fiberIDs(cuts[qi])...); err != nil || cfg != configs[qi] {
					t.Errorf("goroutine %d, cut %v: ROADM config differs from a lone caller's (%v)", g, cuts[qi], err)
				}
			}
		}()
	}
	wg.Wait()
}

// TestReactionAllocBudget holds what a reaction on the repository
// benchmark's Facebook plan allocates once the pooled scratch has served its
// largest scenario, averaged over its 214 planned cuts: the Reaction, its
// failed links, its restored-capacity map and the two distinct-ROADM lists:
// 662 bytes per reaction and 1,465 allocations per pass over the cuts (6.85
// per reaction; a map of more than eight links takes more than two),
// measured (go1.24, linux/amd64). It was 4,863 bytes and 18.75 allocations
// per reaction when every reaction allocated its cut, assignment and op
// lists and grew its ROADM lists by append. The byte budget leaves 10 % for
// the runtime's own variation; the count has none.
func TestReactionAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's shadow allocations distort the count")
	}
	plan := reactionInstances[2].plan(t, 1)
	var cuts [][]FiberID
	for _, cut := range plan.planner.cuts {
		cuts = append(cuts, fiberIDs(cut))
	}
	react := func() {
		for _, cut := range cuts {
			if _, err := plan.OnFiberCut(cut...); err != nil {
				t.Fatal(err)
			}
		}
	}
	react() // grow the pooled scratch to the largest scenario
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		react()
	}
	runtime.ReadMemStats(&after)
	perReaction := float64(after.TotalAlloc-before.TotalAlloc) / float64(runs*len(cuts))
	allocs := testing.AllocsPerRun(runs, react)
	t.Logf("%.0f bytes and %.2f allocations per reaction over %d cuts", perReaction, allocs/float64(len(cuts)), len(cuts))
	const budget = 728.0
	if perReaction > budget {
		t.Errorf("%.0f bytes allocated per reaction, budget %.0f", perReaction, budget)
	}
	if allocs > 1465 {
		t.Errorf("%.0f allocations per pass over the %d cuts, budget 1465", allocs, len(cuts))
	}
}

// BenchmarkOnFiberCut times one reaction on the repository benchmark's
// Facebook plan, cycling through its planned cuts. CI runs it for one
// iteration so the reaction path cannot rot; for a before/after use the
// repository benchmark's cut-reaction workload.
func BenchmarkOnFiberCut(b *testing.B) {
	plan := reactionInstances[2].plan(b, 1)
	var cuts [][]FiberID
	for _, cut := range plan.planner.cuts {
		cuts = append(cuts, fiberIDs(cut))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.OnFiberCut(cuts[i%len(cuts)]...); err != nil {
			b.Fatal(err)
		}
	}
}
