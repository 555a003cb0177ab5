package arrow

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/arrow-te/arrow/internal/lp"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/race"
	"github.com/arrow-te/arrow/internal/stats"
	"github.com/arrow-te/arrow/internal/te"
	"github.com/arrow-te/arrow/internal/topo"
	"github.com/arrow-te/arrow/internal/traffic"
)

// onlineInstance plans the benchmark's online-te instance (the Facebook(6)
// network, 12 tickets at cutoff 2e-4, seed 1, one worker) under ctx and
// returns its four diurnal demand sets of 120 flows, every flow scaled to
// 3.75 % of the summed IP capacity, as benchmark/workloads.go builds them.
func onlineInstance(t testing.TB, ctx context.Context) (*topo.Topology, *Planner, [][]Demand) {
	t.Helper()
	tp, err := topo.Facebook(6)
	if err != nil {
		t.Fatal(err)
	}
	p, err := rebuildThroughBuilder(t, tp).PlanContext(ctx, PlanOptions{Tickets: 12, Cutoff: 2e-4, Parallelism: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ms := traffic.Generate(traffic.Options{Sites: tp.NumRouters(), Count: 4, MaxFlows: 120, TotalGbps: 1, Seed: 8})
	return tp, p, demandSets(tp, ms, 0.0375*stats.Sum(tp.LinkCaps()))
}

// demandSets maps router-indexed matrices onto site demands, each flow's
// demand multiplied by scale.
func demandSets(tp *topo.Topology, ms []traffic.Matrix, scale float64) [][]Demand {
	out := make([][]Demand, len(ms))
	for mi, m := range ms {
		for _, f := range m.Flows {
			out[mi] = append(out[mi], Demand{Src: int(tp.Routers[f.Src]), Dst: int(tp.Routers[f.Dst]), Gbps: f.Demand * scale})
		}
	}
	return out
}

// epochs is a Planner's life over eight solves of four matrices: each of
// them, the first again, the second in another order, the third with a
// site pair none of the four names, and the fourth with one of its site
// pairs named twice.
func epochs(tp *topo.Topology, ms [][]Demand) (names []string, sets [][]Demand) {
	add := func(name string, ds []Demand) { names, sets = append(names, name), append(sets, ds) }
	for mi, ds := range ms {
		add(fmt.Sprintf("m%d", mi), ds)
	}
	add("m0 again", ms[0])
	perm := slices.Clone(ms[1])
	rand.New(rand.NewSource(1)).Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	add("m1 permuted", perm)
	seen := map[[2]int]bool{}
	for _, ds := range ms {
		for _, d := range ds {
			seen[[2]int{d.Src, d.Dst}] = true
		}
	}
	for _, pr := range routerPairs(tp) {
		pair := [2]int{int(tp.Routers[pr[0]]), int(tp.Routers[pr[1]])}
		if !seen[pair] {
			add(fmt.Sprintf("m2 and unseen pair %v", pair), append(slices.Clone(ms[2]), Demand{Src: pair[0], Dst: pair[1], Gbps: ms[2][0].Gbps}))
			break
		}
	}
	dup := ms[3][len(ms[3])/2]
	dup.Gbps /= 2
	add("m3 with a repeated pair", append([]Demand{dup}, ms[3]...))
	return names, sets
}

// freshPlanner is p as it was just planned, the same offline artifacts (the
// stage is deterministic, TestOfflineStageFingerprints), its solves counted
// on rec.
func freshPlanner(p *Planner, rec obs.Recorder) *Planner {
	q := *p
	lpo := lp.Options{}
	if p.teOpts.LP != nil {
		lpo = *p.teOpts.LP
	}
	lpo.Recorder = rec
	q.teOpts.LP = &lpo
	return &q
}

// samePlan reports the first way got differs from want: the winning
// tickets, or any admitted bandwidth, allocation or split ratio in its bits.
func samePlan(got, want *TrafficPlan) error {
	if !slices.Equal(got.alloc.WinningTicket, want.alloc.WinningTicket) {
		return fmt.Errorf("winners %v, a fresh planner's %v", got.alloc.WinningTicket, want.alloc.WinningTicket)
	}
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	if !slices.Equal(bits(got.alloc.B), bits(want.alloc.B)) {
		return fmt.Errorf("admitted %v, a fresh planner's %v", got.alloc.B, want.alloc.B)
	}
	gr, wr := got.SplitRatios(), want.SplitRatios()
	for f := range want.alloc.A {
		if !slices.Equal(bits(got.alloc.A[f]), bits(want.alloc.A[f])) || !slices.Equal(bits(gr[f]), bits(wr[f])) {
			return fmt.Errorf("demand %d: allocation %v (split %v), a fresh planner's %v (split %v)", f, got.alloc.A[f], gr[f], want.alloc.A[f], wr[f])
		}
	}
	return nil
}

// TestPlannerEpochsMatchFreshPlanner: a Planner that has solved earlier
// matrices answers each new one exactly as a fresh Planner does, down to
// the pivots: the pooled split tables and models an earlier solve of
// another shape left change which memory a solve reuses, never what it
// computes. The epochs include a matrix solved before, one whose flows come
// in another order, a site pair no earlier matrix named and a site pair
// named twice.
func TestPlannerEpochsMatchFreshPlanner(t *testing.T) {
	if testing.Short() {
		t.Skip("plans the Facebook network and runs sixteen TE solves")
	}
	reg := obs.NewRegistry()
	tp, p, ms := onlineInstance(t, obs.WithRecorder(context.Background(), reg))
	names, sets := epochs(tp, ms)
	if len(sets) != 8 {
		t.Fatalf("%d epochs, want 8: no site pair left unseen?", len(sets))
	}
	for e, ds := range sets {
		before := reg.Counter("lp.pivots")
		got, err := p.Solve(ds, SolveOptions{})
		if err != nil {
			t.Fatalf("%s: %v", names[e], err)
		}
		pivots := reg.Counter("lp.pivots") - before
		freshReg := obs.NewRegistry()
		want, err := freshPlanner(p, freshReg).Solve(ds, SolveOptions{})
		if err != nil {
			t.Fatalf("%s, fresh planner: %v", names[e], err)
		}
		if err := samePlan(got, want); err != nil {
			t.Errorf("%s: %v", names[e], err)
		}
		if want := freshReg.Counter("lp.pivots"); pivots != want || pivots == 0 {
			t.Errorf("%s: %d pivots, a fresh planner %d", names[e], pivots, want)
		}
	}
}

// TestPlannerEpochsConcurrent runs the epochs on one fresh B4 planner from
// four goroutines at once, so that solves take pooled split tables and
// models from one another concurrently (run it with -race), and holds every
// answer to a fresh planner's.
func TestPlannerEpochsConcurrent(t *testing.T) {
	tp, p := reactionInstances[0].planner(t, 1)
	ms := traffic.Generate(traffic.Options{Sites: tp.NumRouters(), Count: 4, MaxFlows: 20, TotalGbps: 1, Seed: 8})
	names, sets := epochs(tp, demandSets(tp, ms, 0.01*stats.Sum(tp.LinkCaps())))
	want := make([]*TrafficPlan, len(sets))
	for e, ds := range sets {
		var err error
		if want[e], err = freshPlanner(p, nil).Solve(ds, SolveOptions{}); err != nil {
			t.Fatalf("%s: %v", names[e], err)
		}
	}
	shared := freshPlanner(p, nil)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range sets {
				e := (j + 2*g) % len(sets)
				got, err := shared.Solve(sets[e], SolveOptions{})
				if err != nil {
					t.Errorf("goroutine %d, %s: %v", g, names[e], err)
					continue
				}
				if err := samePlan(got, want[e]); err != nil {
					t.Errorf("goroutine %d, %s: %v", g, names[e], err)
				}
			}
		}()
	}
	wg.Wait()
}

// TestPooledScratchIsNeverShared solves the B4 and Facebook planners'
// matrices interleaved, from two goroutines at once, so that solves and
// availability passes on two networks of different sizes draw views,
// models, solutions and passes from the same pools concurrently (run it
// with -race). Every plan is held to a fresh planner's: its winners,
// admitted bandwidth and split ratios bit for bit (samePlan), its
// availability bit for bit and its AdmittedGbps. Each goroutine first
// solves one matrix with CaptureSensitivity: the variable layout the
// captured handle keeps, and the allocation read off the plan, do not
// change under the solves that follow.
func TestPooledScratchIsNeverShared(t *testing.T) {
	if testing.Short() {
		t.Skip("plans the Facebook network and runs forty TE solves")
	}
	_, fb, fbSets := onlineInstance(t, context.Background())
	tp, b4 := reactionInstances[0].planner(t, 1)
	ms := traffic.Generate(traffic.Options{Sites: tp.NumRouters(), Count: 4, MaxFlows: 20, TotalGbps: 1, Seed: 8})
	b4Sets := demandSets(tp, ms, 0.01*stats.Sum(tp.LinkCaps()))
	type job struct {
		p    *Planner
		ds   []Demand
		name string
	}
	var jobs []job
	for mi := range fbSets {
		jobs = append(jobs, job{b4, b4Sets[mi], fmt.Sprintf("b4 m%d", mi)}, job{fb, fbSets[mi], fmt.Sprintf("facebook m%d", mi)})
	}
	want := make([]*TrafficPlan, len(jobs))
	for i, j := range jobs {
		var err error
		if want[i], err = freshPlanner(j.p, nil).Solve(j.ds, SolveOptions{}); err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
	}
	bits := math.Float64bits
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			first := jobs[g]
			captured := freshPlanner(first.p, nil)
			captured.teOpts.CaptureSensitivity = true
			cp, err := captured.Solve(first.ds, SolveOptions{})
			if err != nil {
				t.Errorf("goroutine %d, captured %s: %v", g, first.name, err)
				return
			}
			h := cp.alloc.Sens
			x := make([]float64, h.Model.NumVars())
			for i := range x {
				x[i] = float64(i)
			}
			bv, av := slices.Clone(h.BVars), make([][]lp.Var, len(h.AVars))
			for f := range av {
				av[f] = slices.Clone(h.AVars[f])
			}
			eb, ea := h.ExtractAllocation(x)
			kept := &TrafficPlan{alloc: &te.Allocation{
				B: slices.Clone(cp.alloc.B), A: make([][]float64, len(cp.alloc.A)),
				WinningTicket: slices.Clone(cp.alloc.WinningTicket),
			}}
			for f := range kept.alloc.A {
				kept.alloc.A[f] = slices.Clone(cp.alloc.A[f])
			}
			for k := range jobs {
				i := (k + g) % len(jobs)
				got, err := jobs[i].p.Solve(jobs[i].ds, SolveOptions{})
				if err != nil {
					t.Errorf("goroutine %d, %s: %v", g, jobs[i].name, err)
					continue
				}
				if err := samePlan(got, want[i]); err != nil {
					t.Errorf("goroutine %d, %s: %v", g, jobs[i].name, err)
				}
				if a, w := got.Availability(), want[i].Availability(); bits(a) != bits(w) {
					t.Errorf("goroutine %d, %s: availability %v, a fresh planner's %v", g, jobs[i].name, a, w)
				}
				if a, w := got.AdmittedGbps(), want[i].AdmittedGbps(); bits(a) != bits(w) {
					t.Errorf("goroutine %d, %s: admitted %v Gbps, a fresh planner's %v", g, jobs[i].name, a, w)
				}
			}
			gb, ga := h.ExtractAllocation(x)
			if !slices.Equal(h.BVars, bv) || !reflect.DeepEqual(h.AVars, av) || !slices.Equal(gb, eb) || !reflect.DeepEqual(ga, ea) {
				t.Errorf("goroutine %d: the captured %s handle's variable layout changed under later solves", g, first.name)
			}
			if err := samePlan(cp, kept); err != nil {
				t.Errorf("goroutine %d: the captured %s plan changed under later solves: %v", g, first.name, err)
			}
		}()
	}
	wg.Wait()
}

// TestPlannerSolveAllocBudget holds the bytes a B4 planner's Solve
// allocates once the pools hold a split table, models and solutions of its
// size: 11 KB measured (go1.24, linux/amd64) since the tunnel–link
// incidence, variable layout and row scratch are built in the solve's
// pooled view, only the Phase II plan kept is read off its solution and
// every link's capacity is the planner's, 23 KB since restored capacity is
// read off the winning tickets, Phase I's rows go unnamed, its scratch is
// pooled and the tunnel–link incidence is laid out at its exact size, 61 KB
// since uncaptured base models
// name and record no capacity rows and every slack start basis comes from a
// pool, 73 KB before that, 119 KB when every LP solve
// allocated its X, duals and basis and every Phase II row its name, 298 KB
// when every solve built its Phase I blocks, Phase II rows and reference
// loads anew, unpooled. The budget leaves 10 % for the runtime's own
// variation.
func TestPlannerSolveAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's shadow allocations distort the count")
	}
	tp, p := reactionInstances[0].planner(t, 1)
	m := traffic.Generate(traffic.Options{Sites: tp.NumRouters(), Count: 1, MaxFlows: 40, TotalGbps: 1, Seed: 8})
	ds := demandSets(tp, m, 0.01*stats.Sum(tp.LinkCaps()))[0]
	solve := func() {
		if _, err := p.Solve(ds, SolveOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	solve() // size the pooled split table, models and scratches
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		solve()
	}
	runtime.ReadMemStats(&after)
	perSolve := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.0f bytes allocated per Planner.Solve", perSolve)
	const budget = 12.3e3
	if perSolve > budget {
		t.Errorf("%.0f bytes allocated per Planner.Solve, budget %.0f", perSolve, budget)
	}
}

// TestOnlineSolveAllocBudget holds the bytes a Planner.Solve allocates on
// the repository benchmark's online-te instance, its four matrices solved
// in turn as the workload cycles them, once a full cycle has sized the
// pools: 18 KB measured (go1.24, linux/amd64), about what the plan keeps
// (its allocation, winners, flows and tunnel sets), since the tunnel–link
// incidence, variable layout and row scratch are built in the solve's
// pooled view, only the Phase II plan kept is read off its solution and
// every link's capacity is the planner's, 65 KB before that, 263 KB before Phase II held
// its distinct rows only, restored capacity was read off the winning
// tickets and the pooled models' term arenas settled at their largest
// build. A single matrix, as TestPlannerSolveAllocBudget solves, cannot
// show an arena that regrows each time the matrices change. The budget
// leaves 10 % for the runtime's own variation.
func TestOnlineSolveAllocBudget(t *testing.T) {
	if testing.Short() || race.Enabled {
		t.Skip("plans the Facebook network; the race detector's shadow allocations distort the count")
	}
	_, p, sets := onlineInstance(t, context.Background())
	cycle := func() {
		for _, ds := range sets {
			if _, err := p.Solve(ds, SolveOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle() // size the pooled split table, models and scratches
	const cycles = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range cycles {
		cycle()
	}
	runtime.ReadMemStats(&after)
	perSolve := float64(after.TotalAlloc-before.TotalAlloc) / float64(cycles*len(sets))
	t.Logf("%.0f bytes allocated per Planner.Solve over the %d online-te matrices", perSolve, len(sets))
	const budget = 20e3
	if perSolve > budget {
		t.Errorf("%.0f bytes allocated per Planner.Solve, budget %.0f", perSolve, budget)
	}
}

// TestTrafficPlanReadAllocBudget holds the reads the online-te op makes of
// a plan, on its instance: Availability evaluates the 214 planned
// scenarios one at a time on a pooled pass, at most 1 KB per call (the
// Evaluator and nothing else, 24 B measured, go1.24, linux/amd64; 28 KB
// when it built the list of scenarios and a pass of its own), and
// SplitRatios cuts every demand's ratios from one array, two allocations
// (121 when each demand's had its own).
func TestTrafficPlanReadAllocBudget(t *testing.T) {
	if testing.Short() || race.Enabled {
		t.Skip("plans the Facebook network; the race detector's shadow allocations distort the count")
	}
	_, p, sets := onlineInstance(t, context.Background())
	tp, err := p.Solve(sets[0], SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tp.Availability() // size the pooled pass
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		tp.Availability()
	}
	runtime.ReadMemStats(&after)
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.0f bytes allocated per TrafficPlan.Availability", perCall)
	const budget = 1024
	if perCall > budget {
		t.Errorf("%.0f bytes allocated per TrafficPlan.Availability, budget %d", perCall, budget)
	}
	allocs := testing.AllocsPerRun(20, func() { tp.SplitRatios() })
	t.Logf("%.0f allocations per TrafficPlan.SplitRatios", allocs)
	if allocs > 2 {
		t.Errorf("%.0f allocations per TrafficPlan.SplitRatios, budget 2", allocs)
	}
}
