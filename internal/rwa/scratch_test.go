package rwa

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/arrow-te/arrow/internal/graph"
	"github.com/arrow-te/arrow/internal/lp"
	"github.com/arrow-te/arrow/internal/optical"
	"github.com/arrow-te/arrow/internal/race"
	"github.com/arrow-te/arrow/internal/spectrum"
)

// refAssignIntegral is AssignIntegral as it was: (fiber, slot) claims in a
// map, the link order and each option's orig-first slot order by stable
// sorts. It reads only the exported fields of a Result.
func refAssignIntegral(res *Result, target []int) (*Assignment, bool) {
	n := len(res.Failed)
	a := &Assignment{PerLink: make([][][2]int, n)}
	used := map[[2]int]bool{}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		return SlotCapacity(res, order[x]) < SlotCapacity(res, order[y])
	})
	ok := true
	for _, li := range order {
		want := target[li]
		if want > res.OrigWaves[li] {
			want = res.OrigWaves[li]
		}
		origSlot := map[int]bool{}
		for _, w := range res.Net.LinkByID(res.Failed[li]).Waves {
			origSlot[w.Slot] = true
		}
		got := 0
		usedOrig := map[int]bool{}
		for pi, opt := range res.Options[li] {
			if got >= want {
				break
			}
			slots := append([]int(nil), opt.Slots...)
			sort.SliceStable(slots, func(a, b int) bool {
				oa, ob := origSlot[slots[a]], origSlot[slots[b]]
				if oa != ob {
					return oa
				}
				return slots[a] < slots[b]
			})
			for _, s := range slots {
				if got >= want {
					break
				}
				if !res.AllowTuning && usedOrig[s] {
					continue
				}
				free := true
				for _, f := range opt.Fibers {
					if used[[2]int{f, s}] {
						free = false
						break
					}
				}
				if !free {
					continue
				}
				for _, f := range opt.Fibers {
					used[[2]int{f, s}] = true
				}
				a.PerLink[li] = append(a.PerLink[li], [2]int{pi, s})
				usedOrig[s] = true
				got++
			}
		}
		if got < want {
			ok = false
		}
	}
	return a, ok
}

// refBuildModel is the assignment model as it was built: variables found
// through a map, the (fiber, slot) and original-slot rows collected in maps
// and emitted in sorted key order, every row and variable named.
func refBuildModel(req *Request, res *Result) *lp.Model {
	type xiKey struct{ link, path, slot int }
	m := lp.NewModel("rwa")
	m.SetMaximize(true)
	xi := map[xiKey]lp.Var{}
	fiberSlot := map[[2]int]lp.Expr{}
	linkTotal := make([]lp.Expr, len(res.Failed))
	for li := range res.Failed {
		for pi, opt := range res.Options[li] {
			for _, s := range opt.Slots {
				v := m.AddVar(0, 1, 1, fmt.Sprintf("xi_l%d_p%d_s%d", li, pi, s))
				xi[xiKey{li, pi, s}] = v
				linkTotal[li] = linkTotal[li].Plus(1, v)
				for _, f := range opt.Fibers {
					key := [2]int{f, s}
					fiberSlot[key] = fiberSlot[key].Plus(1, v)
				}
			}
		}
	}
	fsKeys := make([][2]int, 0, len(fiberSlot))
	for key := range fiberSlot {
		fsKeys = append(fsKeys, key)
	}
	sort.Slice(fsKeys, func(a, b int) bool {
		if fsKeys[a][0] != fsKeys[b][0] {
			return fsKeys[a][0] < fsKeys[b][0]
		}
		return fsKeys[a][1] < fsKeys[b][1]
	})
	for _, key := range fsKeys {
		m.AddConstr(fiberSlot[key], lp.LE, 1, fmt.Sprintf("slot_f%d_s%d", key[0], key[1]))
	}
	for li, e := range linkTotal {
		if len(e) == 0 {
			continue
		}
		m.AddConstr(e, lp.LE, float64(res.OrigWaves[li]), fmt.Sprintf("gamma_l%d", li))
	}
	if !req.AllowTuning {
		for li := range res.Failed {
			perSlot := map[int]lp.Expr{}
			for pi, opt := range res.Options[li] {
				for _, s := range opt.Slots {
					perSlot[s] = perSlot[s].Plus(1, xi[xiKey{li, pi, s}])
				}
			}
			slots := make([]int, 0, len(perSlot))
			for s := range perSlot {
				slots = append(slots, s)
			}
			sort.Ints(slots)
			for _, s := range slots {
				if e := perSlot[s]; len(e) > 1 {
					m.AddConstr(e, lp.LE, 1, fmt.Sprintf("orig_l%d_s%d", li, s))
				}
			}
		}
	}
	return m
}

// refSurrogateFibers is the routing step as it was: Yen's algorithm on a
// copy of the optical graph built, per failed link, without the cut fibers
// and the self-loops. It returns each path's fibers and length.
func refSurrogateFibers(req *Request, link *optical.IPLink, maxReach float64) ([][]int, []float64) {
	cutSet := map[int]bool{}
	for _, id := range req.Cut {
		cutSet[id] = true
	}
	g := req.Net.Graph()
	fg := graph.New(g.NumNodes())
	for _, e := range g.Edges() {
		if e.From < e.To && !cutSet[e.Label] {
			fg.AddBiEdge(e.From, e.To, e.Weight, e.Label)
		}
	}
	var fibers [][]int
	var km []float64
	for _, p := range fg.KShortestPaths(graph.Node(link.Src), graph.Node(link.Dst), req.k(), maxReach) {
		var fs []int
		for _, eid := range p.Edges {
			fs = append(fs, fg.Edge(eid).Label)
		}
		fibers, km = append(fibers, fs), append(km, p.Weight)
	}
	return fibers, km
}

// meshNetwork draws a ring of sites with chords, parallel fibers and now and
// then a self-loop, lengths from a few values so that surrogate paths tie,
// and provisions IP links over one- to three-fiber walks, first-fit.
func meshNetwork(rng *rand.Rand, slots int) *optical.Network {
	sites := 4 + rng.Intn(5)
	n := optical.NewNetwork(sites, slots)
	km := func() float64 { return float64(300 * (1 + rng.Intn(3))) }
	for i := 0; i < sites; i++ {
		n.AddFiber(optical.ROADM(i), optical.ROADM((i+1)%sites), km())
	}
	for extra := rng.Intn(sites + 2); extra > 0; extra-- {
		a := rng.Intn(sites)
		switch rng.Intn(5) {
		case 0: // parallel to a ring fiber
			n.AddFiber(optical.ROADM(a), optical.ROADM((a+1)%sites), km())
		case 1: // self-loop
			n.AddFiber(optical.ROADM(a), optical.ROADM(a), km())
		default: // chord
			n.AddFiber(optical.ROADM(a), optical.ROADM((a+2+rng.Intn(sites-2))%sites), km())
		}
	}
	mod := spectrum.Table6[rng.Intn(2)]
	for tries := 3 + rng.Intn(10); tries > 0; tries-- {
		src := optical.ROADM(rng.Intn(sites))
		at := src
		var path []int
		onPath := map[int]bool{}
		for hop := 1 + rng.Intn(3); hop > 0; hop-- {
			var next []int
			for _, f := range n.Fibers {
				if !onPath[f.ID] && f.A != f.B && (f.A == at || f.B == at) {
					next = append(next, f.ID)
				}
			}
			if len(next) == 0 {
				break
			}
			f := n.Fibers[next[rng.Intn(len(next))]]
			path, onPath[f.ID] = append(path, f.ID), true
			if f.A == at {
				at = f.B
			} else {
				at = f.A
			}
		}
		if len(path) == 0 || at == src {
			continue
		}
		var bms []*spectrum.Bitmap
		for _, f := range path {
			bms = append(bms, n.Fibers[f].Slots)
		}
		common := spectrum.PathSpectrum(bms)
		var ws []optical.Lightpath
		for s, waves := 0, 1+rng.Intn(4); s < slots && len(ws) < waves; s++ {
			if common.Available(s) && rng.Intn(3) > 0 {
				ws = append(ws, optical.Lightpath{Slot: s, Modulation: mod, FiberPath: path})
			}
		}
		if len(ws) == 0 {
			continue
		}
		if _, err := n.Provision(src, at, ws); err != nil {
			panic(err)
		}
	}
	return n
}

func randomCut(rng *rand.Rand, n *optical.Network) []int {
	cut := make([]int, 1+rng.Intn(3))
	for i := range cut {
		cut[i] = rng.Intn(len(n.Fibers))
	}
	return cut
}

func randomTarget(rng *rand.Rand, res *Result) []int {
	target := make([]int, len(res.Failed))
	for i := range target {
		target[i] = rng.Intn(res.OrigWaves[i] + 2)
	}
	return target
}

// Everything Solve derives from the network — the failed links, each link's
// surrogate paths in rank order, their slots, the model — against the old
// constructions, on networks with parallel fibers, self-loops and ties.
func TestSolveMatchesReferenceConstructions(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	solved, multiPath := 0, 0
	for trial := 0; trial < 150; trial++ {
		n := meshNetwork(rng, 6+rng.Intn(10))
		for q := 0; q < 4; q++ {
			req := &Request{
				Net: n, Cut: randomCut(rng, n), K: 1 + rng.Intn(4),
				AllowTuning: rng.Intn(2) == 0, AllowModulationChange: rng.Intn(2) == 0,
			}
			res, err := Solve(req)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			for i, lid := range res.Failed {
				link := n.LinkByID(lid)
				maxReach := linkModulation(link).ReachKm
				if req.AllowModulationChange {
					maxReach = spectrum.Table6[0].ReachKm
				}
				// The options are the reference paths that kept a modulation
				// and a slot, in the reference's order.
				wantFibers, wantKm := refSurrogateFibers(req, link, maxReach)
				at := 0
				for _, opt := range res.Options[i] {
					for at < len(wantFibers) && !(reflect.DeepEqual(wantFibers[at], opt.Fibers) && wantKm[at] == opt.LengthKm) {
						at++
					}
					if at == len(wantFibers) {
						t.Fatalf("trial %d cut %v link %d: option %v (%g km) is not among the reference paths %v %v, in order",
							trial, req.Cut, lid, opt.Fibers, opt.LengthKm, wantFibers, wantKm)
					}
					at++
					if !sort.IntsAreSorted(opt.Slots) || len(opt.Slots) == 0 {
						t.Fatalf("trial %d: option slots %v", trial, opt.Slots)
					}
				}
				if len(res.Options[i]) > 1 {
					multiPath++
				}
			}
			if len(res.Failed) == 0 {
				continue
			}
			solved++
			// The model: same size, and the same vertex from a cold solve —
			// which depends on the order of rows and columns.
			sc := new(scratch)
			all := make([]int, len(res.Failed))
			for i := range all {
				all[i] = i
			}
			got, want := sc.buildModel(res, all, "rwa", false), refBuildModel(req, res)
			if got.Stats() != want.Stats() {
				t.Fatalf("trial %d: model %+v, reference %+v", trial, got.Stats(), want.Stats())
			}
			if got.NumVars() == 0 {
				continue
			}
			gotSol, err := lp.Solve(got, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantSol, err := lp.Solve(want, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotSol, wantSol) {
				t.Fatalf("trial %d cut %v: model solves to %+v, reference to %+v", trial, req.Cut, gotSol, wantSol)
			}
			// And the integral assignment on Solve's own options.
			for r := 0; r < 3; r++ {
				target := randomTarget(rng, res)
				gotA, gotOK := AssignIntegral(res, target)
				wantA, wantOK := refAssignIntegral(res, target)
				if gotOK != wantOK || !reflect.DeepEqual(gotA, wantA) {
					t.Fatalf("trial %d cut %v target %v: assignment %v %v, reference %v %v", trial, req.Cut, target, gotA, gotOK, wantA, wantOK)
				}
				if Feasible(res, target) != wantOK {
					t.Fatalf("trial %d: Feasible disagrees with AssignIntegral", trial)
				}
			}
		}
	}
	if solved < 100 || multiPath < 100 {
		t.Fatalf("%d solves with failed links, %d links with several options: too few to mean anything", solved, multiPath)
	}
}

// handBuiltResult draws a Result no Solve produced: options over arbitrary
// fiber sets with their slots in any order, none of Solve's preparation.
func handBuiltResult(rng *rand.Rand) *Result {
	fibers, slots := 2+rng.Intn(6), 3+rng.Intn(8)
	n := optical.NewNetwork(fibers+1, slots)
	for f := 0; f < fibers; f++ {
		n.AddFiber(optical.ROADM(f), optical.ROADM(f+1), 100)
	}
	res := &Result{Net: n, AllowTuning: rng.Intn(2) == 0}
	mod := spectrum.Table6[0]
	for links := 1 + rng.Intn(4); links > 0; links-- {
		f := rng.Intn(fibers)
		var ws []optical.Lightpath
		for s := 0; s < slots; s++ {
			if n.Fibers[f].Slots.Available(s) && rng.Intn(3) == 0 {
				ws = append(ws, optical.Lightpath{Slot: s, Modulation: mod, FiberPath: []int{f}})
			}
		}
		if len(ws) == 0 {
			continue
		}
		l, err := n.Provision(optical.ROADM(f), optical.ROADM(f+1), ws)
		if err != nil {
			panic(err)
		}
		var opts []PathOption
		for o := rng.Intn(4); o > 0; o-- {
			opt := PathOption{LinkID: l.ID, Fibers: rng.Perm(fibers)[:1+rng.Intn(fibers)], Slots: rng.Perm(slots)[:rng.Intn(slots+1)]}
			opts = append(opts, opt)
		}
		res.Failed = append(res.Failed, l.ID)
		res.OrigWaves = append(res.OrigWaves, len(ws))
		res.Options = append(res.Options, opts)
	}
	return res
}

func TestAssignIntegralMatchesMapReferenceOnHandBuiltResults(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	assigned := 0
	for trial := 0; trial < 1500; trial++ {
		res := handBuiltResult(rng)
		target := randomTarget(rng, res)
		got, gotOK := AssignIntegral(res, target)
		want, wantOK := refAssignIntegral(res, target)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: options %+v target %v\n got %v %v\nwant %v %v", trial, res.Options, target, got, gotOK, want, wantOK)
		}
		for i := range res.Failed {
			assigned += got.Waves(i)
		}
	}
	if assigned < 1000 {
		t.Fatalf("only %d wavelengths assigned over all trials", assigned)
	}
}

// IntegralWavesInto writes the counts a fresh AssignIntegral restores, and
// may be handed its target as its destination.
func TestIntegralWavesIntoMayOverwriteTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 800; trial++ {
		res := handBuiltResult(rng)
		target := randomTarget(rng, res)
		asg, wantOK := AssignIntegral(res, target)
		want := make([]int, len(res.Failed))
		for i := range want {
			want[i] = asg.Waves(i)
		}
		inPlace := slices.Clone(target)
		if ok := IntegralWavesInto(inPlace, res, inPlace); ok != wantOK || !slices.Equal(inPlace, want) {
			t.Fatalf("trial %d: target %v realises %v %v in place, AssignIntegral %v %v", trial, target, inPlace, ok, want, wantOK)
		}
		if got, ok := IntegralWaves(res, target); ok != wantOK || !slices.Equal(got, want) {
			t.Fatalf("trial %d: IntegralWaves %v %v, AssignIntegral %v %v", trial, got, ok, want, wantOK)
		}
	}
}

// TestAssignIntoMatchesAssignIntegral runs the hand-built results through one
// reused destination, each pair of them larger first, then smaller: every
// assignment is the one a fresh AssignIntegral returns, and no list of the
// larger one lingers past the smaller one's links.
func TestAssignIntoMatchesAssignIntegral(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	var dst Assignment
	shrank := 0
	for trial := 0; trial < 500; trial++ {
		a, b := handBuiltResult(rng), handBuiltResult(rng)
		if len(a.Failed) < len(b.Failed) {
			a, b = b, a
		}
		if len(a.Failed) > len(b.Failed) {
			shrank++
		}
		for _, res := range []*Result{a, b} {
			target := randomTarget(rng, res)
			want, wantOK := AssignIntegral(res, target)
			if ok := AssignInto(&dst, res, target); ok != wantOK || !reflect.DeepEqual(&dst, want) {
				t.Fatalf("trial %d: options %+v target %v\n got %v %v\nwant %v %v", trial, res.Options, target, dst.PerLink, ok, want.PerLink, wantOK)
			}
			if stale := dst.PerLink[len(dst.PerLink):cap(dst.PerLink)]; slices.ContainsFunc(stale, func(l [][2]int) bool { return l != nil }) {
				t.Fatalf("trial %d: lists %v left behind the %d links", trial, stale, len(dst.PerLink))
			}
		}
	}
	if shrank < 100 {
		t.Fatalf("fixture: only %d trials went from a larger result to a smaller one", shrank)
	}
}

// An option whose slots arrive unsorted still has the link's original
// frequencies tried first, then the rest ascending.
func TestAssignIntegralOrdersUnsortedSlots(t *testing.T) {
	n := optical.NewNetwork(3, 8)
	n.AddFiber(0, 1, 100)
	n.AddFiber(1, 2, 100)
	mod := spectrum.Table6[0]
	l, err := n.Provision(0, 1, []optical.Lightpath{
		{Slot: 5, Modulation: mod, FiberPath: []int{0}},
		{Slot: 2, Modulation: mod, FiberPath: []int{0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{
		Net: n, AllowTuning: true,
		Failed: []int{l.ID}, OrigWaves: []int{4},
		Options: [][]PathOption{{{LinkID: l.ID, Fibers: []int{1}, Slots: []int{7, 5, 0, 2, 3}}}},
	}
	a, ok := AssignIntegral(res, []int{4})
	want := [][2]int{{0, 2}, {0, 5}, {0, 0}, {0, 3}}
	if !ok || !reflect.DeepEqual(a.PerLink[0], want) {
		t.Fatalf("assignment %v ok=%v, want %v", a.PerLink[0], ok, want)
	}
}

// Fiber IDs the network does not have, and repeats, change nothing about a
// request — as when the cut was held in a map.
func TestSolveIgnoresUnknownAndRepeatedCutFibers(t *testing.T) {
	n := fig7Network(t)
	clean := &Request{Net: n, Cut: []int{0}, K: 3, AllowTuning: true, AllowModulationChange: true}
	want, err := Solve(clean)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Failed) == 0 {
		t.Fatal("fixture: cutting fiber 0 fails nothing")
	}
	for _, cut := range [][]int{{0, 0}, {0, 99}, {-3, 0, len(n.Fibers)}, {99, 0, 0, -1}} {
		req := *clean
		req.Cut = cut
		got, err := Solve(&req)
		if err != nil {
			t.Fatalf("cut %v: %v", cut, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %v solves to %+v, cut [0] to %+v", cut, got, want)
		}
	}
	if res, err := Solve(&Request{Net: n, Cut: []int{-1, 99}, K: 3}); err != nil || len(res.Failed) != 0 {
		t.Fatalf("a cut of unknown fibers alone: %+v, %v", res, err)
	}
}

// A self-loop fiber takes no part in the surrogate search, as when the
// filtered copy left it out: not even a nonsensical length reaches it.
func TestSolveLeavesSelfLoopFibersOut(t *testing.T) {
	build := func(withLoop bool) *optical.Network {
		n := optical.NewNetwork(4, 8)
		n.AddFiber(0, 1, 500)
		n.AddFiber(1, 2, 500)
		n.AddFiber(3, 0, 500)
		n.AddFiber(3, 2, 500)
		if withLoop {
			n.AddFiber(1, 1, -40)
		}
		mod := spectrum.Table6[0]
		if _, err := n.Provision(0, 2, []optical.Lightpath{{Slot: 0, Modulation: mod, FiberPath: []int{2, 3}}}); err != nil {
			t.Fatal(err)
		}
		return n
	}
	solve := func(n *optical.Network) *Result {
		res, err := Solve(&Request{Net: n, Cut: []int{3}, K: 3, AllowTuning: true, AllowModulationChange: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Options) != 1 || len(res.Options[0]) == 0 {
			t.Fatalf("options %+v", res.Options)
		}
		res.Net = nil
		return res
	}
	if got, want := solve(build(true)), solve(build(false)); !reflect.DeepEqual(got, want) {
		t.Fatalf("with a self-loop fiber %+v, without %+v", got, want)
	}
}

// slotNetwork is one fixed topology — a six-site ring with two chords and
// four IP links — at a chosen slot count, with extra fibers on sites of
// their own: the request it serves is the same at every size, only
// fibers x slots changes.
func slotNetwork(t testing.TB, slots, extraFibers int) *optical.Network {
	n := optical.NewNetwork(6+extraFibers+1, slots)
	for i := 0; i < 6; i++ {
		n.AddFiber(optical.ROADM(i), optical.ROADM((i+1)%6), 400)
	}
	n.AddFiber(0, 3, 700)
	n.AddFiber(1, 4, 700)
	for i := 0; i < extraFibers; i++ {
		n.AddFiber(optical.ROADM(6+i), optical.ROADM(7+i), 100)
	}
	mod := spectrum.Table6[0]
	for i, path := range [][]int{{0}, {0, 1}, {5, 0}, {0}} {
		src, dst := optical.ROADM(0), optical.ROADM(1)
		switch i {
		case 1:
			dst = 2
		case 2:
			src = 5
		}
		ws := []optical.Lightpath{
			{Slot: 2 * i, Modulation: mod, FiberPath: path},
			{Slot: 2*i + 1, Modulation: mod, FiberPath: path},
		}
		if _, err := n.Provision(src, dst, ws); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

func TestSolveAllocationsIndependentOfFibersTimesSlots(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	allocs := func(n *optical.Network) float64 {
		req := &Request{Net: n, Cut: []int{0}, K: 3, AllowTuning: true, AllowModulationChange: true}
		n.Graph()
		var res *Result
		run := func() {
			var err error
			if res, err = Solve(req); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 5; i++ {
			run() // size the scratch, the search and the simplex
		}
		if len(res.Failed) != 4 || res.Objective < 4 {
			t.Fatalf("fixture: failed %v objective %g", res.Failed, res.Objective)
		}
		return testing.AllocsPerRun(30, run)
	}
	small := allocs(slotNetwork(t, 16, 0))
	large := allocs(slotNetwork(t, 160, 60))
	// The same count whether the spectrum is 8 fibers x 16 slots or 68 x
	// 160: what the Result owns — itself, the int and the float array its
	// four per-link vectors lie in and its option list (4), per failed link
	// its options and the one array behind their fibers, slots and original
	// slots (2 x 4) —, what the search returns, per failed link the path
	// list and per path its edges (4 + 12), and the LP's certificate and
	// warm info (2). The Solution, X, duals and basis the scratch reuses
	// cost none: the 6 they cost per solve before would break the budget,
	// as would the 2 a vector of its own per failed-link quantity cost.
	if small != large {
		t.Errorf("%.0f allocations per Solve on 8 fibers x 16 slots, %.0f on 68 x 160", small, large)
	}
	if budget := 4.0 + 2*4 + 4 + 12 + 2; small > budget {
		t.Errorf("%.0f allocations per steady-state Solve, budget %.0f", small, budget)
	}
}

func TestAssignIntegralAllocatesOnlyTheAssignment(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	res, err := Solve(&Request{Net: slotNetwork(t, 160, 60), Cut: []int{0}, K: 3, AllowTuning: true, AllowModulationChange: true})
	if err != nil {
		t.Fatal(err)
	}
	var a *Assignment
	run := func() { a, _ = AssignIntegral(res, res.OrigWaves) }
	run()
	if a.Waves(0) == 0 {
		t.Fatal("fixture: nothing assigned")
	}
	// The Assignment, its per-link slice and the pairs behind it.
	if got := testing.AllocsPerRun(50, run); got > 3 {
		t.Errorf("%.0f allocations per AssignIntegral, want at most 3", got)
	}
	// Into a destination that has held it once, nothing.
	var dst Assignment
	if got := testing.AllocsPerRun(50, func() { AssignInto(&dst, res, res.OrigWaves) }); got != 0 {
		t.Errorf("%.0f allocations per AssignInto a grown destination, want none", got)
	}
	if got := testing.AllocsPerRun(50, func() { Feasible(res, res.OrigWaves) }); got != 0 {
		t.Errorf("%.0f allocations per Feasible, want none", got)
	}
}
