package rwa

import (
	"math"
	"reflect"
	"testing"

	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/optical"
	"github.com/arrow-te/arrow/internal/spectrum"
)

// fig2Network reproduces the paper's Fig. 2: ROADMs A=0, B=1, C=2, D=3.
// Fibers: AB, BC, DA, DC. IP1 = A<->C via D (lambda1), IP2 = D<->C (lambda2),
// both on fiber DC. Cutting DC must restore both via D-A-B-C / A-B-C.
func fig2Network(t *testing.T) *optical.Network {
	t.Helper()
	n := optical.NewNetwork(4, 8)
	n.AddFiber(0, 1, 500)     // 0: A-B
	n.AddFiber(1, 2, 500)     // 1: B-C
	n.AddFiber(3, 0, 500)     // 2: D-A
	n.AddFiber(3, 2, 500)     // 3: D-C
	mod := spectrum.Table6[0] // 100G / 5000 km
	if _, err := n.Provision(0, 2, []optical.Lightpath{{Slot: 0, Modulation: mod, FiberPath: []int{2, 3}}}); err != nil {
		t.Fatal(err) // IP1: A->D->C optically, direct IP link A-C
	}
	if _, err := n.Provision(3, 2, []optical.Lightpath{{Slot: 1, Modulation: mod, FiberPath: []int{3}}}); err != nil {
		t.Fatal(err) // IP2: D-C
	}
	return n
}

func TestFig2FullRestoration(t *testing.T) {
	n := fig2Network(t)
	res, err := Solve(&Request{Net: n, Cut: []int{3}, K: 3, AllowTuning: true, AllowModulationChange: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 2 {
		t.Fatalf("failed links %v", res.Failed)
	}
	// Both wavelengths restorable: plenty of free spectrum on AB/BC/DA.
	for i := range res.Failed {
		if res.FracWaves[i] < 1-1e-6 {
			t.Fatalf("link %d only %g waves restorable", res.Failed[i], res.FracWaves[i])
		}
	}
	counts := MaxIntegralWaves(res)
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("integral restoration of link %d = %d", res.Failed[i], c)
		}
	}
	// Restoration ratio of fiber DC is 1.
	u, err := RestorationRatio(n, 3, 3, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if u != 1 {
		t.Fatalf("U_DC = %g", u)
	}
}

func TestHealthyFiberCutNoFailures(t *testing.T) {
	n := fig2Network(t)
	res, err := Solve(&Request{Net: n, Cut: []int{0}, K: 3, AllowTuning: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 {
		t.Fatalf("failed %v", res.Failed)
	}
	u, err := RestorationRatio(n, 0, 3, true, true)
	if err != nil || u != 1 {
		t.Fatalf("u=%g err=%v", u, err)
	}
}

// fig7Network reproduces Fig. 7: nodes B=0, C=1 joined by a direct fiber
// carrying IP1 (4 waves) and IP2 (8 waves), plus a top path via T=2 with 3
// free slots usable and a bottom path via U=3 with 2 free slots usable.
func fig7Network(t *testing.T) *optical.Network {
	t.Helper()
	n := optical.NewNetwork(4, 12)
	n.AddFiber(0, 1, 100) // 0: B-C direct
	n.AddFiber(0, 2, 100) // 1: B-T
	n.AddFiber(2, 1, 100) // 2: T-C
	n.AddFiber(0, 3, 100) // 3: B-U
	n.AddFiber(3, 1, 100) // 4: U-C
	mod := spectrum.Table6[0]
	mk := func(count, startSlot int) []optical.Lightpath {
		var ws []optical.Lightpath
		for i := 0; i < count; i++ {
			ws = append(ws, optical.Lightpath{Slot: startSlot + i, Modulation: mod, FiberPath: []int{0}})
		}
		return ws
	}
	if _, err := n.Provision(0, 1, mk(4, 0)); err != nil { // IP1
		t.Fatal(err)
	}
	if _, err := n.Provision(0, 1, mk(8, 4)); err != nil { // IP2
		t.Fatal(err)
	}
	// Exhaust spectrum on the surrogate fibers so only 3 slots survive on
	// the top path and 2 on the bottom path.
	occupyAllBut := func(fibers []int, keep int) {
		for _, f := range fibers {
			for s := 0; s < 12-keep; s++ {
				n.Fibers[f].Slots.Set(s, false)
			}
		}
	}
	occupyAllBut([]int{1, 2}, 3)
	occupyAllBut([]int{3, 4}, 2)
	return n
}

func TestFig7PartialRestoration(t *testing.T) {
	n := fig7Network(t)
	res, err := Solve(&Request{Net: n, Cut: []int{0}, K: 3, AllowTuning: true, AllowModulationChange: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 2 {
		t.Fatalf("failed %v", res.Failed)
	}
	// W'_BC = 5 wavelengths total (3 top + 2 bottom) out of 12.
	if math.Abs(res.Objective-5) > 1e-6 {
		t.Fatalf("LP objective %g, want 5", res.Objective)
	}
	// Restoration ratio: 500/1200.
	u, err := RestorationRatio(n, 0, 3, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u-5.0/12) > 1e-9 {
		t.Fatalf("U = %g want %g", u, 5.0/12)
	}
}

func TestFig7TicketTargetsFeasibility(t *testing.T) {
	n := fig7Network(t)
	res, err := Solve(&Request{Net: n, Cut: []int{0}, K: 3, AllowTuning: true, AllowModulationChange: true})
	if err != nil {
		t.Fatal(err)
	}
	// The three candidates of Fig. 7 (in wavelengths): (2,3), (1,4), (3,2).
	// IP1 is res index of the 4-wave link; find it.
	i1, i2 := 0, 1
	if res.OrigWaves[0] != 4 {
		i1, i2 = 1, 0
	}
	for _, cand := range [][2]int{{2, 3}, {1, 4}, {3, 2}} {
		target := make([]int, 2)
		target[i1], target[i2] = cand[0], cand[1]
		if _, ok := AssignIntegral(res, target); !ok {
			t.Fatalf("candidate %v should be feasible", cand)
		}
	}
	// Restoring 6 wavelengths total is impossible (only 5 slots).
	target := make([]int, 2)
	target[i1], target[i2] = 2, 4
	if _, ok := AssignIntegral(res, target); ok {
		t.Fatal("candidate (2,4) should be infeasible")
	}
}

func TestNoTuningRestrictsSlots(t *testing.T) {
	// Link on slot 5; surrogate path only has slot 5 occupied -> without
	// tuning nothing restorable, with tuning fully restorable.
	n := optical.NewNetwork(3, 8)
	n.AddFiber(0, 1, 100) // 0: direct
	n.AddFiber(0, 2, 100) // 1
	n.AddFiber(2, 1, 100) // 2
	mod := spectrum.Table6[0]
	if _, err := n.Provision(0, 1, []optical.Lightpath{{Slot: 5, Modulation: mod, FiberPath: []int{0}}}); err != nil {
		t.Fatal(err)
	}
	n.Fibers[1].Slots.Set(5, false)

	noTune, err := Solve(&Request{Net: n, Cut: []int{0}, K: 2, AllowTuning: false})
	if err != nil {
		t.Fatal(err)
	}
	if noTune.Objective != 0 {
		t.Fatalf("no-tuning objective %g, want 0", noTune.Objective)
	}
	tune, err := Solve(&Request{Net: n, Cut: []int{0}, K: 2, AllowTuning: true})
	if err != nil {
		t.Fatal(err)
	}
	if tune.Objective != 1 {
		t.Fatalf("tuning objective %g, want 1", tune.Objective)
	}
}

func TestModulationChangeOnLongPath(t *testing.T) {
	// Direct fiber 900 km with 400G waves; surrogate detour is 2400 km,
	// beyond 400G reach (1000 km) but within 200G reach (3000 km).
	n := optical.NewNetwork(3, 8)
	n.AddFiber(0, 1, 900)  // 0: direct
	n.AddFiber(0, 2, 1200) // 1
	n.AddFiber(2, 1, 1200) // 2
	mod400, _ := spectrum.ModulationByRate(400)
	if _, err := n.Provision(0, 1, []optical.Lightpath{{Slot: 0, Modulation: mod400, FiberPath: []int{0}}}); err != nil {
		t.Fatal(err)
	}
	noChange, err := Solve(&Request{Net: n, Cut: []int{0}, K: 2, AllowTuning: true, AllowModulationChange: false})
	if err != nil {
		t.Fatal(err)
	}
	if noChange.Objective != 0 {
		t.Fatalf("objective %g without modulation change, want 0", noChange.Objective)
	}
	change, err := Solve(&Request{Net: n, Cut: []int{0}, K: 2, AllowTuning: true, AllowModulationChange: true})
	if err != nil {
		t.Fatal(err)
	}
	if change.Objective != 1 {
		t.Fatalf("objective %g with modulation change, want 1", change.Objective)
	}
	if change.GbpsPerWave[0] != 200 {
		t.Fatalf("effective rate %g, want 200", change.GbpsPerWave[0])
	}
	// Restored bandwidth: 1 wave * 200G over provisioned 400G -> U = 0.5.
	u, err := RestorationRatio(n, 0, 2, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if u != 0.5 {
		t.Fatalf("U = %g, want 0.5", u)
	}
}

func TestWavelengthContinuityBlocksRestoration(t *testing.T) {
	// Surrogate path of two fibers with disjoint free spectrum: nothing
	// restorable despite both fibers having free slots.
	n := optical.NewNetwork(3, 4)
	n.AddFiber(0, 1, 100) // 0: direct
	n.AddFiber(0, 2, 100) // 1
	n.AddFiber(2, 1, 100) // 2
	mod := spectrum.Table6[0]
	if _, err := n.Provision(0, 1, []optical.Lightpath{{Slot: 0, Modulation: mod, FiberPath: []int{0}}}); err != nil {
		t.Fatal(err)
	}
	// Fiber 1 free slots: {0,1}; fiber 2 free slots: {2,3}.
	n.Fibers[1].Slots.Set(2, false)
	n.Fibers[1].Slots.Set(3, false)
	n.Fibers[2].Slots.Set(0, false)
	n.Fibers[2].Slots.Set(1, false)
	res, err := Solve(&Request{Net: n, Cut: []int{0}, K: 2, AllowTuning: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective != 0 {
		t.Fatalf("objective %g, want 0 (continuity)", res.Objective)
	}
}

func TestSharedSurrogateContention(t *testing.T) {
	// Two failed links compete for one free slot on a shared surrogate
	// fiber; total restoration is capped at 1 wavelength.
	n := optical.NewNetwork(3, 4)
	n.AddFiber(0, 1, 100) // 0: direct A-B
	n.AddFiber(0, 2, 100) // 1: A-C
	n.AddFiber(2, 1, 100) // 2: C-B
	mod := spectrum.Table6[0]
	if _, err := n.Provision(0, 1, []optical.Lightpath{{Slot: 0, Modulation: mod, FiberPath: []int{0}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Provision(0, 1, []optical.Lightpath{{Slot: 1, Modulation: mod, FiberPath: []int{0}}}); err != nil {
		t.Fatal(err)
	}
	// Only slot 3 free on the surrogate fibers.
	for _, f := range []int{1, 2} {
		n.Fibers[f].Slots.Set(0, false)
		n.Fibers[f].Slots.Set(1, false)
		n.Fibers[f].Slots.Set(2, false)
	}
	res, err := Solve(&Request{Net: n, Cut: []int{0}, K: 2, AllowTuning: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Objective-1) > 1e-6 {
		t.Fatalf("objective %g, want 1", res.Objective)
	}
	counts := MaxIntegralWaves(res)
	if counts[0]+counts[1] != 1 {
		t.Fatalf("integral counts %v, want total 1", counts)
	}
}

func TestDisconnectedAfterCut(t *testing.T) {
	// Cutting the only fiber leaves no surrogate path: zero restoration.
	n := optical.NewNetwork(2, 4)
	n.AddFiber(0, 1, 100)
	mod := spectrum.Table6[0]
	if _, err := n.Provision(0, 1, []optical.Lightpath{{Slot: 0, Modulation: mod, FiberPath: []int{0}}}); err != nil {
		t.Fatal(err)
	}
	res, err := Solve(&Request{Net: n, Cut: []int{0}, K: 3, AllowTuning: true, AllowModulationChange: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective != 0 || len(res.Options[0]) != 0 {
		t.Fatalf("objective %g options %v", res.Objective, res.Options[0])
	}
	u, err := RestorationRatio(n, 0, 3, true, true)
	if err != nil || u != 0 {
		t.Fatalf("U = %g err=%v, want 0", u, err)
	}
}

// twoIslandNetwork builds two disjoint sub-networks, each with a direct
// fiber carrying one 2-wave IP link plus a clean 2-hop surrogate path, so a
// pair cut {0, 3} decomposes exactly into its two single cuts.
func twoIslandNetwork(t *testing.T) *optical.Network {
	t.Helper()
	n := optical.NewNetwork(6, 8)
	n.AddFiber(0, 1, 100) // 0: A-B direct
	n.AddFiber(0, 2, 100) // 1: A-C
	n.AddFiber(2, 1, 100) // 2: C-B
	n.AddFiber(3, 4, 100) // 3: D-E direct
	n.AddFiber(3, 5, 100) // 4: D-F
	n.AddFiber(5, 4, 100) // 5: F-E
	mod := spectrum.Table6[0]
	mk := func(fiber int) []optical.Lightpath {
		return []optical.Lightpath{
			{Slot: 0, Modulation: mod, FiberPath: []int{fiber}},
			{Slot: 1, Modulation: mod, FiberPath: []int{fiber}},
		}
	}
	if _, err := n.Provision(0, 1, mk(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Provision(3, 4, mk(3)); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestDisjointCutSolvesByBlocks: the pair cut {0, 3} of the two islands is
// two independent blocks, one per island. Solved alone it takes two block
// LPs; through a memo that has solved both single cuts it takes none, and
// either way it restores both links in full, each as its single cut does.
func TestDisjointCutSolvesByBlocks(t *testing.T) {
	n := twoIslandNetwork(t)
	solve := func(memo *Memo, cut ...int) (*Result, map[string]int64) {
		t.Helper()
		reg := obs.NewRegistry()
		res, err := Solve(&Request{Net: n, Cut: cut, K: 3, AllowTuning: true, Recorder: reg, Memo: memo})
		if err != nil {
			t.Fatal(err)
		}
		return res, reg.Snapshot().Counters
	}
	plain, c := solve(nil, 0, 3)
	if c["rwa.block_solves"] != 2 || c["lp.solves"] != 2 || c["rwa.block_hits"] != 0 {
		t.Fatalf("pair cut alone: %v, want two block solves", c)
	}
	if math.Abs(plain.Objective-4) > 1e-6 {
		t.Fatalf("objective %g, want 4", plain.Objective)
	}
	memo := NewMemo(n)
	s0, _ := solve(memo, 0)
	s3, _ := solve(memo, 3)
	pair, c := solve(memo, 0, 3)
	if c["rwa.block_solves"] != 0 || c["lp.solves"] != 0 || c["rwa.block_hits"] != 2 {
		t.Fatalf("pair cut after its singles: %v, want two block hits", c)
	}
	want := []float64{s0.FracWaves[0], s3.FracWaves[0]}
	if !reflect.DeepEqual(pair.FracWaves, want) || !reflect.DeepEqual(plain.FracWaves, want) || pair.Objective != plain.Objective {
		t.Fatalf("pair cut FracWaves %v (alone %v), singles %v", pair.FracWaves, plain.FracWaves, want)
	}
}
