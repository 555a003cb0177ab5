package ticket_test

import (
	"math/rand"
	"testing"

	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/optical"
	"github.com/arrow-te/arrow/internal/rwa"
	"github.com/arrow-te/arrow/internal/scenario"
	"github.com/arrow-te/arrow/internal/spectrum"
	"github.com/arrow-te/arrow/internal/ticket"
	"github.com/arrow-te/arrow/internal/topo"
)

// checkLPBound draws targets for res with draw and holds the filter's early
// reject to the greedy: every draw within the slot capacities whose total
// exceeds the LP optimum is a spectrum clash that rwa.Feasible refuses too.
// It returns how many draws the early reject caught and how many reached
// the greedy.
func checkLPBound(t *testing.T, res *rwa.Result, draws int, draw func(li int) int) (caught, greedy int) {
	t.Helper()
	waves := make([]int, len(res.Failed))
	for d := 0; d < draws; d++ {
		total, overshot := 0, false
		for li := range waves {
			waves[li] = draw(li)
			w := min(waves[li], res.OrigWaves[li])
			total += w
			overshot = overshot || w > rwa.SlotCapacity(res, li)
		}
		if overshot {
			continue
		}
		greedy++
		if float64(total) <= res.Objective+0.5 {
			continue
		}
		caught++
		if rwa.Feasible(res, waves) {
			t.Fatalf("failed %v, objective %g: the greedy places %v, beyond the LP bound", res.Failed, res.Objective, waves)
		}
		if reason := ticket.Infeasibility(res, waves); reason != ledger.RejectSpectrumClash {
			t.Fatalf("failed %v: %v rejected as %q, want %q", res.Failed, waves, reason, ledger.RejectSpectrumClash)
		}
	}
	return caught, greedy
}

// On the offline-plan instance (B4 with its conduit SRLGs, cut sets of up
// to three elements), the offline stage's own roundings: a draw the LP
// bound refuses is one the greedy refuses as well.
func TestLPBoundRejectsOnlyWhatTheGreedyRejects(t *testing.T) {
	if testing.Short() {
		t.Skip("solves the RWA of every B4 + SRLG scenario")
	}
	tp, err := topo.B4(6)
	if err != nil {
		t.Fatal(err)
	}
	net := tp.Opt
	probs := scenario.FailureProbabilities(len(net.Fibers), scenario.DefaultShape, scenario.DefaultScale, 1)
	set := scenario.EnumerateCorrelated(probs, tp.SRLGs, scenario.EnumOptions{K: 3, Cutoff: 1e-12})
	memo := rwa.NewMemo(net)
	caught, greedy := 0, 0
	for si, sc := range set.Scenarios {
		res, err := rwa.Solve(&rwa.Request{Net: net, Cut: sc.Cut, K: 3, AllowTuning: true, AllowModulationChange: true, Memo: memo})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1 + int64(si)*977))
		c, g := checkLPBound(t, res, 12, func(li int) int { return ticket.RoundOnce(rng, res.FracWaves[li], res.OrigWaves[li], 2) })
		caught, greedy = caught+c, greedy+g
	}
	t.Logf("%d scenarios: the LP bound caught %d of %d draws within the slot capacities", len(set.Scenarios), caught, greedy)
	if caught < 1000 {
		t.Fatalf("the LP bound caught only %d draws", caught)
	}
}

// The same on random meshes, cuts and tuning modes, with targets anywhere
// up to gamma_e.
func TestLPBoundRejectsOnlyWhatTheGreedyRejectsOnMeshes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	caught, greedy := 0, 0
	for trial := 0; trial < 200; trial++ {
		net := boundMesh(rng)
		for q := 0; q < 5; q++ {
			cut := []int{rng.Intn(len(net.Fibers)), rng.Intn(len(net.Fibers))}[:1+rng.Intn(2)]
			res, err := rwa.Solve(&rwa.Request{
				Net: net, Cut: cut, K: 1 + rng.Intn(4),
				AllowTuning: rng.Intn(2) == 0, AllowModulationChange: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			c, g := checkLPBound(t, res, 40, func(li int) int { return rng.Intn(res.OrigWaves[li] + 1) })
			caught, greedy = caught+c, greedy+g
		}
	}
	t.Logf("the LP bound caught %d of %d draws within the slot capacities", caught, greedy)
	if caught < 500 {
		t.Fatalf("the LP bound caught only %d draws", caught)
	}
}

// boundMesh draws a ring of sites with chords and provisions IP links over
// one- and two-fiber walks, first-fit, on a narrow spectrum so that
// restorations contend.
func boundMesh(rng *rand.Rand) *optical.Network {
	sites, slots := 4+rng.Intn(5), 4+rng.Intn(6)
	n := optical.NewNetwork(sites, slots)
	for i := 0; i < sites; i++ {
		n.AddFiber(optical.ROADM(i), optical.ROADM((i+1)%sites), float64(200*(1+rng.Intn(3))))
	}
	for extra := rng.Intn(sites); extra > 0; extra-- {
		a := rng.Intn(sites)
		n.AddFiber(optical.ROADM(a), optical.ROADM((a+2+rng.Intn(sites-2))%sites), float64(200*(1+rng.Intn(3))))
	}
	for tries := 4 + rng.Intn(8); tries > 0; tries-- {
		f := n.Fibers[rng.Intn(len(n.Fibers))]
		src, dst, path := f.A, f.B, []int{f.ID}
		if g := n.Fibers[rng.Intn(len(n.Fibers))]; rng.Intn(2) == 0 && g.ID != f.ID && g.A == dst && g.B != src {
			dst, path = g.B, append(path, g.ID)
		}
		var ws []optical.Lightpath
		for s, want := 0, 1+rng.Intn(4); s < slots && len(ws) < want; s++ {
			free := true
			for _, id := range path {
				free = free && n.Fibers[id].Slots.Available(s)
			}
			if free {
				ws = append(ws, optical.Lightpath{Slot: s, Modulation: spectrum.Table6[0], FiberPath: path})
			}
		}
		if len(ws) == 0 {
			continue
		}
		if _, err := n.Provision(src, dst, ws); err != nil {
			panic(err)
		}
	}
	return n
}
