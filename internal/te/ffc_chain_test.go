package te

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/arrow-te/arrow/internal/lp"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/race"
)

// slackFFC is FFC as a cell solved it before the scale chain: n's own model
// from the all-slack basis, its allocation read off the solution.
func slackFFC(n *Network, scs []FailureScenario) (*Allocation, error) {
	bm := newBaseModel("ffc", n)
	addResidualGuarantees(bm, n, scs)
	return bm.solve(n, nil)
}

// TestFFCOneScaleChainIsTheCellSolve: FFC, the one-scale chain at scale 1,
// solves n's own model from the all-slack basis, so its allocation, stats
// and certificate are the ones a cell's solve returned before there were
// chains.
func TestFFCOneScaleChainIsTheCellSolve(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		n, scs := randomBaselineInstance(rand.New(rand.NewSource(seed)))
		want, err := slackFFC(n, scs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, err := FFC(n, scs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: the one-scale chain's allocation differs from the cell solve's:\n%+v\nvs\n%+v", seed, got, want)
		}
	}
}

// TestFFCScalesMatchReference holds every cell of an FFC chain to its own
// scaled network: the certificate passes, the allocation fits the link
// capacities, admits at most s·d_f per flow and keeps b_f on the surviving
// tunnels of every scenario that leaves the flow one, its objective is its
// admitted demand, and the objective is no worse, to 1e-9 relative, than a
// solve of the scaled network's model from the all-slack basis or than the
// reference model's. It logs how many cells differ from either by more
// than 1e-9 and how many warm re-solves restarted; the small first solves
// give the re-solves a tight pivot budget, so some do.
func TestFFCScalesMatchReference(t *testing.T) {
	if race.Enabled {
		t.Skip("solves 5,000 LPs on one goroutine")
	}
	reg := obs.NewRegistry()
	bl := Baselines{LP: &lp.Options{Recorder: reg}}
	noWorse := func(seed int64, s, got, want float64, what string) {
		t.Helper()
		if want-got > 1e-9*(1+math.Abs(want)) {
			t.Errorf("seed %d scale %g: objective %.15g, %s %.15g", seed, s, got, what, want)
		}
	}
	differ, cells := 0, 0
	for seed := int64(0); seed < 150; seed++ {
		n, scs := randomBaselineInstance(rand.New(rand.NewSource(seed)))
		als, err := bl.FFCScales(n, scs, chainScales)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for si, s := range chainScales {
			ns, al := n.Scaled(s), als[si]
			if err := lp.CheckCertificate(al.Cert, 0); err != nil {
				t.Fatalf("seed %d scale %g: %v", seed, s, err)
			}
			load := make([]float64, len(ns.LinkCap))
			for f, ts := range ns.Tunnels {
				for ti, tn := range ts {
					for _, e := range tn.Links {
						load[e] += al.A[f][ti]
					}
				}
			}
			for e, c := range ns.LinkCap {
				if load[e] > c+evalTol*(1+c) {
					t.Errorf("seed %d scale %g: link %d carries %g over capacity %g", seed, s, e, load[e], c)
				}
			}
			total := 0.0
			for f, b := range al.B {
				if d := ns.Flows[f].Demand; b > d+evalTol*(1+d) {
					t.Errorf("seed %d scale %g: b_%d = %g over demand %g", seed, s, f, b, d)
				}
				total += b
				for _, q := range scs {
					kept, any := 0.0, false
					for ti, tn := range ns.Tunnels[f] {
						if !slices.ContainsFunc(tn.Links, func(e int) bool { return slices.Contains(q.FailedLinks, e) }) {
							kept += al.A[f][ti]
							any = true
						}
					}
					if any && kept < b-evalTol*(1+b) {
						t.Errorf("seed %d scale %g: flow %d keeps %g of b = %g under cut %v", seed, s, f, kept, b, q.FailedLinks)
					}
				}
			}
			if relDiff(total, al.Objective) > 1e-12 {
				t.Errorf("seed %d scale %g: objective %.15g, admitted %.15g", seed, s, al.Objective, total)
			}

			cell, err := slackFFC(ns, scs)
			if err != nil {
				t.Fatalf("seed %d scale %g: %v", seed, s, err)
			}
			ref := newBaseModel("ffc-ref", ns)
			refAddResidualGuarantees(ref, ns, scs)
			refSol, err := lp.Solve(ref.m, nil)
			if err != nil || refSol.Status != lp.StatusOptimal {
				t.Fatalf("seed %d scale %g: reference: %v %v", seed, s, err, refSol.Status)
			}
			noWorse(seed, s, al.Objective, cell.Objective, "the scaled model's")
			noWorse(seed, s, al.Objective, refSol.Objective, "the reference's")
			cells++
			if relDiff(cell.Objective, al.Objective) > 1e-9 || relDiff(refSol.Objective, al.Objective) > 1e-9 {
				differ++
			}
		}
	}
	restarts := reg.Counter("te.chain_restarts")
	t.Logf("%d of %d cells differ from the scaled model or the reference by more than 1e-9; %d chain restarts", differ, cells, restarts)
	if restarts == 0 {
		t.Error("no warm re-solve restarted: the guard's path went untested")
	}
}
