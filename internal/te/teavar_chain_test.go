package te

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/arrow-te/arrow/internal/lp"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/race"
)

// slackTeaVaR is TeaVaR as a cell solved it before the scale chain: n's own
// model from the all-slack basis, its allocation read off the solution.
func slackTeaVaR(n *Network, scs []FailureScenario, beta float64) (*Allocation, error) {
	m, a, err := teavarModel(n, scs, beta)
	if err != nil {
		return nil, err
	}
	sol, err := solveModel(new(lp.Solution), m, m.Name(), lp.SlackBasis(m), nil, nil)
	if err != nil {
		return nil, err
	}
	al := &Allocation{B: make([]float64, len(n.Flows)), A: make([][]float64, len(n.Flows))}
	for f := range n.Flows {
		al.A[f] = make([]float64, len(a[f]))
		sum := 0.0
		for ti, v := range a[f] {
			al.A[f][ti] = sol.X[v]
			sum += sol.X[v]
		}
		al.B[f] = math.Min(n.Flows[f].Demand, sum)
		al.Objective += al.B[f]
	}
	return al.solvedBy(m, sol), nil
}

// TestTeaVaROneScaleChainIsTheCellSolve: TeaVaR, the one-scale chain at
// scale 1, solves n's own model from the all-slack basis, so its
// allocation, stats and certificate are the ones a cell's solve returned
// before there were chains.
func TestTeaVaROneScaleChainIsTheCellSolve(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		n, scs := randomBaselineInstance(rand.New(rand.NewSource(seed)))
		want, err := slackTeaVaR(n, scs, 0.999)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, err := TeaVaR(n, scs, &TeaVaROptions{Beta: 0.999})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: the one-scale chain's allocation differs from the cell solve's:\n%+v\nvs\n%+v", seed, got, want)
		}
	}
}

// chainScales climb as the availability sweep's do, then fall back and
// climb again, so the warm re-solves meet capacities that shrink as well
// as ones that grow.
var chainScales = []float64{1, 1.5, 2, 2.5, 3, 4, 5, 6, 7, 0.5, 3.5}

// TestTeaVaRScalesMatchReference holds every cell of a chain to its own
// scaled network: the allocation fits the link capacities, its CVaR is the
// chain's optimum, b_f = min(s·d_f, sum_t a_{f,t}), the certificate passes,
// and the optimum is no worse, to 1e-9 relative, than a solve of the scaled
// network's model from the all-slack basis or than the reference model's.
//
// It is not always equal to them: at the larger scales the scaled models
// carry the demand's magnitude in their variables and end within the
// solver's reduced-cost tolerance of their optimum, up to 2e-4 relative
// above the chain's on these instances, while the chain's model keeps
// s_f^q below d_f at every scale. The small first solves here give the
// warm re-solves a tight pivot budget, so some chains restart, and the
// restarted cells are held to the same checks.
func TestTeaVaRScalesMatchReference(t *testing.T) {
	if race.Enabled {
		t.Skip("solves 5,000 LPs on one goroutine: 2 s, 30 s under the race detector")
	}
	reg := obs.NewRegistry()
	bl := Baselines{LP: &lp.Options{Recorder: reg}}
	noWorse := func(seed int64, s, got, want float64, what string) {
		t.Helper()
		if got-want > 1e-9*(1+math.Abs(want)) {
			t.Errorf("seed %d scale %g: objective %.15g, %s %.15g", seed, s, got, what, want)
		}
	}
	agree, cells := 0, 0
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, scs := randomBaselineInstance(rng)
		beta := []float64{0.9, 0.99, 0.999}[rng.Intn(3)]
		als, err := bl.TeaVaRScales(n, scs, &TeaVaROptions{Beta: beta}, chainScales)
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
			if obj, _, _, _ := teavarValue(ns, scs, al.A, beta, teavarTieBreak); relDiff(obj, al.Cert.Primal) > evalTol {
				t.Errorf("seed %d scale %g: CVaR of the allocation %.12g, LP objective %.12g", seed, s, obj, al.Cert.Primal)
			}
			total := 0.0
			for f, as := range al.A {
				sum := 0.0
				for _, a := range as {
					sum += a
				}
				if want := math.Min(ns.Flows[f].Demand, sum); al.B[f] != want {
					t.Errorf("seed %d scale %g: b_%d = %g, want %g", seed, s, f, al.B[f], want)
				}
				total += al.B[f]
			}
			if al.Objective != total {
				t.Errorf("seed %d scale %g: objective %g, admitted %g", seed, s, al.Objective, total)
			}

			cell, err := slackTeaVaR(ns, scs, beta)
			if err != nil {
				t.Fatalf("seed %d scale %g: %v", seed, s, err)
			}
			ref, _, _, _, _, err := refTeavarModel(ns, scs, beta, teavarTieBreak)
			if err != nil {
				t.Fatalf("seed %d scale %g: reference: %v", seed, s, err)
			}
			refSol, err := lp.Solve(ref, nil)
			if err != nil || refSol.Status != lp.StatusOptimal {
				t.Fatalf("seed %d scale %g: reference: %v %v", seed, s, err, refSol.Status)
			}
			noWorse(seed, s, al.Cert.Primal, cell.Cert.Primal, "the scaled model's")
			noWorse(seed, s, al.Cert.Primal, refSol.Objective, "the reference's")
			cells++
			if relDiff(cell.Cert.Primal, al.Cert.Primal) <= 1e-9 && relDiff(refSol.Objective, al.Cert.Primal) <= 1e-9 {
				agree++
			}
		}
	}
	restarts := reg.Counter("te.chain_restarts")
	t.Logf("%d of %d cells equal both to 1e-9; %d chain restarts", agree, cells, restarts)
	if restarts == 0 {
		t.Error("no warm re-solve restarted: the guard's path went untested")
	}
}
