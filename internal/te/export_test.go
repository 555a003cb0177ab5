package te

import (
	"fmt"
	"slices"

	"github.com/arrow-te/arrow/internal/lp"
)

// KernelSolve is what one of this package's LPs looked like to the simplex
// kernel: its size, the pivots it took and the basis it ended on.
type KernelSolve struct {
	Name               string
	Rows, Vars, Pivots int
	Basis              *lp.Basis
}

// KernelSolves solves the LPs behind Arrow (phase I as the full model, every
// ticket seeded, and as a column-generation master, phase II from the
// all-slack basis), FFC and
// TeaVaR on one instance, for the golden test of the solver's pivot
// sequence. A phase-I line pins the final master basis over the base
// model's variables and rows, the part every master shares. The FFC and
// TeaVaR models are solved cold, although FFC and TeaVaR themselves start
// from the slack basis: the cold walk is the longer test of the kernel.
func KernelSolves(n *Network, scs []RestorableScenario, ffc1, plain []FailureScenario) ([]KernelSolve, error) {
	var out []KernelSolve
	var winners []int
	base := newBaseModel("base", n).m
	for _, v := range []struct {
		name string
		scs  []RestorableScenario
	}{{"te.phase1.full", allSeeded(scs)}, {"te.phase1.colgen", scs}} {
		pm, err := arrowPhase1Colgen(n, v.scs, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		basis := &lp.Basis{
			VarStatus: pm.sol.Basis.VarStatus[:base.NumVars()],
			RowStatus: pm.sol.Basis.RowStatus[:base.NumConstrs()],
		}
		out = append(out, KernelSolve{v.name, pm.bm.m.NumConstrs(), pm.bm.m.NumVars(), pm.iters, basis})
		winners = pickWinners(scs, pm.refLoad, pm.sol.X)
	}
	al, err := ArrowPhase2(n, scs, winners, &ArrowOptions{CaptureSensitivity: true})
	if err != nil {
		return nil, fmt.Errorf("te.phase2: %w", err)
	}
	out = append(out, KernelSolve{"te.phase2", al.Stats.Phase2Rows, al.Stats.Phase2Vars, al.Stats.Phase2Iters, al.Sens.Basis})

	for _, v := range []struct {
		name string
		scs  []FailureScenario
	}{{"te.ffc1", ffc1}, {"te.ffc.plain", plain}} {
		bm := newBaseModel("ffc", n)
		addResidualGuarantees(bm, n, v.scs)
		sol, err := solveModel(bm.m, bm.m.Name(), nil, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		out = append(out, KernelSolve{v.name, bm.m.NumConstrs(), bm.m.NumVars(), sol.Iterations, sol.Basis})
	}

	m, _, err := teavarModel(n, plain, 0.999, 1e-3)
	if err != nil {
		return nil, err
	}
	sol, err := lp.Solve(m, nil)
	if err != nil {
		return nil, fmt.Errorf("te.teavar: %w", err)
	}
	out = append(out, KernelSolve{"te.teavar", m.NumConstrs(), m.NumVars(), sol.Iterations, sol.Basis})
	return out, nil
}

// allSeeded is scs with every ticket seeded: the column-generation master
// then starts as the full enumeration and its sweeps price nothing in.
func allSeeded(scs []RestorableScenario) []RestorableScenario {
	out := slices.Clone(scs)
	for qi := range out {
		out[qi].Seeds = len(out[qi].Tickets)
	}
	return out
}

// buildTicketBlock is one ticket's block built in a scratch of its own, for
// the tests that take blocks one at a time.
func buildTicketBlock(n *Network, q *RestorableScenario, z int, bm *baseModel) p1Block {
	return new(splitScratch).ticketBlock(n, q, z, bm)
}

// arrowPhase1Dispatch is phase1Winners without the master it leaves.
func arrowPhase1Dispatch(n *Network, scs []RestorableScenario, opts *ArrowOptions) ([]int, SolveStats, error) {
	winners, stats, _, err := phase1Winners(n, scs, opts)
	return winners, stats, err
}

// totalRestored is the capacity al's restoration plan revives in all.
func totalRestored(al *Allocation) float64 {
	t := 0.0
	for _, plan := range al.RestoredGbps {
		for _, g := range plan {
			t += g
		}
	}
	return t
}

// The ARROW checks of arrow_ref_test.go and arrow_equiv_test.go, for the
// tests that need an eval pipeline to build their instance.
var (
	BuildersMatchReference   = buildersMatchReference
	CheckPhase2Start         = checkPhase2Start
	SameAnswersAsPhase1Start = sameAnswersAsPhase1Start
)

// RefFFC is FFC on the reference model, solved cold: a (4') row for every
// distinct residual set, dominated ones included.
func RefFFC(n *Network, scs []FailureScenario) (*Allocation, error) {
	bm := newBaseModel("ffc-ref", n)
	refAddResidualGuarantees(bm, n, scs)
	sol, err := solveModel(bm.m, bm.m.Name(), nil, nil, nil)
	if err != nil {
		return nil, err
	}
	return bm.extract(n, sol), nil
}

// RefTeaVaRObjective is the optimum of TeaVaR's reference LP, with an s
// variable for every (flow, scenario), at the default tie-break weight.
func RefTeaVaRObjective(n *Network, scs []FailureScenario, beta float64) (float64, error) {
	m, _, _, _, _, err := refTeavarModel(n, scs, beta, 1e-3)
	if err != nil {
		return 0, err
	}
	sol, err := lp.Solve(m, nil)
	if err != nil {
		return 0, err
	}
	if sol.Status != lp.StatusOptimal {
		return 0, fmt.Errorf("te: teavar reference: status %v", sol.Status)
	}
	return sol.Objective, nil
}
