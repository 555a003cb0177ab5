package te

import (
	"fmt"
	"math"
	"math/rand"
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
		pm, err := arrowPhase1Colgen(n, callView(n, v.scs, nil), nil, false)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		basis := &lp.Basis{
			VarStatus: pm.sol.Basis.VarStatus[:base.NumVars()],
			RowStatus: pm.sol.Basis.RowStatus[:base.NumConstrs()],
		}
		out = append(out, KernelSolve{v.name, pm.bm.m.NumConstrs(), pm.bm.m.NumVars(), pm.iters, basis})
		winners = pickWinners(callView(n, scs, nil), pm.sol.X)
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
		sol, err := solveModel(new(lp.Solution), bm.m, bm.m.Name(), nil, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		out = append(out, KernelSolve{v.name, bm.m.NumConstrs(), bm.m.NumVars(), sol.Iterations, sol.Basis})
	}

	m, _, err := teavarModel(n, plain, 0.999)
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

// arrowPhase1Dispatch is phase1Winners on a view of its own.
func arrowPhase1Dispatch(n *Network, scs []RestorableScenario, opts *ArrowOptions) ([]int, SolveStats, error) {
	return phase1Winners(n, callView(n, scs, nil), opts)
}

// totalRestored is the capacity the winners restore in all, each
// scenario's failed links counted once, as a map of them holds them.
func totalRestored(scs []RestorableScenario, winners []int) float64 {
	t := 0.0
	for qi := range scs {
		plan := map[int]float64{}
		for _, link := range scs[qi].FailedLinks {
			plan[link] = scs[qi].TicketGbps(winners[qi], link)
		}
		for _, g := range plan {
			t += g
		}
	}
	return t
}

// The ARROW checks of arrow_ref_test.go, arrow_equiv_test.go and
// blocks_test.go, for the tests that need an eval pipeline to build their
// instance.
var (
	BuildersMatchReference     = buildersMatchReference
	CheckPhase2Start           = checkPhase2Start
	SameAnswersAsPhase1Start   = sameAnswersAsPhase1Start
	TicketBlocksMatchPerTicket = ticketBlocksMatchPerTicket
)

// Phase2QuotientMatchesFullModel holds the Phase II that ArrowPhase2
// solves for the winners, each distinct row once, to the full Table 3
// model. The two optima agree to 1e-9 relative, and the full model's
// certificate passes at the quotient's optimum: the full model, started
// from the quotient's optimal basis with every row that sets no key's
// bound slack-basic (a duplicate row is implied by the one that does),
// takes no pivot, certifies and holds the quotient's b and a.
func Phase2QuotientMatchesFullModel(n *Network, scs []RestorableScenario, winners []int) error {
	al, err := ArrowPhase2(n, scs, winners, &ArrowOptions{CaptureSensitivity: true})
	if err != nil {
		return fmt.Errorf("quotient: %w", err)
	}
	full := refPhase2Model(n, scs, winners, false)
	want, err := solveModel(new(lp.Solution), full.m, "full", lp.SlackBasis(full.m), nil, nil)
	if err != nil {
		return fmt.Errorf("full model: %w", err)
	}
	if relDiff(want.Objective, al.Objective) > 1e-9 {
		return fmt.Errorf("objective %.15g, the full model's %.15g", al.Objective, want.Objective)
	}
	rows := refPhase2Rows(n, scs, winners, full)
	keptAt, setter := refQuotient(rows)
	base := full.m.NumConstrs() - len(rows)
	qb := al.Sens.Basis
	lifted := &lp.Basis{VarStatus: slices.Clone(qb.VarStatus), RowStatus: slices.Clone(qb.RowStatus[:base])}
	for i := range rows {
		st := lp.BasisBasic
		if setter[i] {
			st = qb.RowStatus[base+keptAt[i]]
		}
		lifted.RowStatus = append(lifted.RowStatus, st)
	}
	got, err := lp.SolveWithBasis(full.m, lifted, nil)
	if err != nil {
		return fmt.Errorf("full model from the lifted basis: %w", err)
	}
	if err := got.Status.Err(); err != nil {
		return fmt.Errorf("full model from the lifted basis: %w", err)
	}
	if err := lp.CheckCertificate(got.Cert, lp.DefaultCertTol); err != nil {
		return fmt.Errorf("full model's certificate at the quotient's optimum: %w", err)
	}
	if got.Iterations != 0 {
		return fmt.Errorf("full model took %d pivots from the quotient's optimal basis", got.Iterations)
	}
	b, a := al.Sens.ExtractAllocation(got.X)
	for f := range b {
		if math.Abs(b[f]-al.B[f]) > 1e-9*(1+math.Abs(al.B[f])) {
			return fmt.Errorf("flow %d: b %v at the lifted basis, the quotient's %v", f, b[f], al.B[f])
		}
		for ti := range a[f] {
			if math.Abs(a[f][ti]-al.A[f][ti]) > 1e-9*(1+math.Abs(al.A[f][ti])) {
				return fmt.Errorf("flow %d tunnel %d: a %v at the lifted basis, the quotient's %v", f, ti, a[f][ti], al.A[f][ti])
			}
		}
	}
	return nil
}

// JointInstances are TestTwoPhaseNeverBeatsJointILP's instances: its
// generator's first 12 that plan at all, with the same seed.
func JointInstances() (nets []*Network, scs [][]RestorableScenario) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 40 && len(nets) < 12; trial++ {
		if n, _, s, _, ok := randomJointInstance(rng); ok {
			nets, scs = append(nets, n), append(scs, s)
		}
	}
	return nets, scs
}

// RefFFC is FFC on the reference model, solved cold: a (4') row for every
// distinct residual set, dominated ones included.
func RefFFC(n *Network, scs []FailureScenario) (*Allocation, error) {
	bm := newBaseModel("ffc-ref", n)
	refAddResidualGuarantees(bm, n, scs)
	sol, err := solveModel(new(lp.Solution), bm.m, bm.m.Name(), nil, nil, nil)
	if err != nil {
		return nil, err
	}
	return bm.extract(n, 1, sol), nil
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
