package te

import (
	"fmt"
	"slices"
	"strconv"

	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/lp"
	"github.com/arrow-te/arrow/internal/pool"
)

// modelPool hands TE models from one solve to the next (DESIGN.md, "ARROW's
// builders"): each goes back once its solve's answer is read off it, except
// the Phase II model Allocation.Sens keeps.
var modelPool pool.Free[lp.Model]

func newModel(name string, maximize bool) *lp.Model {
	m := modelPool.Get()
	m.Reset()
	m.SetName(name)
	m.SetMaximize(maximize)
	return m
}

// baseModel holds the LP variables shared by every scheme: a_{f,t} and b_f,
// with the standard constraints (1)-(3) of Table 2 already added.
type baseModel struct {
	m *lp.Model
	a [][]lp.Var // a_{f,t}
	b []lp.Var   // b_f
	// capRows are the healthy cap_e constraint handles in ascending link
	// order (links with no tunnel traffic get no row), recorded for
	// post-solve sensitivity harvesting.
	capRows []CapRow
	// cross[e] lists the tunnels that traverse link e, ascending (f, ti),
	// each once however often it revisits e: the incidence the ARROW
	// builders read instead of rescanning flows x tunnels x links.
	cross [][]tunnelRef
	row   lp.Expr // the scratch every row is assembled in; AddConstr copies it
}

// tunnelRef names flow f's ti-th tunnel.
type tunnelRef struct{ f, ti int }

// newBaseModel builds the common part of all TE LPs in a pooled model:
//
//	maximise sum_f b_f
//	(1) forall f: sum_t a_{f,t} >= b_f
//	(2) forall e: sum_{f,t} a_{f,t} L[t,e] <= c_e
//	(3) forall f: 0 <= b_f <= d_f
func newBaseModel(name string, n *Network) *baseModel { return baseModelLike(name, n, nil) }

// baseModelLike is newBaseModel on like's variable handles and incidence
// (nil: its own): every base model of n numbers b_f, then f's a_{f,t}, flow
// by flow, so Arrow works them out once for its three models.
func baseModelLike(name string, n *Network, like *baseModel) *baseModel {
	if like == nil {
		like = &baseModel{a: make([][]lp.Var, len(n.Flows)), b: make([]lp.Var, len(n.Flows)), cross: crossOf(n)}
		v := lp.Var(0)
		for f, ts := range n.Tunnels {
			like.b[f], like.a[f] = v, make([]lp.Var, len(ts))
			for ti := range ts {
				v++
				like.a[f][ti] = v
			}
			v++
		}
	}
	m := newModel(name, true)
	bm := &baseModel{m: m, a: like.a, b: like.b, cross: like.cross}
	for f := range n.Flows {
		m.AddVar(0, n.Flows[f].Demand, 1, "") // b_f, (3)
		bm.row = bm.row[:0]
		for _, v := range bm.a[f] {
			m.AddVar(0, lp.Inf, 0, "")
			bm.row = bm.row.Plus(1, v)
		}
		bm.row = bm.row.Plus(-1, bm.b[f])
		m.AddConstr(bm.row, lp.GE, 0, "") // (1)
	}
	for e, refs := range bm.cross {
		if len(refs) > 0 {
			bm.row = capRow(bm.row[:0], n, e, refs, bm.a)
			c := m.AddConstr(bm.row, lp.LE, n.LinkCap[e], "cap_e"+strconv.Itoa(e)) // (2)
			bm.capRows = append(bm.capRows, CapRow{Link: e, Scenario: -1, Constr: c})
		}
	}
	return bm
}

// crossOf returns n's tunnel-link incidence (baseModel.cross).
func crossOf(n *Network) [][]tunnelRef {
	cross := make([][]tunnelRef, len(n.LinkCap))
	for f, ts := range n.Tunnels {
		for ti, t := range ts {
			for _, e := range t.Links {
				if c := cross[e]; len(c) == 0 || c[len(c)-1] != (tunnelRef{f, ti}) {
					cross[e] = append(c, tunnelRef{f, ti})
				}
			}
		}
	}
	return cross
}

// capRow appends to dst constraint (2)'s load on link e off refs = cross[e]:
// a tunnel's a_{f,t} once per crossing, which AddConstr sums into the
// tunnel's multiplicity on e.
func capRow(dst lp.Expr, n *Network, e int, refs []tunnelRef, a [][]lp.Var) lp.Expr {
	for _, c := range refs {
		for _, l := range n.Tunnels[c.f][c.ti].Links {
			if l == e {
				dst = dst.Plus(1, a[c.f][c.ti])
			}
		}
	}
	return dst
}

// tunnelSplit is how one scenario and ticket split flow f's tunnels: res
// avoid every failed link (T_f^q), rst are restorable (Y_f^{z,q}).
type tunnelSplit struct {
	f        int
	res, rst []int
}

// splitScratch is eachTouched's working memory, one per scan (a scenario's
// tickets, a Phase II model); colgen's workers take theirs from splitPool.
type splitScratch struct {
	failed, touched []bool
	res, rst        []int
	key             []byte // coverKey's
}

var splitPool pool.Free[splitScratch]

// eachTouched calls visit, ascending f, with the split of every flow that
// some failed link of q touches under the given per-link restoration, and
// returns q's failedSet. Every other flow keeps all its tunnels and adds no
// row to any ARROW model. The split and the mask are sc's.
func (bm *baseModel) eachTouched(n *Network, q *RestorableScenario, restored func(link int) float64, sc *splitScratch, visit func(tunnelSplit)) []bool {
	failed := failedInto(sc.failed, n, q.FailedLinks)
	touched := append(sc.touched[:0], make([]bool, len(n.Flows))...)
	sc.failed, sc.touched = failed, touched
	for e, down := range failed {
		if down {
			for _, c := range bm.cross[e] {
				touched[c.f] = true
			}
		}
	}
	for f, hit := range touched {
		if hit {
			sc.res, sc.rst = sc.res[:0], sc.rst[:0]
			for ti, t := range n.Tunnels[f] {
				if !slices.ContainsFunc(t.Links, func(e int) bool { return failed[e] }) {
					sc.res = append(sc.res, ti)
				} else if restorable(t, failed, restored) {
					sc.rst = append(sc.rst, ti)
				}
			}
			visit(tunnelSplit{f, sc.res, sc.rst})
		}
	}
	return failed
}

// coverExpr appends to dst the guarantee row of constraints (4) and (10):
// flow s.f's residual plus restorable tunnels carry b_f. ok is false when
// nothing was lost (implied by (1)) or nothing is left (vacuous).
func (bm *baseModel) coverExpr(dst lp.Expr, s tunnelSplit) (e lp.Expr, ok bool) {
	k := len(s.res) + len(s.rst)
	if k == len(bm.a[s.f]) || k == 0 {
		return nil, false
	}
	e = slices.Grow(dst, k+1)
	for _, ti := range s.res {
		e = e.Plus(1, bm.a[s.f][ti])
	}
	for _, ti := range s.rst {
		e = e.Plus(1, bm.a[s.f][ti])
	}
	return e.Plus(-1, bm.b[s.f]), true
}

// restorableLoad appends to dst the allocation on the restorable tunnels
// that cross the failed link, ascending (f, ti): the load of constraints
// (5) and (11). failed is q's failedSet; a link outside it adds nothing.
func (bm *baseModel) restorableLoad(dst lp.Expr, n *Network, link int, failed []bool, restored func(link int) float64) lp.Expr {
	if link < 0 || link >= len(bm.cross) {
		return dst
	}
	for _, c := range bm.cross[link] {
		if restorable(n.Tunnels[c.f][c.ti], failed, restored) {
			dst = dst.Plus(1, bm.a[c.f][c.ti])
		}
	}
	return dst
}

// extract converts an LP solution into an Allocation.
func (bm *baseModel) extract(n *Network, sol *lp.Solution) *Allocation {
	al := &Allocation{
		B:         make([]float64, len(n.Flows)),
		A:         make([][]float64, len(n.Flows)),
		Objective: sol.Objective,
	}
	for f := range n.Flows {
		al.B[f] = sol.X[bm.b[f]]
		al.A[f] = make([]float64, len(bm.a[f]))
		for ti, v := range bm.a[f] {
			al.A[f][ti] = sol.X[v]
		}
	}
	return al.solvedBy(bm.m, sol)
}

// solvedBy records on al the size of the model it was read from, the pivots
// its solve took and the solve's certificate.
func (al *Allocation) solvedBy(m *lp.Model, sol *lp.Solution) *Allocation {
	al.Stats.Phase2Vars = m.NumVars()
	al.Stats.Phase2Rows = m.NumConstrs()
	al.Stats.Phase2Iters = sol.Iterations
	al.Cert = sol.Cert
	return al
}

// Baselines solves the schemes ARROW is compared against (§6): FFC, TeaVaR,
// ECMP and the Fully-Restorable max-throughput TE, under one session's LP
// options, so the session's recorder counts their solves and its health
// probes watch them. The package-level FFC, TeaVaR, ECMP and MaxThroughput
// solve with the zero value, unobserved. There is no cold path: every
// baseline LP starts from its all-slack basis. Every FFC, ECMP and
// max-throughput row holds at x = 0, so phase 1 is skipped; TeaVaR's cvar
// rows are the only ones x = 0 violates, and the warm engine's selective
// repair swaps their slacks for artificials that one pivot of theta drives
// out, where a cold start would re-derive the whole vertex in phase 1.
type Baselines struct {
	LP *lp.Options
}

// solveModel is how every LP of this package is solved: from start (nil:
// cold) under opts, bracketed on L (nil: unrecorded) by the solve_start,
// warm_start, solve_end and solver-health events of solver, and failing on
// any status but optimal or a certificate that does not pass at
// lp.DefaultCertTol. The models are feasible by construction (b = a = 0
// always works) and bounded (b_f <= d_f; TeaVaR minimises a CVaR >= 0), so
// anything else is an internal error.
func solveModel(m *lp.Model, solver string, start *lp.Basis, opts *lp.Options, L *ledger.Ledger) (*lp.Solution, error) {
	if L != nil {
		L.Emit(ledger.Event{Kind: ledger.KindSolveStart, Scenario: -1, Solver: solver})
	}
	sol, err := lp.SolveWithBasis(m, start, opts)
	if err != nil {
		return nil, fmt.Errorf("te: %s: %w", solver, err)
	}
	if L != nil {
		emitWarmStart(L, solver, sol)
		L.Emit(ledger.Event{
			Kind: ledger.KindSolveEnd, Scenario: -1, Solver: solver,
			Status: sol.Status.String(), Cert: sol.Cert,
		})
		ledger.EmitSolverHealth(L, -1, solver, sol.Health)
	}
	if err := sol.Status.Err(); err != nil {
		return nil, fmt.Errorf("te: %s: %w", solver, err)
	}
	if err := lp.CheckCertificate(sol.Cert, lp.DefaultCertTol); err != nil {
		return nil, fmt.Errorf("te: %s: certificate: %w", solver, err)
	}
	return sol, nil
}

// emitWarmStart records a warm-started solve's outcome on the ledger:
// whether the starting basis let the solver skip phase 1 entirely, was
// accepted (possibly after repair), or was rejected in favour of a cold
// start, plus the phase-1 pivots saved versus a cold start.
func emitWarmStart(L *ledger.Ledger, solver string, sol *lp.Solution) {
	if sol.Warm == nil {
		return
	}
	wi := sol.Warm
	status := "rejected"
	switch {
	case wi.Phase1Skipped:
		status = "phase1_skipped"
	case wi.Accepted:
		status = "accepted"
	}
	L.Emit(ledger.Event{
		Kind: ledger.KindWarmStart, Scenario: -1, Solver: solver,
		Status: status, Count: wi.PivotsSaved,
	})
}

// solve runs a baseline model from its all-slack basis and returns the
// model to the pool.
func (bm *baseModel) solve(n *Network, opts *lp.Options) (*Allocation, error) {
	sol, err := solveModel(bm.m, bm.m.Name(), lp.SlackBasis(bm.m), opts, nil)
	if err != nil {
		return nil, err
	}
	al := bm.extract(n, sol)
	modelPool.Put(bm.m)
	return al, nil
}

// MaxConcurrentScale solves the max-concurrent-flow problem: the largest
// uniform demand scale s such that EVERY flow can be fully satisfied at
// demand s*d_f within link capacities. Used to normalise traffic matrices
// to the paper's "demand scale 1.0" (a fully satisfiable starting state).
//
// Unlike the baselines it solves cold, on purpose: s sets the demand level
// of every availability-sweep cell, and a slack start moves it in the last
// bits, which moves ARROW's cells with it.
func MaxConcurrentScale(n *Network) (float64, error) {
	if err := n.Validate(); err != nil {
		return 0, err
	}
	m := newModel("max-concurrent", true)
	defer modelPool.Put(m)
	s := m.AddVar(0, lp.Inf, 1, "")
	a := make([][]lp.Var, len(n.Flows))
	var row lp.Expr
	for f := range n.Flows {
		a[f] = make([]lp.Var, len(n.Tunnels[f]))
		row = row[:0]
		for ti := range n.Tunnels[f] {
			a[f][ti] = m.AddVar(0, lp.Inf, 0, "")
			row = row.Plus(1, a[f][ti])
		}
		row = row.Plus(-n.Flows[f].Demand, s)
		m.AddConstr(row, lp.GE, 0, "")
	}
	for e, refs := range crossOf(n) {
		if len(refs) > 0 {
			row = capRow(row[:0], n, e, refs, a)
			m.AddConstr(row, lp.LE, n.LinkCap[e], "")
		}
	}
	sol, err := solveModel(m, m.Name(), nil, nil, nil)
	if err != nil {
		return 0, err
	}
	return sol.X[s], nil
}

// MaxThroughput solves the failure-oblivious multi-commodity flow problem:
// constraints (1)-(3) only. It doubles as the hypothetical Fully Restorable
// TE of Fig. 16 (a TE that can always restore every failure needs no
// failure constraints).
func MaxThroughput(n *Network) (*Allocation, error) { return Baselines{}.MaxThroughput(n) }

// MaxThroughput is the package-level MaxThroughput under bl's LP options.
func (bl Baselines) MaxThroughput(n *Network) (*Allocation, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return newBaseModel("max-throughput", n).solve(n, bl.LP)
}
