package te

import (
	"fmt"
	"strconv"

	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/lp"
	"github.com/arrow-te/arrow/internal/pool"
)

// modelPool hands TE models from one solve to the next (DESIGN.md, "ARROW's
// builders"): each goes back once its solve's answer is read off it, except
// the Phase II model Allocation.Sens keeps.
var modelPool pool.Free[lp.Model]

// solutionPool hands LP solutions from one solve to the next the same way:
// each goes back once its answer is read, except the captured Phase II
// solution, whose Basis and Duals Allocation.Sens keeps (see lp.SolveInto).
var solutionPool pool.Free[lp.Solution]

// basisPool hands all-slack start bases (Basis.ResetSlack) from one solve to
// the next: a solve only reads its start, which lp.SolveInto neither changes
// nor keeps, so each goes back as soon as the solve returns.
var basisPool pool.Free[lp.Basis]

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
	// order (links with no tunnel traffic get no row), recorded, and the
	// rows named, only on a model built for capture: attribution
	// (Allocation.Sens) is their one reader.
	capRows []CapRow
	// cross[e] lists the tunnels that traverse link e, ascending (f, ti),
	// each once however often it revisits e: n.incidence(), read-only, as
	// it may be shared by every solve of the network.
	cross [][]tunnelRef
	row   lp.Expr // the scratch every row is assembled in; AddConstr copies it
}

// tunnelRef names flow f's ti-th tunnel.
type tunnelRef struct{ f, ti int32 }

// newBaseModel builds the common part of all TE LPs in a pooled model:
//
//	maximise sum_f b_f
//	(1) forall f: sum_t a_{f,t} >= b_f
//	(2) forall e: sum_{f,t} a_{f,t} L[t,e] <= c_e
//	(3) forall f: 0 <= b_f <= d_f
func newBaseModel(name string, n *Network) *baseModel { return baseModelLike(name, n, nil, false) }

// baseModelLike is newBaseModel on like's variable handles, incidence and
// row scratch (nil: n's, see layout and incidence, and a scratch of its
// own): every base model of n numbers b_f, then f's a_{f,t}, flow by flow,
// so Arrow works them out once per solve, in its view (splitView.base),
// for its three models. The caller that passes like hands the model's row
// back to it when done. A model built to capture names its capacity rows
// and records them in capRows.
func baseModelLike(name string, n *Network, like *baseModel, capture bool) *baseModel {
	m := newModel(name, true)
	bm := &baseModel{m: m}
	if like != nil {
		bm.a, bm.b, bm.cross, bm.row = like.a, like.b, like.cross, like.row
	} else {
		l := n.layout()
		bm.a, bm.b, bm.cross = l.a, l.b, n.incidence()
	}
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
			if !capture {
				m.AddConstr(bm.row, lp.LE, n.LinkCap[e], "") // (2)
				continue
			}
			c := m.AddConstr(bm.row, lp.LE, n.LinkCap[e], "cap_e"+strconv.Itoa(e))
			bm.capRows = append(bm.capRows, CapRow{Link: e, Scenario: -1, Constr: c})
		}
	}
	return bm
}

// varLayout is the variable numbering every base model of a network
// shares: b_f, then f's a_{f,t}, flow by flow. It depends only on the shape
// of the network's tunnels, and is read-only once made.
type varLayout struct {
	a    [][]lp.Var // a_{f,t}
	b    []lp.Var   // b_f
	vars []lp.Var   // the array every flow's a_{f,t} are cut from
}

// number numbers n's base-model variables in l, on l's arrays where they
// are large enough.
func (l *varLayout) number(n *Network) {
	tunnels := 0
	for _, ts := range n.Tunnels {
		tunnels += len(ts)
	}
	l.a, l.b, l.vars = resize(l.a, len(n.Tunnels)), resize(l.b, len(n.Tunnels)), resize(l.vars, tunnels)
	v, vars := lp.Var(0), l.vars
	for f, ts := range n.Tunnels {
		l.b[f], l.a[f], vars = v, vars[:len(ts):len(ts)], vars[len(ts):]
		for ti := range ts {
			v++
			l.a[f][ti] = v
		}
		v++
	}
}

// crossTable is a tunnel–link incidence (baseModel.cross) and the arrays it
// is built on: refs backs every link's list, and at and last are build's
// counts.
type crossTable struct {
	cross    [][]tunnelRef
	refs     []tunnelRef
	at, last []int32
}

// crossOf returns n's tunnel–link incidence in arrays of its own.
func crossOf(n *Network) [][]tunnelRef { return new(crossTable).build(n) }

// build lays n's incidence out in c, on c's arrays where they are large
// enough, and returns it: one pass counts each link's tunnels, the next
// files them, so no link's list grows by appends.
func (c *crossTable) build(n *Network) [][]tunnelRef {
	// at[e+1] counts link e's tunnels, then, summed, ends its list; last[e]
	// is 1 + the last tunnel filed under e, numbered across flows.
	links := len(n.LinkCap)
	c.at, c.last = resize(c.at, links+1), resize(c.last, links)
	at, last := c.at, c.last
	id := int32(0)
	for _, ts := range n.Tunnels {
		for _, t := range ts {
			id++
			for _, e := range t.Links {
				if last[e] != id {
					last[e] = id
					at[e+1]++
				}
			}
		}
	}
	for e := range links {
		at[e+1] += at[e]
	}
	c.refs, c.cross = resize(c.refs, int(at[links])), resize(c.cross, links)
	refs, cross := c.refs, c.cross
	for e := range cross {
		if at[e] < at[e+1] { // a link no tunnel crosses keeps a nil list
			cross[e] = refs[at[e]:at[e]:at[e+1]]
		}
	}
	for f, ts := range n.Tunnels {
		for ti, t := range ts {
			ref := tunnelRef{int32(f), int32(ti)}
			for _, e := range t.Links {
				if list := cross[e]; len(list) == 0 || list[len(list)-1] != ref {
					cross[e] = append(list, ref)
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

// extract converts an LP solution into an Allocation at demand scale s:
// every b_f, a_{f,t} and the objective read s times their value in sol (a
// model solved at scale 1 has s = 1, exact).
func (bm *baseModel) extract(n *Network, s float64, sol *lp.Solution) *Allocation {
	al := &Allocation{
		B:         make([]float64, len(n.Flows)),
		A:         make([][]float64, len(n.Flows)),
		Objective: float64(s * sol.Objective),
	}
	for f := range n.Flows {
		al.B[f] = float64(s * sol.X[bm.b[f]])
		al.A[f] = make([]float64, len(bm.a[f]))
		for ti, v := range bm.a[f] {
			al.A[f][ti] = float64(s * sol.X[v])
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
// baseline LP starts from its all-slack basis, except a TeaVaR or FFC
// re-solve along a chain of demand scales (TeaVaRScales, FFCScales), which
// starts from the previous scale's optimal basis. Every FFC, ECMP and
// max-throughput row holds at x = 0, so phase 1 is skipped; TeaVaR's cvar
// rows are the only ones x = 0 violates, and the warm engine's selective
// repair swaps their slacks for artificials that one pivot of theta drives
// out, where a cold start would re-derive the whole vertex in phase 1.
type Baselines struct {
	LP *lp.Options
}

// solveModel is how every LP of this package is solved: into dst, from start
// (nil: cold) under opts, bracketed on L (nil: unrecorded) by the solve_start,
// warm_start, solve_end and solver-health events of solver, and failing on
// any status but optimal or a certificate that does not pass at
// lp.DefaultCertTol. The models are feasible by construction (b = a = 0
// always works) and bounded (b_f <= d_f; TeaVaR minimises a CVaR >= 0), so
// anything else is an internal error.
func solveModel(dst *lp.Solution, m *lp.Model, solver string, start *lp.Basis, opts *lp.Options, L *ledger.Ledger) (*lp.Solution, error) {
	if L != nil {
		L.Emit(ledger.Event{Kind: ledger.KindSolveStart, Scenario: -1, Solver: solver})
	}
	sol, err := lp.SolveInto(dst, m, start, opts)
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
// whether the starting basis let the solver skip phase 1 entirely, took the
// dual simplex in its place, was accepted (possibly after repair), or was
// rejected in favour of a cold start, plus the phase-1 pivots saved versus
// a cold start.
func emitWarmStart(L *ledger.Ledger, solver string, sol *lp.Solution) {
	if sol.Warm == nil {
		return
	}
	wi := sol.Warm
	status := "rejected"
	switch {
	case wi.Phase1Skipped:
		status = "phase1_skipped"
	case wi.Dual:
		status = "dual"
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
	dst, slack := solutionPool.Get(), basisPool.Get()
	defer solutionPool.Put(dst)
	defer basisPool.Put(slack)
	slack.ResetSlack(bm.m)
	sol, err := solveModel(dst, bm.m, bm.m.Name(), slack, opts, nil)
	if err != nil {
		return nil, err
	}
	al := bm.extract(n, 1, sol)
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
	for e, refs := range n.incidence() {
		if len(refs) > 0 {
			row = capRow(row[:0], n, e, refs, a)
			m.AddConstr(row, lp.LE, n.LinkCap[e], "")
		}
	}
	dst := solutionPool.Get()
	defer solutionPool.Put(dst)
	sol, err := solveModel(dst, m, m.Name(), nil, nil, nil)
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
