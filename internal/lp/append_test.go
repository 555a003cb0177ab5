package lp

import (
	"math"
	"testing"
)

// chainModel builds max sum x_i with x_i in [0, 10] and coupling rows
// x_i + x_{i+1} <= 12 — a model whose cold solve takes a nontrivial pivot
// walk, used to exercise warm re-solves after column/row appends.
func chainModel(n int) (*Model, []Var) {
	m := NewModel("chain")
	m.SetMaximize(true)
	vars := make([]Var, n)
	for i := range vars {
		vars[i] = m.AddVar(0, 10, 1, "x")
	}
	for i := 0; i+1 < n; i++ {
		m.AddConstr(Expr{}.Plus(1, vars[i]).Plus(1, vars[i+1]), LE, 12, "couple")
	}
	return m, vars
}

// TestAppendColumnIntoAllSlackBasis prices a column into a master whose
// warm basis is the untouched all-slack basis — the state a column
// generation loop is in before its first re-solve. The appended column must
// enter the basis on its own merit and the warm solve must agree with a
// cold solve of the grown model.
func TestAppendColumnIntoAllSlackBasis(t *testing.T) {
	m := NewModel("seed")
	m.SetMaximize(true)
	x := m.AddVar(0, 5, 1, "x")
	c := m.AddConstr(Expr{}.Plus(1, x), LE, 8, "cap")

	basis := SlackBasis(m)
	// Price in a second, more profitable column sharing the capacity row.
	m.AddVarToConstrs(0, Inf, 3, "y", []ColumnEntry{{Constr: c, Coef: 1}})
	basis.ExtendTo(m)
	if got, want := len(basis.VarStatus), m.NumVars(); got != want {
		t.Fatalf("basis covers %d vars after ExtendTo, want %d", got, want)
	}

	sol, err := SolveWithBasis(m, basis, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status %v", sol.Status)
	}
	// Optimum: y = 8 (takes the whole row), x = 0, objective 24.
	if math.Abs(sol.Objective-24) > 1e-7 {
		t.Fatalf("objective %g, want 24", sol.Objective)
	}
	if sol.Warm == nil || !sol.Warm.Accepted {
		t.Fatalf("all-slack basis not accepted: %+v", sol.Warm)
	}
}

// TestAppendColumnOntoTruncatedWarmBasis replays the restricted-master
// truncation idiom: solve a grown model, truncate model AND basis back to a
// skeleton prefix, regrow with different rows plus a priced-in column, and
// warm-solve from the extended basis. The truncated basis must stay usable
// as a warm start for the regrown model.
func TestAppendColumnOntoTruncatedWarmBasis(t *testing.T) {
	m, vars := chainModel(6)
	baseRows := m.NumConstrs()
	// Grow: a block row that binds the head of the chain.
	m.AddConstr(Expr{}.Plus(1, vars[0]).Plus(1, vars[2]), LE, 9, "blk0")
	sol, err := SolveWithBasis(m, SlackBasis(m), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal || sol.Basis == nil {
		t.Fatalf("grown solve: status %v basis %v", sol.Status, sol.Basis)
	}

	// Truncate the block away again, basis in lockstep with the model.
	m.TruncateConstrs(baseRows)
	skel := sol.Basis.Clone()
	skel.RowStatus = skel.RowStatus[:baseRows]

	// Regrow with a DIFFERENT block and a relaxation column on it, colgen
	// style: load - u <= rhs with u bounded.
	c := m.AddConstr(Expr{}.Plus(1, vars[1]).Plus(1, vars[3]).Plus(1, vars[5]), LE, 14, "blk1")
	m.AddVarToConstrs(0, 2, 0, "relax", []ColumnEntry{{Constr: c, Coef: -1}})
	skel.ExtendTo(m)
	if len(skel.RowStatus) != m.NumConstrs() || len(skel.VarStatus) != m.NumVars() {
		t.Fatalf("ExtendTo left basis at %dv/%dr for model %dv/%dr",
			len(skel.VarStatus), len(skel.RowStatus), m.NumVars(), m.NumConstrs())
	}

	warm, err := SolveWithBasis(m, skel, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Solve(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != StatusOptimal || cold.Status != StatusOptimal {
		t.Fatalf("status warm %v cold %v", warm.Status, cold.Status)
	}
	if math.Abs(warm.Objective-cold.Objective) > 1e-7 {
		t.Fatalf("warm objective %g != cold %g", warm.Objective, cold.Objective)
	}
	if warm.Warm == nil || !warm.Warm.Accepted {
		t.Fatalf("truncated skeleton basis not accepted: %+v", warm.Warm)
	}
}

// TestWarmResolveAfterViolatedRowAppend pins both warm paths of a row
// appended VIOLATED at the previous optimum (the signature of every
// column-generation re-solve): it must not cost the warm start its basis.
// As appended, the basis still prices out, and the dual simplex takes the
// solve. With a column that prices in appended too, it does not, and the
// selective repair does: the solver swaps the out-of-bound row slacks for
// their artificials and keeps the rest of the vertex. Either way the
// re-solve must take far fewer pivots than the cold walk, which re-derives
// the whole 40-variable vertex.
//
// The chain's optimum is dual degenerate (half the pair rows are tight at a
// zero dual), so the dual's first step pushes a run of basics out of bounds
// by equal amounts. Taking the lowest of them first walks the whole run one
// zero step at a time (40 pivots against the repair's 13); the highest
// first, the rule pickLeaving keeps, repairs it in 9.
func TestWarmResolveAfterViolatedRowAppend(t *testing.T) {
	for _, priced := range []bool{false, true} {
		m, vars := chainModel(40)
		sol, err := SolveWithBasis(m, SlackBasis(m), nil)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != StatusOptimal {
			t.Fatalf("status %v", sol.Status)
		}

		// Append a global cap strictly below the current optimum value: the
		// previous vertex violates it, so its slack starts out of bounds.
		var all Expr
		for _, v := range vars {
			all = all.Plus(1, v)
		}
		limit := sol.Objective * 0.8
		m.AddConstr(all, LE, limit, "globalcap")
		if priced {
			m.AddVar(0, 1, 1, "bonus") // prices in at zero, off every row
			limit++
		}
		basis := sol.Basis.Clone()
		basis.ExtendTo(m)

		warm, err := SolveWithBasis(m, basis, nil)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Solve(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != StatusOptimal || cold.Status != StatusOptimal {
			t.Fatalf("priced=%v: status warm %v cold %v", priced, warm.Status, cold.Status)
		}
		if math.Abs(warm.Objective-limit) > 1e-7 || math.Abs(cold.Objective-limit) > 1e-7 {
			t.Fatalf("priced=%v: objectives warm %g cold %g, want %g", priced, warm.Objective, cold.Objective, limit)
		}
		if warm.Warm == nil || !warm.Warm.Accepted {
			t.Fatalf("priced=%v: warm basis rejected after violated append: %+v", priced, warm.Warm)
		}
		if warm.Warm.Phase1Skipped {
			t.Fatalf("priced=%v: phase 1 reported skipped on a primal-infeasible warm basis", priced)
		}
		if warm.Warm.Dual == priced {
			t.Fatalf("priced=%v: dual simplex %v", priced, warm.Warm.Dual)
		}
		if warm.Iterations*2 >= cold.Iterations {
			t.Errorf("priced=%v: warm re-solve took %d pivots vs cold %d; expected < half",
				priced, warm.Iterations, cold.Iterations)
		}
	}
}

// TestWarmAppendManyViolatedRows drives the selective repair through a bulk
// append — several violated rows at once, as a batched pricing sweep
// produces — and checks the repaired solve still agrees with cold.
func TestWarmAppendManyViolatedRows(t *testing.T) {
	m, vars := chainModel(24)
	sol, err := SolveWithBasis(m, SlackBasis(m), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+2 < len(vars); i += 3 {
		e := Expr{}.Plus(1, vars[i]).Plus(1, vars[i+1]).Plus(1, vars[i+2])
		m.AddConstr(e, LE, 11, "trio") // violated: optimum packs > 11 per trio
	}
	basis := sol.Basis.Clone()
	basis.ExtendTo(m)
	warm, err := SolveWithBasis(m, basis, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Solve(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != StatusOptimal || cold.Status != StatusOptimal {
		t.Fatalf("status warm %v cold %v", warm.Status, cold.Status)
	}
	if math.Abs(warm.Objective-cold.Objective) > 1e-7 {
		t.Fatalf("warm objective %g != cold %g", warm.Objective, cold.Objective)
	}
}
