package lp

import (
	"math"
	"testing"
)

// TestDualPivotGuard holds the dual simplex to the pivot ρ and the entering
// column agree on. A column copy given a coefficient of 1e-12 where the
// model's row has 1 makes the pivot row read 1 and the FTRAN 1e-12, on fresh
// factors: the dual must give up before it divides by that, leaving the
// basis and every value as they were. The same column at 5e-9 in both is a
// small pivot they agree on, above dualPivotTol, and the dual takes it.
func TestDualPivotGuard(t *testing.T) {
	for _, coef := range []float64{5e-9, 1} {
		m := NewModel("pivot-guard")
		y := m.AddVar(0, Inf, 1, "y")
		m.AddConstr(Expr{}.Plus(1, y), LE, 1e8, "cap")
		sol, err := Solve(m, nil)
		if err != nil || sol.Status != StatusOptimal {
			t.Fatalf("base: %+v, %v", sol, err)
		}
		m.AddConstr(Expr{}.Plus(coef, y), GE, 0.05, "new")
		basis := sol.Basis.Clone()
		basis.ExtendTo(m)

		sx, err := newSimplex(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		wi := &WarmInfo{}
		sx.warm = wi
		if !sx.installWarmBasis(basis, wi) || !sx.warmFactorize(wi) || !sx.dualPrices(sx.cost) {
			t.Fatalf("coef %g: warm basis not installed dual feasible", coef)
		}
		if coef == 1 {
			sx.cols[y].vals[1] = 1e-12 // the model's row still reads 1
		}
		x := append([]float64(nil), sx.x...)
		basisOf := append([]int(nil), sx.basisOf...)
		st, err := sx.dual()
		if err != nil {
			t.Fatal(err)
		}
		if coef != 1 {
			if st != StatusOptimal || sx.dualIters != 1 || math.Abs(sx.x[y]-1e7) > 1e-3 {
				t.Errorf("coef %g: %v after %d pivots, y = %g; want optimal after 1, y = 1e7", coef, st, sx.dualIters, sx.x[y])
			}
			continue
		}
		if st != statusStalled || sx.dualIters != 0 {
			t.Errorf("coef %g: %v after %d pivots, want stalled before the first", coef, st, sx.dualIters)
		}
		for j, v := range sx.x {
			if v != x[j] {
				t.Errorf("coef %g: x[%d] moved %g -> %g", coef, j, x[j], v)
			}
		}
		for p, j := range sx.basisOf {
			if j != basisOf[p] {
				t.Errorf("coef %g: basis position %d changed %d -> %d", coef, p, basisOf[p], j)
			}
		}
	}
}

// TestDualStallHandsOver starts the dual simplex with the degenerate-pivot
// count already at the length that gives up, on an append whose first dual
// pivot is degenerate: the dual stops after that pivot and hands its basis,
// not the warm one, to the repairs, which solve the model. The solve does
// not report Dual, and its one dual pivot still counts.
func TestDualStallHandsOver(t *testing.T) {
	m := NewModel("stall")
	m.SetMaximize(true)
	x := m.AddVar(0, 5, 1, "x")
	y := m.AddVar(0, 5, 1, "y") // an equal cost: the optimum is dual degenerate
	m.AddConstr(Expr{}.Plus(1, x).Plus(1, y), LE, 1, "cap")
	sol, err := Solve(m, nil)
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("base: %+v, %v", sol, err)
	}
	in, out := x, y
	if sol.Basis.VarStatus[y] == BasisBasic {
		in, out = y, x
	}
	// The nonbasic one must reach the basic one: violated by 1 at the
	// optimum, and its first dual pivot enters the nonbasic one at a zero
	// reduced cost.
	m.AddConstr(Expr{}.Plus(1, out).Plus(-1, in), GE, 0, "even")
	basis := sol.Basis.Clone()
	basis.ExtendTo(m)

	rec := newHealthFakeRecorder()
	sx, err := newSimplex(m, &Options{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	sx.degenerate = 3 * (sx.nRow + 10)
	warm, err := sx.solveWarm(basis)
	if err != nil {
		t.Fatal(err)
	}
	sx.flushMetrics()
	if warm.Status != StatusOptimal || math.Abs(warm.Objective-1) > 1e-9 {
		t.Fatalf("%v, objective %.12g; want optimal, 1", warm.Status, warm.Objective)
	}
	if !warm.Warm.Accepted || warm.Warm.Dual || warm.Warm.Phase1Skipped {
		t.Errorf("warm info %+v, want accepted, not dual, phase 1 run", warm.Warm)
	}
	if c := rec.counters; c["lp.dual_solves"] != 0 || c["lp.dual_pivots"] != 1 {
		t.Errorf("%d dual solves, %d dual pivots; want 0 and 1", c["lp.dual_solves"], c["lp.dual_pivots"])
	}
	if err := CheckCertificate(warm.Cert, DefaultCertTol); err != nil {
		t.Error(err)
	}
}
