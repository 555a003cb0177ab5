package lp

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// solutionDiff says how got differs from want, field by field and bit for
// bit (a negative zero counting as zero), or returns "" when it does not.
func solutionDiff(got, want *Solution) string {
	switch {
	case got.Status != want.Status:
		return fmt.Sprintf("status %v, want %v", got.Status, want.Status)
	case got.Iterations != want.Iterations:
		return fmt.Sprintf("%d pivots, want %d", got.Iterations, want.Iterations)
	case math.Float64bits(got.Objective) != math.Float64bits(want.Objective):
		return fmt.Sprintf("objective %v, want %v", got.Objective, want.Objective)
	}
	for _, v := range []struct {
		name      string
		got, want []float64
	}{{"X", got.X, want.X}, {"Duals", got.Duals, want.Duals}} {
		if len(v.got) != len(v.want) || (v.got == nil) != (v.want == nil) {
			return fmt.Sprintf("%d %s (nil %v), want %d (nil %v)", len(v.got), v.name, v.got == nil, len(v.want), v.want == nil)
		}
		if i, ok := sameBits(v.got, v.want); !ok {
			return fmt.Sprintf("%s[%d] = %v, want %v", v.name, i, v.got[i], v.want[i])
		}
	}
	switch {
	case !reflect.DeepEqual(got.Basis, want.Basis):
		return fmt.Sprintf("basis %+v, want %+v", got.Basis, want.Basis)
	case !reflect.DeepEqual(got.Cert, want.Cert):
		return fmt.Sprintf("certificate %+v, want %+v", got.Cert, want.Cert)
	case !reflect.DeepEqual(got.Warm, want.Warm):
		return fmt.Sprintf("warm info %+v, want %+v", got.Warm, want.Warm)
	case !reflect.DeepEqual(got.Health, want.Health):
		return fmt.Sprintf("health %+v, want %+v", got.Health, want.Health)
	}
	return ""
}

// solveIntoCase is one outcome of a solve: a model, the basis it starts
// from (nil: cold), its options and a check that the solve has the outcome.
type solveIntoCase struct {
	name  string
	m     *Model
	basis *Basis
	opts  *Options
	is    func(*Solution) bool
}

func solveIntoCases(t *testing.T) []solveIntoCase {
	t.Helper()
	// The chain at its optimum with a cap appended that the optimum breaks:
	// the basis still prices out, so the re-solve takes the dual simplex.
	chain, vars := chainModel(40)
	sol, err := SolveWithBasis(chain, SlackBasis(chain), nil)
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("chain: %+v, %v", sol, err)
	}
	var all Expr
	for _, v := range vars {
		all = all.Plus(1, v)
	}
	chain.AddConstr(all, LE, 0.8*sol.Objective, "globalcap")
	chainBasis := sol.Basis.Clone()
	chainBasis.ExtendTo(chain)

	infeasible := NewModel("infeasible")
	x := infeasible.AddVar(0, 1, 1, "x")
	infeasible.AddConstr(Expr{}.Plus(1, x), GE, 2, "above-ub")

	unbounded := NewModel("unbounded")
	unbounded.SetMaximize(true)
	u := unbounded.AddVar(0, Inf, 1, "u")
	w := unbounded.AddVar(0, Inf, 0, "w")
	unbounded.AddConstr(Expr{}.Plus(1, u).Plus(-1, w), LE, 1, "gap")

	optimal := func(s *Solution) bool { return s.Status == StatusOptimal }
	return []solveIntoCase{
		{"cold optimal", benchWarmModel(60, 30, 42), nil, nil, func(s *Solution) bool { return optimal(s) && s.Warm == nil }},
		{"phase 1 skipped", warmTestModel(), SlackBasis(warmTestModel()), nil, func(s *Solution) bool { return optimal(s) && s.Warm.Phase1Skipped }},
		{"dual re-solve", chain, chainBasis, nil, func(s *Solution) bool { return optimal(s) && s.Warm.Dual }},
		{"infeasible", infeasible, nil, nil, func(s *Solution) bool { return s.Status == StatusInfeasible }},
		{"unbounded", unbounded, nil, nil, func(s *Solution) bool { return s.Status == StatusUnbounded }},
		{"iteration limit", benchWarmModel(60, 30, 42), nil, &Options{MaxIter: 3}, func(s *Solution) bool { return s.Status == StatusIterLimit }},
	}
}

// TestSolveIntoMatchesFreshSolution solves each outcome into a Solution that
// last held the optimum of a larger model and into one that last held a
// smaller one, and wants what a fresh SolveWithBasis returns, bit for bit:
// no length, status, duals, basis or certificate of the solve before
// survives, and the certificate and warm info the solve before returned are
// left as they were.
func TestSolveIntoMatchesFreshSolution(t *testing.T) {
	large, small := benchWarmModel(300, 150, 7), warmEqModel()
	for _, c := range solveIntoCases(t) {
		want, err := SolveWithBasis(c.m, c.basis, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !c.is(want) {
			t.Fatalf("%s: fixture solve ended %v (%+v)", c.name, want.Status, want.Warm)
		}
		for _, prev := range []*Model{large, small} {
			dst, err := SolveInto(new(Solution), prev, SlackBasis(prev), nil)
			if err != nil || dst.Status != StatusOptimal {
				t.Fatalf("%s: solve before: %+v, %v", c.name, dst, err)
			}
			cert, wi := dst.Cert, dst.Warm
			certWas, wiWas := *cert, *wi
			got, err := SolveInto(dst, c.m, c.basis, c.opts)
			if err != nil {
				t.Fatalf("%s after %s: %v", c.name, prev.Name(), err)
			}
			if got != dst {
				t.Errorf("%s after %s: SolveInto returned another Solution", c.name, prev.Name())
			}
			if d := solutionDiff(got, want); d != "" {
				t.Errorf("%s after %s: %s", c.name, prev.Name(), d)
			}
			if *cert != certWas || *wi != wiWas || got.Cert == cert || got.Warm == wi {
				t.Errorf("%s after %s: the solve wrote into the certificate or warm info of the solve before", c.name, prev.Name())
			}
		}
	}
}

// TestSolveIntoFromItsOwnBasisPanics: the start basis must not be the one
// the solve overwrites.
func TestSolveIntoFromItsOwnBasisPanics(t *testing.T) {
	m := warmTestModel()
	sol, err := Solve(m, nil)
	if err != nil || sol.Basis == nil {
		t.Fatalf("%+v, %v", sol, err)
	}
	defer func() {
		if recover() == nil {
			t.Error("SolveInto from dst.Basis did not panic")
		}
	}()
	_, _ = SolveInto(sol, m, sol.Basis, nil)
}
