package lp

import (
	"math"
	"testing"

	"github.com/arrow-te/arrow/internal/obs"
)

// warmTestModel builds a small LE-form model whose all-slack basis is
// primal feasible (every row <=, rhs >= 0, vars start at 0).
func warmTestModel() *Model {
	m := NewModel("warm-le")
	m.SetMaximize(true)
	x := m.AddVar(0, 4, 3, "x")
	y := m.AddVar(0, 10, 2, "y")
	z := m.AddVar(0, 10, 4, "z")
	m.AddConstr(Expr{}.Plus(1, x).Plus(1, y).Plus(2, z), LE, 14, "r1")
	m.AddConstr(Expr{}.Plus(3, x).Plus(1, y), LE, 12, "r2")
	m.AddConstr(Expr{}.Plus(1, y).Plus(1, z), LE, 8, "r3")
	return m
}

// warmEqModel has equality rows, so its slack basis is NOT feasible at the
// starting point and exercises the reduced phase 1 / fallback paths.
func warmEqModel() *Model {
	m := NewModel("warm-eq")
	x := m.AddVar(0, 10, 1, "x")
	y := m.AddVar(0, 10, 2, "y")
	m.AddConstr(Expr{}.Plus(1, x).Plus(1, y), EQ, 6, "sum")
	m.AddConstr(Expr{}.Plus(1, x).Plus(-1, y), LE, 2, "diff")
	return m
}

func TestSlackBasisSkipsPhase1(t *testing.T) {
	m := warmTestModel()
	rec := obs.NewRegistry()
	cold, err := Solve(m, nil)
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	warm, err := SolveWithBasis(m, SlackBasis(m), &Options{Recorder: rec})
	if err != nil {
		t.Fatalf("warm solve: %v", err)
	}
	if warm.Status != StatusOptimal {
		t.Fatalf("warm status = %v", warm.Status)
	}
	if warm.Warm == nil || !warm.Warm.Accepted || !warm.Warm.Phase1Skipped {
		t.Fatalf("warm info = %+v, want accepted with phase 1 skipped", warm.Warm)
	}
	if math.Abs(warm.Objective-cold.Objective) > 1e-9 {
		t.Fatalf("objectives differ: warm %v cold %v", warm.Objective, cold.Objective)
	}
	if err := CheckCertificate(warm.Cert, 0); err != nil {
		t.Fatalf("warm certificate: %v", err)
	}
	snap := rec.Snapshot()
	if snap.Counters["lp.phase1_pivots"] != 0 {
		t.Fatalf("phase-1 pivots = %d, want 0", snap.Counters["lp.phase1_pivots"])
	}
	if snap.Counters["lp.phase1_skipped"] != 1 || snap.Counters["lp.warm_accepted"] != 1 {
		t.Fatalf("warm counters = %v", snap.Counters)
	}
}

func TestWarmRestartFromOwnBasis(t *testing.T) {
	m := warmTestModel()
	first, err := Solve(m, nil)
	if err != nil {
		t.Fatalf("first solve: %v", err)
	}
	if first.Basis == nil {
		t.Fatal("optimal solution carries no basis")
	}
	second, err := SolveWithBasis(m, first.Basis, nil)
	if err != nil {
		t.Fatalf("restart solve: %v", err)
	}
	if second.Iterations != 0 {
		t.Fatalf("restart from optimal basis took %d pivots, want 0", second.Iterations)
	}
	if math.Abs(second.Objective-first.Objective) > 1e-12 {
		t.Fatalf("objectives differ: %v vs %v", second.Objective, first.Objective)
	}
	for j := range first.X {
		if math.Abs(first.X[j]-second.X[j]) > 1e-9 {
			t.Fatalf("X[%d] differs: %v vs %v", j, first.X[j], second.X[j])
		}
	}
}

func TestWarmStartAfterRHSChange(t *testing.T) {
	m := warmTestModel()
	base, err := Solve(m, nil)
	if err != nil {
		t.Fatalf("base solve: %v", err)
	}
	m.SetRHS(Constr(0), 11)
	m.SetRHS(Constr(2), 6)
	if got := m.RHS(0); got != 11 {
		t.Fatalf("RHS(0) = %v after SetRHS", got)
	}
	cold, err := Solve(m, nil)
	if err != nil {
		t.Fatalf("cold perturbed solve: %v", err)
	}
	warm, err := SolveWithBasis(m, base.Basis, nil)
	if err != nil {
		t.Fatalf("warm perturbed solve: %v", err)
	}
	if warm.Status != StatusOptimal || cold.Status != StatusOptimal {
		t.Fatalf("statuses: warm %v cold %v", warm.Status, cold.Status)
	}
	if math.Abs(warm.Objective-cold.Objective) > 1e-9 {
		t.Fatalf("objectives differ: warm %v cold %v", warm.Objective, cold.Objective)
	}
	if err := CheckCertificate(warm.Cert, 0); err != nil {
		t.Fatalf("warm certificate: %v", err)
	}
}

// TestWarmSolveLeavesBasisUntouched pins the contract the attribution
// pass's probe loop depends on: the caller's basis survives any number of
// warm re-solves — including ones that need repairs — byte for byte, so one
// captured phase-II basis can seed every RHS perturbation.
func TestWarmSolveLeavesBasisUntouched(t *testing.T) {
	m := warmTestModel()
	base, err := Solve(m, nil)
	if err != nil {
		t.Fatalf("base solve: %v", err)
	}
	snap := base.Basis.Clone()
	for _, rhs := range []float64{11, 14, 6, 20} {
		orig := m.RHS(0)
		m.SetRHS(Constr(0), rhs)
		sol, err := SolveWithBasis(m, base.Basis, nil)
		m.SetRHS(Constr(0), orig)
		if err != nil {
			t.Fatalf("warm solve at rhs %v: %v", rhs, err)
		}
		if sol.Status != StatusOptimal {
			t.Fatalf("warm solve at rhs %v: status %v", rhs, sol.Status)
		}
	}
	// A repaired warm start (statuses the eq model's bounds cannot satisfy)
	// must also leave the caller's copy alone.
	if _, err := SolveWithBasis(warmEqModel(), base.Basis, nil); err != nil {
		t.Fatalf("repaired warm solve: %v", err)
	}
	for j, st := range snap.VarStatus {
		if base.Basis.VarStatus[j] != st {
			t.Fatalf("VarStatus[%d] mutated: %v -> %v", j, st, base.Basis.VarStatus[j])
		}
	}
	for i, st := range snap.RowStatus {
		if base.Basis.RowStatus[i] != st {
			t.Fatalf("RowStatus[%d] mutated: %v -> %v", i, st, base.Basis.RowStatus[i])
		}
	}
}

func TestWarmStartAfterBoundChange(t *testing.T) {
	m := warmTestModel()
	base, err := Solve(m, nil)
	if err != nil {
		t.Fatalf("base solve: %v", err)
	}
	m.SetBounds(Var(0), 0, 2) // tighten x
	cold, err := Solve(m, nil)
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	warm, err := SolveWithBasis(m, base.Basis, nil)
	if err != nil {
		t.Fatalf("warm solve: %v", err)
	}
	if math.Abs(warm.Objective-cold.Objective) > 1e-9 {
		t.Fatalf("objectives differ: warm %v cold %v", warm.Objective, cold.Objective)
	}
}

func TestWarmBasisRepairs(t *testing.T) {
	m := warmTestModel()
	cold, err := Solve(m, nil)
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	cases := []struct {
		name  string
		basis *Basis
	}{
		{"all-basic overfull", &Basis{
			VarStatus: []BasisStatus{BasisBasic, BasisBasic, BasisBasic},
			RowStatus: []BasisStatus{BasisBasic, BasisBasic, BasisBasic},
		}},
		{"no basics", &Basis{
			VarStatus: []BasisStatus{BasisAtLower, BasisAtLower, BasisAtLower},
			RowStatus: []BasisStatus{BasisAtLower, BasisAtLower, BasisAtLower},
		}},
		{"invalid bound reference", &Basis{
			// x has no upper bound issue here, but BasisFree on a bounded
			// var must be bound-shifted.
			VarStatus: []BasisStatus{BasisFree, BasisFree, BasisFree},
			RowStatus: []BasisStatus{BasisBasic, BasisBasic, BasisBasic},
		}},
		{"short slices (model grew)", &Basis{
			VarStatus: []BasisStatus{BasisBasic},
			RowStatus: []BasisStatus{BasisAtLower},
		}},
		{"oversized slices", &Basis{
			VarStatus: make([]BasisStatus, 3),
			RowStatus: make([]BasisStatus, 99),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			warm, err := SolveWithBasis(m, tc.basis, nil)
			if err != nil {
				t.Fatalf("warm solve: %v", err)
			}
			if warm.Status != StatusOptimal {
				t.Fatalf("status = %v", warm.Status)
			}
			if math.Abs(warm.Objective-cold.Objective) > 1e-9 {
				t.Fatalf("objective %v, want %v", warm.Objective, cold.Objective)
			}
			if err := CheckCertificate(warm.Cert, 0); err != nil {
				t.Fatalf("certificate: %v", err)
			}
		})
	}
}

// TestWarmSingularBasisPatched hands SolveWithBasis a structurally singular
// basis (two basic variables with identical columns) and expects the
// factorisation repair to patch it with slacks.
func TestWarmSingularBasisPatched(t *testing.T) {
	m := NewModel("singular")
	m.SetMaximize(true)
	x := m.AddVar(0, 5, 1, "x")
	y := m.AddVar(0, 5, 1, "y")
	m.AddConstr(Expr{}.Plus(1, x).Plus(1, y), LE, 6, "r1")
	m.AddConstr(Expr{}.Plus(2, x).Plus(2, y), LE, 20, "r2")
	cold, err := Solve(m, nil)
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	// x and y have proportional columns: making both basic is singular.
	warm, err := SolveWithBasis(m, &Basis{
		VarStatus: []BasisStatus{BasisBasic, BasisBasic},
		RowStatus: []BasisStatus{BasisAtLower, BasisAtLower},
	}, nil)
	if err != nil {
		t.Fatalf("warm solve: %v", err)
	}
	if warm.Status != StatusOptimal {
		t.Fatalf("status = %v", warm.Status)
	}
	if math.Abs(warm.Objective-cold.Objective) > 1e-9 {
		t.Fatalf("objective %v, want %v", warm.Objective, cold.Objective)
	}
	if warm.Warm == nil || warm.Warm.Repairs == 0 {
		t.Fatalf("warm info = %+v, want repairs > 0", warm.Warm)
	}
}

func TestWarmInfeasibleStartRunsReducedPhase1(t *testing.T) {
	m := warmEqModel()
	cold, err := Solve(m, nil)
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	rec := obs.NewRegistry()
	// The slack basis is infeasible for the EQ row (slack pinned at 0 but
	// basic, value must be 6-x-y = 6 at the origin): reduced phase 1 runs.
	warm, err := SolveWithBasis(m, SlackBasis(m), &Options{Recorder: rec})
	if err != nil {
		t.Fatalf("warm solve: %v", err)
	}
	if warm.Status != StatusOptimal {
		t.Fatalf("status = %v", warm.Status)
	}
	if math.Abs(warm.Objective-cold.Objective) > 1e-9 {
		t.Fatalf("objective %v, want %v", warm.Objective, cold.Objective)
	}
	if warm.Warm == nil || warm.Warm.Phase1Skipped {
		t.Fatalf("warm info = %+v, want phase 1 NOT skipped", warm.Warm)
	}
	if err := CheckCertificate(warm.Cert, 0); err != nil {
		t.Fatalf("certificate: %v", err)
	}
}

// TestWarmSolveOnInfeasibleModel checks warm starts preserve infeasibility
// detection.
func TestWarmSolveOnInfeasibleModel(t *testing.T) {
	m := NewModel("infeasible")
	x := m.AddVar(0, 1, 1, "x")
	m.AddConstr(Expr{}.Plus(1, x), GE, 5, "need5")
	warm, err := SolveWithBasis(m, SlackBasis(m), nil)
	if err != nil {
		t.Fatalf("warm solve: %v", err)
	}
	if warm.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", warm.Status)
	}
}

func TestWarmNilBasisIsColdSolve(t *testing.T) {
	m := warmTestModel()
	sol, err := SolveWithBasis(m, nil, nil)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if sol.Warm != nil {
		t.Fatalf("nil basis produced warm info %+v", sol.Warm)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
}

func TestOptionsWithDefaultsClampsNegatives(t *testing.T) {
	def := (*Options)(nil).withDefaults(10, 20)
	neg := &Options{MaxIter: -5}
	got := neg.withDefaults(10, 20)
	if got.MaxIter != def.MaxIter {
		t.Errorf("MaxIter = %d, want default %d", got.MaxIter, def.MaxIter)
	}
	// And a negative-option solve must still work.
	sol, err := Solve(warmTestModel(), neg)
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("solve with negative options: sol=%+v err=%v", sol, err)
	}
}

func TestTruncateConstrs(t *testing.T) {
	m := warmTestModel()
	if m.NumConstrs() != 3 {
		t.Fatalf("unexpected model shape")
	}
	full, err := Solve(m, nil)
	if err != nil {
		t.Fatalf("full solve: %v", err)
	}
	m.TruncateConstrs(1)
	if m.NumConstrs() != 1 {
		t.Fatalf("NumConstrs = %d after truncate", m.NumConstrs())
	}
	relaxed, err := Solve(m, nil)
	if err != nil {
		t.Fatalf("relaxed solve: %v", err)
	}
	if relaxed.Objective < full.Objective-1e-9 {
		t.Fatalf("dropping rows decreased a maximisation objective: %v -> %v", full.Objective, relaxed.Objective)
	}
	// Re-extend the skeleton with a different row and solve again.
	m.AddConstr(Expr{}.Plus(1, Var(1)), LE, 1, "tight-y")
	again, err := Solve(m, nil)
	if err != nil {
		t.Fatalf("re-extended solve: %v", err)
	}
	if again.Status != StatusOptimal {
		t.Fatalf("status = %v", again.Status)
	}
}
