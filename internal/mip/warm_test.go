package mip

import (
	"math"
	"testing"

	"github.com/arrow-te/arrow/internal/lp"
	"github.com/arrow-te/arrow/internal/obs"
)

// TestWarmMatchesCold pins the warm-start contract at the MIP layer: child
// nodes inherit their parent's basis, and that must not change the optimum
// found. The warm run must actually exercise the warm path (lp.warm_starts
// > 0) and the cold run must never touch it.
func TestWarmMatchesCold(t *testing.T) {
	for _, name := range []string{"knapsack.json", "bound_tighten.json"} {
		t.Run(name, func(t *testing.T) {
			warmReg, coldReg := obs.NewRegistry(), obs.NewRegistry()
			warm, err := Solve(loadILPFixture(t, name), &Options{LP: &lp.Options{Recorder: warmReg}})
			if err != nil {
				t.Fatal(err)
			}
			cold, err := Solve(loadILPFixture(t, name), &Options{LP: &lp.Options{Recorder: coldReg}, NoWarm: true})
			if err != nil {
				t.Fatal(err)
			}
			if warm.Status != lp.StatusOptimal || cold.Status != lp.StatusOptimal {
				t.Fatalf("status warm=%v cold=%v", warm.Status, cold.Status)
			}
			if math.Abs(warm.Objective-cold.Objective) > 1e-9*(1+math.Abs(cold.Objective)) {
				t.Errorf("objectives differ: warm %.12g cold %.12g", warm.Objective, cold.Objective)
			}
			for _, sol := range []*Solution{warm, cold} {
				if err := lp.CheckCertificate(sol.Cert, 0); err != nil {
					t.Errorf("certificate rejected: %v", err)
				}
			}
			ws := warmReg.Snapshot().Counters
			cs := coldReg.Snapshot().Counters
			if ws["lp.warm_starts"] == 0 {
				t.Error("warm run recorded no lp.warm_starts (fixture must branch)")
			}
			if cs["lp.warm_starts"] != 0 {
				t.Errorf("cold run recorded %d lp.warm_starts, want 0", cs["lp.warm_starts"])
			}
			if ws["lp.pivots"] > cs["lp.pivots"] {
				t.Errorf("warm run used more pivots (%d) than cold (%d)", ws["lp.pivots"], cs["lp.pivots"])
			}
		})
	}
}

// TestIncumbentObjectiveMatchesReturnedPoint is the regression test for the
// certify mismatch: Solve used to report the relaxation's objective at the
// pre-rounding point while returning the rounded X, so Cert.Primal described
// a point the caller never received. The invariant now is exact:
// Objective == m.ObjValue(X) for the returned (rounded-integral) X.
func TestIncumbentObjectiveMatchesReturnedPoint(t *testing.T) {
	m := loadILPFixture(t, "bound_tighten.json")
	sol, err := Solve(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.StatusOptimal {
		t.Fatalf("status %v", sol.Status)
	}
	for j, v := range sol.X {
		if m.IsInteger(lp.Var(j)) && v != math.Round(v) {
			t.Fatalf("X[%d] = %g not exactly integral", j, v)
		}
	}
	if got, want := sol.Objective, m.ObjValue(sol.X); got != want {
		t.Errorf("Objective %.17g != ObjValue(X) %.17g", got, want)
	}
	if sol.Cert == nil {
		t.Fatal("no certificate")
	}
	if sol.Cert.Primal != sol.Objective {
		t.Errorf("Cert.Primal %.17g != Objective %.17g", sol.Cert.Primal, sol.Objective)
	}
	if err := lp.CheckCertificate(sol.Cert, 0); err != nil {
		t.Errorf("certificate rejected: %v (%+v)", err, sol.Cert)
	}
}

// TestMIPOptionsWithDefaultsClampsNegatives pins the explicit-clamp rule:
// a negative node budget means "unset", never "zero budget".
func TestMIPOptionsWithDefaultsClampsNegatives(t *testing.T) {
	neg := &Options{MaxNodes: -5}
	v := neg.withDefaults()
	if v.MaxNodes != 200000 {
		t.Errorf("MaxNodes = %d, want default 200000", v.MaxNodes)
	}
	// A solve under hostile options must still terminate at the optimum.
	sol, err := Solve(loadILPFixture(t, "knapsack.json"), neg)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.StatusOptimal {
		t.Fatalf("status %v under clamped options", sol.Status)
	}
}
