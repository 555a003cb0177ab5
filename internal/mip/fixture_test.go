package mip

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/arrow-te/arrow/internal/lp"
	"github.com/arrow-te/arrow/internal/obs"
)

// ilpFixture is the testdata JSON schema for small ILP instances: enough to
// rebuild an lp.Model without hand-writing model code in every test.
type ilpFixture struct {
	Name     string `json:"name"`
	Maximize bool   `json:"maximize"`
	Vars     []struct {
		Name string  `json:"name"`
		LB   float64 `json:"lb"`
		UB   float64 `json:"ub"`
		Obj  float64 `json:"obj"`
		Int  bool    `json:"int"`
	} `json:"vars"`
	Constrs []struct {
		Name  string       `json:"name"`
		Sense string       `json:"sense"`
		RHS   float64      `json:"rhs"`
		Terms [][2]float64 `json:"terms"` // [var index, coefficient]
	} `json:"constrs"`
}

func loadILPFixture(t *testing.T, name string) *lp.Model {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	var fx ilpFixture
	if err := json.Unmarshal(data, &fx); err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	m := lp.NewModel(fx.Name)
	m.SetMaximize(fx.Maximize)
	vars := make([]lp.Var, len(fx.Vars))
	for i, v := range fx.Vars {
		if v.Int {
			vars[i] = m.AddIntVar(v.LB, v.UB, v.Obj, v.Name)
		} else {
			vars[i] = m.AddVar(v.LB, v.UB, v.Obj, v.Name)
		}
	}
	for _, c := range fx.Constrs {
		var e lp.Expr
		for _, term := range c.Terms {
			e = e.Plus(term[1], vars[int(term[0])])
		}
		var sense lp.Sense
		switch c.Sense {
		case "<=":
			sense = lp.LE
		case ">=":
			sense = lp.GE
		case "==":
			sense = lp.EQ
		default:
			t.Fatalf("fixture %s: unknown sense %q", name, c.Sense)
		}
		m.AddConstr(e, sense, c.RHS, c.Name)
	}
	return m
}

// TestRecorderCountsBranchAndBound drives the branch-and-bound recorder
// path with the knapsack fixture: a snapshot of the standard pipeline
// carries all mip.* counters at zero because the pipeline never branches, so
// this test is the proof the recorder seam actually works when the search
// runs.
func TestRecorderCountsBranchAndBound(t *testing.T) {
	m := loadILPFixture(t, "knapsack.json")
	reg := obs.NewRegistry()
	sol, err := Solve(m, &Options{LP: &lp.Options{Recorder: reg}})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.StatusOptimal {
		t.Fatalf("status %v", sol.Status)
	}
	for _, v := range sol.X {
		if math.Abs(v-math.Round(v)) > 1e-9 {
			t.Fatalf("non-integral solution %v", sol.X)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["mip.solves"]; got != 1 {
		t.Errorf("mip.solves = %d, want 1", got)
	}
	if got := snap.Counters["mip.nodes"]; got < 2 {
		t.Errorf("mip.nodes = %d, want >= 2 (fixture must force branching)", got)
	}
	if got := snap.Counters["mip.incumbents"]; got < 1 {
		t.Errorf("mip.incumbents = %d, want >= 1", got)
	}
	// The node relaxations flow through the forwarded LP recorder too.
	if got := snap.Counters["lp.solves"]; got < 2 {
		t.Errorf("lp.solves = %d, want >= 2", got)
	}

	// The solve must carry a clean branch-and-bound certificate: bound
	// equals incumbent at proven optimality and the incumbent is feasible.
	if sol.Cert == nil {
		t.Fatal("no certificate on optimal MILP solution")
	}
	if err := lp.CheckCertificate(sol.Cert, 0); err != nil {
		t.Errorf("certificate rejected: %v (%+v)", err, sol.Cert)
	}
	if sol.Cert.Primal != sol.Objective || sol.Cert.Dual != sol.Bound {
		t.Errorf("certificate (%g, %g) disagrees with solution (%g, %g)",
			sol.Cert.Primal, sol.Cert.Dual, sol.Objective, sol.Bound)
	}
}

// TestRecorderIdenticalResults pins the overhead contract on the MIP layer:
// the search must return byte-identical solutions with and without a
// recorder attached.
func TestRecorderIdenticalResults(t *testing.T) {
	bare, err := Solve(loadILPFixture(t, "knapsack.json"), nil)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Solve(loadILPFixture(t, "knapsack.json"), &Options{LP: &lp.Options{Recorder: obs.NewRegistry()}})
	if err != nil {
		t.Fatal(err)
	}
	if bare.Objective != rec.Objective || bare.Nodes != rec.Nodes {
		t.Errorf("recorder changed the search: (%g, %d nodes) vs (%g, %d nodes)",
			bare.Objective, bare.Nodes, rec.Objective, rec.Nodes)
	}
	for i := range bare.X {
		if bare.X[i] != rec.X[i] {
			t.Errorf("X[%d] differs: %g vs %g", i, bare.X[i], rec.X[i])
		}
	}
}
