package lp

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/arrow-te/arrow/internal/race"
)

// frozenLP is the testdata schema of an LP frozen from the pipeline:
// internal/mip's fixture format, gzip'd, where a null bound stands for an
// infinite one (JSON has no infinity). Terms are [variable index,
// coefficient] in the order the model stored them, so the rebuilt model is
// the frozen one row for row and term for term.
type frozenLP struct {
	Name     string `json:"name"`
	Maximize bool   `json:"maximize"`
	Vars     []struct {
		Name string   `json:"name"`
		LB   *float64 `json:"lb"`
		UB   *float64 `json:"ub"`
		Obj  float64  `json:"obj"`
		Int  bool     `json:"int"`
	} `json:"vars"`
	Constrs []struct {
		Name  string       `json:"name"`
		Sense string       `json:"sense"`
		RHS   float64      `json:"rhs"`
		Terms [][2]float64 `json:"terms"`
	} `json:"constrs"`
}

func loadFrozenLP(t testing.TB, name string) *Model {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var fx frozenLP
	if err := json.NewDecoder(zr).Decode(&fx); err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	bound := func(b *float64, inf float64) float64 {
		if b == nil {
			return inf
		}
		return *b
	}
	m := NewModel(fx.Name)
	m.SetMaximize(fx.Maximize)
	for _, v := range fx.Vars {
		if v.Int {
			m.AddIntVar(bound(v.LB, math.Inf(-1)), bound(v.UB, Inf), v.Obj, v.Name)
		} else {
			m.AddVar(bound(v.LB, math.Inf(-1)), bound(v.UB, Inf), v.Obj, v.Name)
		}
	}
	senses := map[string]Sense{"<=": LE, ">=": GE, "==": EQ}
	for _, c := range fx.Constrs {
		sense, ok := senses[c.Sense]
		if !ok {
			t.Fatalf("%s: constraint %s has sense %q", name, c.Name, c.Sense)
		}
		e := make(Expr, 0, len(c.Terms))
		for _, term := range c.Terms {
			e = e.Plus(term[1], Var(term[0]))
		}
		m.AddConstr(e, sense, c.RHS, c.Name)
	}
	return m
}

// TestFrozenTeaVaRSingularCold is the reproducer of the singular basis that
// kept `arrow-experiments -exp fig13 -full` failing: TeaVaR's LP on the
// Facebook topology in full mode at seed 1 (the pipeline of topo.Facebook
// with seed 6, cutoff 2e-4, 40 tickets and 32 scenarios; traffic matrix 0 of
// 120 flows with 16 tunnels each, at demand scale 7; beta 0.999, tie-break
// 1e-3). A cold Solve walks into a basis that refactorize cannot factor;
// the all-slack start, which is how internal/te solves every baseline LP,
// reaches a certified optimum. The kernel bug is still there: when a fix
// (row and column scaling, relative pivot tolerances, a repairing
// refactorisation) makes the cold solve succeed, this test is the one to
// flip.
func TestFrozenTeaVaRSingularCold(t *testing.T) {
	m := loadFrozenLP(t, "teavar_facebook_m0_s7.json.gz")
	if st := m.Stats(); st.Vars != 2961 || st.Constrs != 1299 || st.Nonzeros != 24086 {
		t.Fatalf("frozen model is %d vars x %d rows with %d nonzeros, want 2961 x 1299 with 24086", st.Vars, st.Constrs, st.Nonzeros)
	}

	sol, err := SolveWithBasis(m, SlackBasis(m), nil)
	if err != nil {
		t.Fatalf("slack start: %v", err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("slack start: status %v", sol.Status)
	}
	if err := CheckCertificate(sol.Cert, DefaultCertTol); err != nil {
		t.Errorf("slack start: %v", err)
	}
	if sol.Iterations != 2567 {
		t.Errorf("slack start took %d pivots, want 2567", sol.Iterations)
	}

	if testing.Short() || race.Enabled {
		return // the cold solve runs 3 s before it fails, a minute under the race detector
	}
	if _, err := Solve(m, nil); !errors.Is(err, ErrSingular) {
		t.Errorf("cold Solve returned %v, want %v: if the kernel now solves it, flip this assertion", err, ErrSingular)
	}
}

// TestFrozenArrowPhase2 pins the LP the online benchmark spends its Phase II
// in: ARROW's Phase II model on the Facebook topology (topo.Facebook with
// seed 6, cutoff 2e-4, 12 tickets; traffic matrix 0 of 120 flows, each
// scaled to 3.75 % of the summed IP capacity), frozen as the pipeline built
// it. From the all-slack start the pipeline takes it is hypersparse: a pivot
// touches a dozen rows of 1,716, and the kernel's work counts say the
// passes of a pivot follow that.
func TestFrozenArrowPhase2(t *testing.T) {
	m := loadFrozenLP(t, "arrow_phase2_facebook_m0.json.gz")
	if st := m.Stats(); st.Vars != 600 || st.Constrs != 1716 || st.Nonzeros != 7789 {
		t.Fatalf("frozen model is %d vars x %d rows with %d nonzeros, want 600 x 1716 with 7789", st.Vars, st.Constrs, st.Nonzeros)
	}
	rec := newHealthFakeRecorder()
	sol, err := SolveWithBasis(m, SlackBasis(m), &Options{Recorder: rec})
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("slack start: %+v, %v", sol, err)
	}
	if err := CheckCertificate(sol.Cert, DefaultCertTol); err != nil {
		t.Errorf("slack start: %v", err)
	}
	if sol.Iterations != 345 {
		t.Errorf("slack start took %d pivots, want 345", sol.Iterations)
	}
	c := rec.counters
	pivots := float64(c["lp.pivots"])
	ratio, scan := float64(c["lp.ratio_rows"])/pivots, float64(c["lp.scan_cols"])/pivots
	t.Logf("per pivot: %.1f ratio-test rows, %.0f scores scanned, %.1f columns re-priced, %.1f LU steps visited",
		ratio, scan, float64(c["lp.repriced_cols"])/pivots, float64(c["lp.solve_reach"])/pivots)
	if ratio > 50 {
		t.Errorf("the ratio test visited %.1f rows a pivot: not d's pattern", ratio)
	}
}
