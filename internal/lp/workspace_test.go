package lp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// refCombineTerms is combineTerms as it was: always through the map, into a
// slice of its own.
func refCombineTerms(expr Expr) []Term {
	seen := make(map[Var]int, len(expr))
	out := make([]Term, 0, len(expr))
	for _, t := range expr {
		if i, ok := seen[t.Var]; ok {
			out[i].Coef += t.Coef
			continue
		}
		seen[t.Var] = len(out)
		out = append(out, t)
	}
	w := 0
	for _, t := range out {
		if t.Coef != 0 {
			out[w] = t
			w++
		}
	}
	return out[:w]
}

func TestCombineTermsFastPathMatchesMapPath(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	increasing := 0
	for trial := 0; trial < 2000; trial++ {
		var expr Expr
		n := rng.Intn(9)
		if rng.Intn(2) == 0 {
			// Strictly increasing variables (the fast path), zeros among the
			// coefficients.
			v := 0
			for i := 0; i < n; i++ {
				v += 1 + rng.Intn(3)
				expr = expr.Plus(float64(rng.Intn(4)-1), Var(v))
			}
			increasing++
		} else {
			// Any order, repeats that may cancel.
			for i := 0; i < n; i++ {
				expr = expr.Plus(float64(rng.Intn(5)-2), Var(rng.Intn(5)))
			}
		}
		prefix := []Term{{Var: 99, Coef: 7}}
		dst := append(make([]Term, 0, 1+len(expr)), prefix...)
		pos := make([]int, 100)
		got := combineTerms(dst, expr, pos)
		want := refCombineTerms(expr)
		if !reflect.DeepEqual(got[:1], prefix) {
			t.Fatalf("trial %d: combineTerms rewrote what dst held: %v", trial, got[:1])
		}
		if len(got[1:]) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got[1:], want)) {
			t.Fatalf("trial %d: %v combined to %v, want %v", trial, expr, got[1:], want)
		}
		if !reflect.DeepEqual(pos, make([]int, 100)) {
			t.Fatalf("trial %d: combineTerms left stamps behind: %v", trial, pos)
		}
	}
	if increasing < 500 {
		t.Fatalf("only %d increasing expressions drawn", increasing)
	}
}

// TestCombineTermsTable pins AddConstr's row semantics case by case: first-
// occurrence order, duplicates summed, zeros (given or summed to) dropped,
// and a row long enough that a quadratic scan would show.
func TestCombineTermsTable(t *testing.T) {
	long := make(Expr, 0, 400)
	var longWant []Term
	for i := 199; i >= 0; i-- {
		long = long.Plus(1, Var(i))
		longWant = append(longWant, Term{Var: Var(i), Coef: 2})
	}
	for i := 199; i >= 0; i-- {
		long = long.Plus(1, Var(i))
	}
	for _, c := range []struct {
		name string
		expr Expr
		want []Term
	}{
		{"empty", nil, nil},
		{"increasing", Expr{{0, 1}, {3, 2}, {7, -1}}, []Term{{0, 1}, {3, 2}, {7, -1}}},
		{"increasing with a zero", Expr{{0, 1}, {3, 0}, {7, -1}}, []Term{{0, 1}, {7, -1}}},
		{"duplicates", Expr{{5, 1}, {2, 2}, {5, 3}, {2, 0.5}}, []Term{{5, 4}, {2, 2.5}}},
		{"cancelling", Expr{{4, 1}, {1, 2}, {4, -1}}, []Term{{1, 2}}},
		{"decreasing", Expr{{9, 1}, {8, 1}, {0, -2}}, []Term{{9, 1}, {8, 1}, {0, -2}}},
		{"long, every variable twice", long, longWant},
	} {
		m := NewModel("t")
		for j := 0; j < 200; j++ {
			m.AddVar(0, 1, 0, "")
		}
		row := m.rows[m.AddConstr(c.expr, LE, 1, "")].terms
		if len(row) != len(c.want) || (len(row) > 0 && !reflect.DeepEqual(row, c.want)) {
			t.Errorf("%s: %v combined to %v, want %v", c.name, c.expr, row, c.want)
		}
		if !reflect.DeepEqual(m.pos, make([]int, 200)) {
			t.Errorf("%s: stamps left behind", c.name)
		}
	}
}

// buildRandomInto fills m (empty: fresh or Reset) with a random bounded LP
// that x = 0 satisfies. Rows list their variables in any order with repeats,
// or ascending, so both combineTerms paths build rows; the sizes vary enough
// that a reused model and simplex shrink and grow.
func buildRandomInto(m *Model, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	m.SetMaximize(rng.Intn(2) == 0)
	nv := 2 + rng.Intn(30)
	nr := 1 + rng.Intn(30)
	for j := 0; j < nv; j++ {
		m.AddVar(0, 1+rng.Float64()*9, rng.NormFloat64()*3, "")
	}
	for i := 0; i < nr; i++ {
		var e Expr
		if rng.Intn(2) == 0 {
			for j := 0; j < nv; j++ {
				if rng.Float64() < 0.4 {
					e = e.Plus(math.Round(rng.NormFloat64()*40)/10, Var(j))
				}
			}
		} else {
			for k := rng.Intn(6); k >= 0; k-- {
				e = e.Plus(math.Round(rng.NormFloat64()*40)/10, Var(rng.Intn(nv)))
			}
		}
		switch rng.Intn(10) {
		case 0:
			m.AddConstr(e, EQ, 0, "")
		case 1, 2, 3:
			m.AddConstr(e, GE, -(1 + rng.Float64()*20), "")
		default:
			m.AddConstr(e, LE, 1+rng.Float64()*20, "")
		}
	}
	// Growing a row that lies in the arena must copy it out, not run into
	// the row behind it.
	if nr > 1 {
		m.AddVarToConstrs(0, 5, rng.NormFloat64(), "", []ColumnEntry{{Constr: 0, Coef: 1.5}, {Constr: Constr(nr / 2), Coef: -2}})
	}
}

func sameModel(t *testing.T, label string, got, want *Model) {
	t.Helper()
	if got.Stats() != want.Stats() || got.Maximize() != want.Maximize() {
		t.Fatalf("%s: stats %+v max %v, want %+v max %v", label, got.Stats(), got.Maximize(), want.Stats(), want.Maximize())
	}
	for i := range want.rows {
		g, w := got.rows[i], want.rows[i]
		if g.sense != w.sense || g.rhs != w.rhs || len(g.terms) != len(w.terms) || (len(w.terms) > 0 && !reflect.DeepEqual(g.terms, w.terms)) {
			t.Fatalf("%s: row %d is %v %v %g, want %v %v %g", label, i, g.terms, g.sense, g.rhs, w.terms, w.sense, w.rhs)
		}
	}
}

// workspaceSeeds orders models so that a reused model or simplex meets a
// large one, then small ones, then a large one again.
func workspaceSeeds() []int64 {
	rng := rand.New(rand.NewSource(77))
	seeds := make([]int64, 60)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	return seeds
}

func TestResetModelMatchesFresh(t *testing.T) {
	reused := NewModel("reused")
	for i, seed := range workspaceSeeds() {
		fresh := NewModel("reused")
		buildRandomInto(fresh, seed)
		reused.Reset()
		buildRandomInto(reused, seed)
		sameModel(t, "reset model", reused, fresh)
		got, err := Solve(reused, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Solve(fresh, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("model %d: a Reset model solved to %+v, a fresh one to %+v", i, got, want)
		}
	}
	if reused.Name() != "reused" {
		t.Fatalf("Reset dropped the name: %q", reused.Name())
	}
}

// workspaceModels builds the workspaceSeeds models with a model ten times
// their size after every twelfth, so that a workspace also goes from large
// to small and back with nothing of the same size in between: what a solve
// leaves in the pricing cache, the stamp arrays and the factors' work counts
// and bypass state must not reach the next one.
func workspaceModels() []*Model {
	var models []*Model
	for i, seed := range workspaceSeeds() {
		m := NewModel("m")
		buildRandomInto(m, seed)
		models = append(models, m)
		if i%12 == 5 {
			models = append(models, benchWarmModel(300, 150, seed))
		}
	}
	return models
}

// solveCounts is what a solve reports to its recorder, the deterministic
// kernel work counts among it.
type solveCounts struct {
	Sol      *Solution
	Counters map[string]int64
}

// A simplex that has solved other models solves the next one exactly as a
// fresh simplex does — the same solution by the same work — and what it
// returned earlier is not touched by what it solves later.
func TestReusedSimplexMatchesFresh(t *testing.T) {
	models := workspaceModels()
	solve := func(sx *simplex, i int) solveCounts {
		m := models[i]
		rec := newHealthFakeRecorder()
		opts := &Options{Recorder: rec}
		if i%7 == 0 {
			opts.HealthEvery = 2
		}
		if err := sx.init(m, opts); err != nil {
			t.Fatal(err)
		}
		var sol *Solution
		var err error
		switch i % 3 {
		case 0:
			sol, err = sx.solve()
		case 1:
			sol, err = sx.solveWarm(SlackBasis(m))
		default:
			// A basis of the wrong shape: repaired, or abandoned for a cold start.
			sol, err = sx.solveWarm(&Basis{VarStatus: []BasisStatus{BasisBasic, BasisBasic, BasisFree}, RowStatus: []BasisStatus{BasisAtUpper}})
		}
		if err != nil {
			t.Fatalf("model %d: %v", i, err)
		}
		sx.attachHealth(sol)
		sx.flushMetrics()
		return solveCounts{sol, rec.counters}
	}
	reused := new(simplex)
	got := make([]solveCounts, len(models))
	for i := range models {
		got[i] = solve(reused, i)
	}
	statuses := map[Status]int{}
	reach, full := int64(0), int64(0)
	for i := range models {
		want := solve(new(simplex), i)
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("model %d: the reused simplex returned %+v by %v, a fresh one %+v by %v",
				i, got[i].Sol, got[i].Counters, want.Sol, want.Counters)
		}
		statuses[want.Sol.Status]++
		reach += want.Counters["lp.solve_reach"]
		full += want.Counters["lp.full_solves"]
	}
	if reach == 0 || full == 0 {
		t.Fatalf("kernel work counts not reported: lp.solve_reach %d, lp.full_solves %d", reach, full)
	}
	if statuses[StatusOptimal] < len(models)/2 {
		t.Fatalf("statuses %v: too few optimal solves to compare duals, certificates and bases", statuses)
	}
}

// The same through the public entry points, whose simplexes come from the
// pool: repeated solves of one model agree with each other whatever was
// solved in between.
func TestPooledSolveMatchesFresh(t *testing.T) {
	models := workspaceModels()
	first := make([]solveCounts, len(models))
	for round := 0; round < 2; round++ {
		for i, m := range models {
			rec := newHealthFakeRecorder()
			sol, err := SolveWithBasis(m, SlackBasis(m), &Options{Recorder: rec})
			if err != nil {
				t.Fatal(err)
			}
			if now := (solveCounts{sol, rec.counters}); round == 0 {
				first[i] = now
			} else if !reflect.DeepEqual(now, first[i]) {
				t.Fatalf("model %d: second solve %+v by %v, first %+v by %v", i, sol, rec.counters, first[i].Sol, first[i].Counters)
			}
		}
	}
}

func TestNamesDerivedWhenEmpty(t *testing.T) {
	m := NewModel("n")
	x := m.AddVar(0, 1, 1, "")
	y := m.AddVar(0, 1, 1, "why")
	c := m.AddConstr(Expr{}.Plus(1, x).Plus(1, y), LE, 1, "")
	d := m.AddConstr(Expr{}.Plus(1, x), LE, 1, "cap")
	if m.VarName(x) != "x0" || m.VarName(y) != "why" || m.ConstrName(c) != "c0" || m.ConstrName(d) != "cap" {
		t.Fatalf("names %q %q %q %q", m.VarName(x), m.VarName(y), m.ConstrName(c), m.ConstrName(d))
	}
}
