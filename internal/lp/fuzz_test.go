package lp

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// kernelLP draws a sparse LP from seed, with 10 to 160 rows by shape: free,
// fixed, half-bounded and boxed variables of one to four entries each, and
// equality and inequality rows that an integer point at many bounds meets,
// most of them tightly, so that the vertices are degenerate. Only boxed
// variables carry a cost, so the LP is bounded: most of them, or in half the
// LPs one in twenty, which keeps y sparse. One LP in eight moves an
// equality's right-hand side off that point and may be infeasible.
func kernelLP(seed int64, shape uint8) *Model {
	rng := rand.New(rand.NewSource(seed))
	nr := 10 + int(shape)%151
	nv := nr/2 + rng.Intn(2*nr)
	m := NewModel("kernel-fuzz")
	m.SetMaximize(rng.Intn(2) == 0)
	rows := make([]Expr, nr)
	coefs := []float64{1, 1, 1, -1, -1, 2, -2, 0.5, 3}
	point := make([]float64, nv)
	costly := []int{8, 1}[rng.Intn(2)]
	shift := rng.Intn(8) == 0
	for j := range point {
		lb, ub, obj := 0.0, float64(1+rng.Intn(10)), 0.0
		switch rng.Intn(10) {
		case 0:
			lb, ub = math.Inf(-1), Inf
			point[j] = float64(rng.Intn(7) - 3)
		case 1:
			lb = float64(rng.Intn(5) - 2)
			ub, point[j] = lb, lb
		case 2:
			lb, ub = -float64(rng.Intn(2)), Inf
			point[j] = lb + float64(rng.Intn(3))
		case 3:
			lb = math.Inf(-1)
			point[j] = ub - float64(rng.Intn(3))
		default:
			switch rng.Intn(3) {
			case 0:
				point[j] = lb
			case 1:
				point[j] = ub
			default:
				point[j] = float64(rng.Intn(int(ub) + 1))
			}
			if rng.Intn(20) < 2*costly {
				obj = math.Round(rng.NormFloat64() * 3)
			}
		}
		v := m.AddVar(lb, ub, obj, "x")
		for k := 1 + rng.Intn(4); k > 0; k-- {
			i := rng.Intn(nr)
			rows[i] = rows[i].Plus(coefs[rng.Intn(len(coefs))], v)
		}
	}
	for _, e := range rows {
		if len(e) == 0 {
			e = e.Plus(1, Var(rng.Intn(nv)))
		}
		at := 0.0
		for _, term := range e {
			at += term.Coef * point[term.Var]
		}
		slack := float64(rng.Intn(3)) * float64(rng.Intn(2))
		switch rng.Intn(10) {
		case 0, 1:
			if shift {
				at, shift = at+1, false
			}
			m.AddConstr(e, EQ, at, "eq")
		case 2, 3:
			m.AddConstr(e, GE, at-slack, "ge")
		default:
			m.AddConstr(e, LE, at+slack, "le")
		}
	}
	return m
}

// kernelStep is what one iteration of the pivot loop chose.
type kernelStep struct {
	iters, enter int
	dir          float64
}

// solveKernel solves m (from basis, when given) and records every
// iteration's choice. dense runs every pass of the pivot loop over all rows,
// the reference; otherwise the patterns are checked at every pivot, from a
// mark epoch a few rounds short of its wrap.
func solveKernel(t *testing.T, m *Model, basis *Basis, dense bool, rng *rand.Rand) (*Solution, []kernelStep) {
	t.Helper()
	sx, err := newSimplex(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	var steps []kernelStep
	sx.afterPricing = func(_ []float64, _ bool, enter int, dir float64) {
		steps = append(steps, kernelStep{sx.iters, enter, dir})
	}
	if sx.dense = dense; !dense {
		checkPatterns(t, sx, m.Name(), new(pricingStats))
		sx.epoch = math.MaxInt32 - 1 - int32(rng.Intn(20))
		for i := range sx.mark {
			sx.mark[i] = sx.epoch - int32(rng.Intn(3))
		}
	}
	var sol *Solution
	if basis != nil {
		sol, err = sx.solveWarm(basis)
	} else {
		sol, err = sx.solve()
	}
	if err != nil {
		t.Fatal(err)
	}
	return sol, steps
}

// FuzzSimplexKernel solves random sparse LPs with the pivot loop's patterns
// and with every pass over all rows, cold, from the slack basis and, extended
// as resolveLP extends them, from their optimal basis (the dual simplex's
// start), and wants the same pivots, basis and bits. Each solve is taken a
// third time through SolveInto, into one Solution that every solve of the
// input before has filled, and wants the same Solution.
func FuzzSimplexKernel(f *testing.F) {
	for seed := int64(0); seed < 24; seed++ {
		f.Add(seed, uint8(seed*37))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		m := kernelLP(seed, shape)
		rng := rand.New(rand.NewSource(seed))
		models, bases := []*Model{m, m}, []*Basis{nil, SlackBasis(m)}
		if rm, rb := resolveLP(t, seed, shape, uint8(seed)); rm != nil {
			models, bases = append(models, rm), append(bases, rb)
		}
		reused := new(Solution)
		for k, basis := range bases {
			m := models[k]
			got, gotSteps := solveKernel(t, m, basis, false, rng)
			want, wantSteps := solveKernel(t, m, basis, true, rng)
			if !reflect.DeepEqual(gotSteps, wantSteps) {
				t.Fatalf("warm=%v: pivots with patterns\n%v\nover all rows\n%v", basis != nil, gotSteps, wantSteps)
			}
			if got.Status != want.Status || got.Iterations != want.Iterations ||
				math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
				t.Fatalf("warm=%v: %v after %d pivots at %v with patterns, %v after %d at %v over all rows", basis != nil,
					got.Status, got.Iterations, got.Objective, want.Status, want.Iterations, want.Objective)
			}
			if i, ok := sameBits(got.X, want.X); !ok {
				t.Fatalf("warm=%v: x[%d] = %v with patterns, %v over all rows", basis != nil, i, got.X[i], want.X[i])
			}
			if !reflect.DeepEqual(got.Basis, want.Basis) {
				t.Fatalf("warm=%v: final bases differ", basis != nil)
			}
			if _, err := SolveInto(reused, m, basis, nil); err != nil {
				t.Fatal(err)
			}
			if d := solutionDiff(reused, got); d != "" {
				t.Fatalf("warm=%v: into a reused Solution: %s", basis != nil, d)
			}
		}
	})
}

// resolveLP extends kernelLP(seed, shape) the way this package's callers
// extend a solved model before a warm re-solve, and returns the extended
// model with the basis to re-solve it from (nil: the LP has no optimum to
// extend). mode 0 appends rows the optimum violates, each relaxed by a
// boxed delta column of its own as a column-generation master's are; mode
// 1 tightens the bounds of up to two basic variables past their optimal
// values, as a branch-and-bound child does; mode 2 appends, beside violated
// rows, a row no point within the bounds meets.
func resolveLP(t *testing.T, seed int64, shape, mode uint8) (*Model, *Basis) {
	m := kernelLP(seed, shape%64)
	sol, err := Solve(m, nil)
	if err != nil || sol.Status != StatusOptimal {
		return nil, nil
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	x := sol.X
	boxed := func(j int) bool {
		lb, ub := m.Bounds(Var(j))
		return !math.IsInf(lb, 0) && !math.IsInf(ub, 0)
	}
	switch mode % 3 {
	case 1:
		for j, n := 0, 0; j < len(x) && n < 2; j++ {
			if sol.Basis.VarStatus[j] != BasisBasic || rng.Intn(3) > 0 {
				continue
			}
			n++
			lb, ub := m.Bounds(Var(j))
			if rng.Intn(2) == 0 && x[j]-0.5 >= lb {
				m.SetBounds(Var(j), lb, math.Floor(x[j]-0.5))
			} else if x[j]+0.5 <= ub {
				m.SetBounds(Var(j), math.Ceil(x[j]+0.5), ub)
			}
		}
	default:
		for k := 1 + rng.Intn(4); k > 0; k-- {
			var e Expr
			at := 0.0
			for n := 1 + rng.Intn(4); n > 0; n-- {
				j := rng.Intn(len(x))
				c := float64(rng.Intn(5) - 2)
				if c == 0 {
					c = 1
				}
				e = e.Plus(c, Var(j))
				at += c * x[j]
			}
			u := m.AddVar(0, float64(rng.Intn(3)), 0, "delta")
			m.AddConstr(e.Plus(-1, u), LE, at-0.5*float64(1+rng.Intn(3)), "cut")
		}
		if mode%3 == 2 {
			var e Expr
			min, n := 0.0, 0
			for j := range x {
				if boxed(j) && n < 3 {
					lb, _ := m.Bounds(Var(j))
					e, min, n = e.Plus(1, Var(j)), min+lb, n+1
				}
			}
			if n == 0 {
				return nil, nil
			}
			m.AddConstr(e, LE, min-1, "impossible")
		}
	}
	basis := sol.Basis.Clone()
	basis.ExtendTo(m)
	return m, basis
}

// FuzzLPResolve re-solves extended LPs (resolveLP) from the warm basis and
// cold, and wants the same status, objectives within 1e-9 relative and
// certificates that pass; an extension built infeasible must read
// ErrInfeasible, and a warm re-solve cut short in its dual pivots
// ErrIterLimit. Both solves are taken again through SolveInto into one
// Solution, warm then cold, and must fill it as the fresh ones came out.
func FuzzLPResolve(f *testing.F) {
	for seed := int64(0); seed < 48; seed++ {
		f.Add(seed, uint8(seed*37), uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape, mode uint8) {
		m, basis := resolveLP(t, seed, shape, mode)
		if m == nil {
			return
		}
		warm, err := SolveWithBasis(m, basis, nil)
		if err != nil {
			t.Fatalf("warm: %v", err)
		}
		cold, err := Solve(m, nil)
		if err != nil {
			t.Fatalf("cold: %v", err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("warm %v (%+v), cold %v", warm.Status, warm.Warm, cold.Status)
		}
		reused := new(Solution)
		for _, c := range []struct {
			basis *Basis
			want  *Solution
		}{{basis, warm}, {nil, cold}} {
			if _, err := SolveInto(reused, m, c.basis, nil); err != nil {
				t.Fatal(err)
			}
			if d := solutionDiff(reused, c.want); d != "" {
				t.Fatalf("warm=%v: into a reused Solution: %s", c.basis != nil, d)
			}
		}
		if mode%3 == 2 && !errors.Is(warm.Status.Err(), ErrInfeasible) {
			t.Fatalf("impossible row: warm status %v", warm.Status)
		}
		if warm.Status == StatusOptimal {
			if diff := math.Abs(warm.Objective - cold.Objective); diff > 1e-9*math.Max(1, math.Abs(cold.Objective)) {
				t.Fatalf("objective warm %.12g (%+v), cold %.12g", warm.Objective, warm.Warm, cold.Objective)
			}
			for _, s := range []*Solution{warm, cold} {
				if err := CheckCertificate(s.Cert, DefaultCertTol); err != nil {
					t.Fatalf("warm=%v: %v", s == warm, err)
				}
			}
		}
		if !warm.Warm.Dual || warm.Iterations < 2 {
			return
		}
		cut, err := SolveWithBasis(m, basis, &Options{MaxIter: warm.Iterations / 2})
		if err != nil {
			t.Fatal(err)
		}
		if !errors.Is(cut.Status.Err(), ErrIterLimit) {
			t.Fatalf("cut at %d of %d pivots: status %v", warm.Iterations/2, warm.Iterations, cut.Status)
		}
	})
}

// FuzzDuplicateRows appends to kernelLP(seed, shape) a copy of one of its
// rows, as it is or with a looser right-hand side (an equality's copy
// becomes the inequality it implies), and solves both LPs cold. A row
// implied by another cannot move the optimum: the status must be the
// same, and at an optimum the objectives within 1e-9 relative and both
// certificates must pass. This is what lets a model keep one row per
// distinct left-hand side at its tightest bound.
func FuzzDuplicateRows(f *testing.F) {
	for seed := int64(0); seed < 24; seed++ {
		f.Add(seed, uint8(seed*37), uint8(seed*11))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape, pick uint8) {
		m := kernelLP(seed, shape)
		want, err := Solve(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		r := m.rows[int(pick)%len(m.rows)]
		looser := rowCopy{LE, r.rhs + float64(1+pick%3)}
		if r.sense == GE {
			looser = rowCopy{GE, r.rhs - float64(1+pick%3)}
		}
		for _, copyOf := range []rowCopy{{r.sense, r.rhs}, looser} {
			d := m.Clone()
			d.AddConstr(Expr(r.terms), copyOf.sense, copyOf.rhs, "copy")
			got, err := Solve(d, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got.Status != want.Status {
				t.Fatalf("row %d copied %v %v: %v, the LP without it %v", int(pick)%len(m.rows), copyOf.sense, copyOf.rhs, got.Status, want.Status)
			}
			if want.Status != StatusOptimal {
				continue
			}
			if diff := math.Abs(got.Objective - want.Objective); diff > 1e-9*math.Max(1, math.Abs(want.Objective)) {
				t.Fatalf("row %d copied %v %v: objective %.12g, without it %.12g", int(pick)%len(m.rows), copyOf.sense, copyOf.rhs, got.Objective, want.Objective)
			}
			for _, s := range []*Solution{want, got} {
				if err := CheckCertificate(s.Cert, DefaultCertTol); err != nil {
					t.Fatalf("row %d copied %v %v: copy=%v: %v", int(pick)%len(m.rows), copyOf.sense, copyOf.rhs, s == got, err)
				}
			}
		}
	})
}

// rowCopy is the sense and right-hand side a copied row is appended with.
type rowCopy struct {
	sense Sense
	rhs   float64
}
