package lp

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchWarmModel builds a mid-sized LE-form LP shaped like the RWA
// assignment problems (all rows <=, nonnegative rhs, unit-ish columns):
// the family the pipeline warm-starts with a slack basis.
func benchWarmModel(nv, nr int, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	m := NewModel("bench-warm")
	m.SetMaximize(true)
	vars := make([]Var, nv)
	for j := range vars {
		vars[j] = m.AddVar(0, 1, 1+0.1*rng.Float64(), fmt.Sprintf("x%d", j))
	}
	for i := 0; i < nr; i++ {
		var e Expr
		for k := 0; k < 4; k++ {
			e = e.Plus(1, vars[rng.Intn(nv)])
		}
		m.AddConstr(e, LE, 1+rng.Float64()*2, fmt.Sprintf("r%d", i))
	}
	return m
}

// BenchmarkSolveWarmVsCold compares a cold Solve against a slack-basis
// warm start of the same model, reporting allocations per solve (the
// scratch-vector pooling keeps the warm path's allocs flat).
func BenchmarkSolveWarmVsCold(b *testing.B) {
	m := benchWarmModel(240, 120, 42)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sol, err := Solve(m, nil)
			if err != nil || sol.Status != StatusOptimal {
				b.Fatalf("sol=%v err=%v", sol, err)
			}
		}
	})
	b.Run("warm-slack", func(b *testing.B) {
		basis := SlackBasis(m)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sol, err := SolveWithBasis(m, basis, nil)
			if err != nil || sol.Status != StatusOptimal {
				b.Fatalf("sol=%v err=%v", sol, err)
			}
		}
	})
	b.Run("warm-own-basis", func(b *testing.B) {
		base, err := Solve(m, nil)
		if err != nil || base.Basis == nil {
			b.Fatalf("base solve: %v", err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sol, err := SolveWithBasis(m, base.Basis, nil)
			if err != nil || sol.Status != StatusOptimal {
				b.Fatalf("sol=%v err=%v", sol, err)
			}
		}
	})
}

// BenchmarkSimplexKernel times phase-2 pivots from the all-slack start on
// two models — the one TestPivotLoopAllocatesNothing uses and the online
// benchmark's Phase II LP (TestFrozenArrowPhase2) — one Options.Refactor
// block and a refactorisation per iteration, and reports what one pivot
// costs beside what it touched: the columns re-priced, the pivot steps its
// two triangular solves visited and the rows its ratio test visited.
func BenchmarkSimplexKernel(b *testing.B) {
	for _, c := range []struct {
		name string
		m    *Model
	}{
		{"bench-warm", benchWarmModel(900, 450, 7)},
		{"arrow-phase2", loadFrozenLP(b, "arrow_phase2_facebook_m0.json.gz")},
	} {
		b.Run(c.name, func(b *testing.B) { benchKernel(b, c.m) })
	}
}

func benchKernel(b *testing.B, m *Model) {
	start := func() *simplex {
		sx, err := newSimplex(m, nil)
		if err != nil {
			b.Fatal(err)
		}
		sx.opt.MaxIter = 0
		if sol, err := sx.solveWarm(SlackBasis(m)); err != nil || sol.Status != StatusIterLimit || !sol.Warm.Phase1Skipped {
			b.Fatalf("set-up solve: %+v, %v", sol, err)
		}
		return sx
	}
	sx := start()
	pivots, repriced, visited, ratio := 0, 0, 0, 0
	tally := func() {
		pivots += sx.iters
		repriced += sx.repriced
		visited += sx.lu.visited
		ratio += sx.ratioRows
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sx.opt.MaxIter = sx.iters + sx.opt.Refactor
		st, err := sx.iterate(sx.cost, false)
		if err != nil {
			b.Fatal(err)
		}
		if st == StatusOptimal { // start over, off the clock
			b.StopTimer()
			tally()
			sx = start()
			b.StartTimer()
		} else if err := sx.refactorize(); err != nil {
			b.Fatal(err)
		}
	}
	tally()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pivots), "ns/pivot")
	b.ReportMetric(float64(repriced)/float64(pivots), "repriced-cols/pivot")
	b.ReportMetric(float64(visited)/float64(2*pivots), "reach/solve")
	b.ReportMetric(float64(ratio)/float64(pivots), "ratio-rows/pivot")
}
