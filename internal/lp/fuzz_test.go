package lp

import (
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
// and with every pass over all rows, cold and from the slack basis, and
// wants the same pivots, basis and bits.
func FuzzSimplexKernel(f *testing.F) {
	for seed := int64(0); seed < 24; seed++ {
		f.Add(seed, uint8(seed*37))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		m := kernelLP(seed, shape)
		rng := rand.New(rand.NewSource(seed))
		for _, basis := range []*Basis{nil, SlackBasis(m)} {
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
		}
	})
}
