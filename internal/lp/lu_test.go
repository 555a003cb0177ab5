package lp

import (
	"math"
	"math/rand"
	"testing"
)

// factorize factors the columns into fresh luFactors, the way a solve's
// first refactorisation does.
func factorize(n int, cols []spCol) (*luFactors, error) {
	f := newLUFactors(n)
	_, err := f.factor(cols, false)
	return f, err
}

// denseSolve solves A x = b by Gaussian elimination with partial pivoting.
// A is row-major n*n. Returns false if singular.
func denseSolve(n int, a []float64, b []float64) ([]float64, bool) {
	m := make([]float64, len(a))
	copy(m, a)
	x := make([]float64, n)
	copy(x, b)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for k := 0; k < n; k++ {
		// pivot
		p, best := -1, 1e-12
		for i := k; i < n; i++ {
			if v := math.Abs(m[i*n+k]); v > best {
				best, p = v, i
			}
		}
		if p < 0 {
			return nil, false
		}
		if p != k {
			for j := 0; j < n; j++ {
				m[p*n+j], m[k*n+j] = m[k*n+j], m[p*n+j]
			}
			x[p], x[k] = x[k], x[p]
		}
		for i := k + 1; i < n; i++ {
			f := m[i*n+k] / m[k*n+k]
			if f == 0 {
				continue
			}
			for j := k; j < n; j++ {
				m[i*n+j] -= f * m[k*n+j]
			}
			x[i] -= f * x[k]
		}
	}
	for k := n - 1; k >= 0; k-- {
		s := x[k]
		for j := k + 1; j < n; j++ {
			s -= m[k*n+j] * x[j]
		}
		x[k] = s / m[k*n+k]
	}
	return x, true
}

// randomSparse builds a random, diagonally nudged, nonsingular sparse matrix
// both as dense row-major and as sparse columns.
func randomSparse(rng *rand.Rand, n int, density float64) ([]float64, []spCol) {
	dense := make([]float64, n*n)
	cols := make([]spCol, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if i == j || rng.Float64() < density {
				v := rng.NormFloat64()
				if i == j {
					v += 3 * (1 + rng.Float64()) // keep well-conditioned
				}
				if v == 0 {
					v = 0.5
				}
				dense[i*n+j] = v
				cols[j].add(i, v)
			}
		}
	}
	return dense, cols
}

func TestLUSolveMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(30)
		dense, cols := randomSparse(rng, n, 0.2)
		f, err := factorize(n, cols)
		if err != nil {
			t.Fatalf("trial %d: factorize: %v", trial, err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want, ok := denseSolve(n, dense, b)
		if !ok {
			continue
		}
		got := make([]float64, n)
		bc := append([]float64(nil), b...)
		f.solve(bc, got)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-7*(1+math.Abs(want[i])) {
				t.Fatalf("trial %d n=%d: solve x[%d]=%g want %g", trial, n, i, got[i], want[i])
			}
		}
	}
}

func TestLUSolveTransposeMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(25)
		dense, cols := randomSparse(rng, n, 0.25)
		f, err := factorize(n, cols)
		if err != nil {
			t.Fatalf("trial %d: factorize: %v", trial, err)
		}
		c := make([]float64, n)
		for i := range c {
			c[i] = rng.NormFloat64()
		}
		// Build dense transpose and solve.
		dt := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				dt[j*n+i] = dense[i*n+j]
			}
		}
		want, ok := denseSolve(n, dt, c)
		if !ok {
			continue
		}
		got := make([]float64, n)
		f.solveT(c, got)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-7*(1+math.Abs(want[i])) {
				t.Fatalf("trial %d n=%d: solveT y[%d]=%g want %g", trial, n, i, got[i], want[i])
			}
		}
	}
}

func TestLUSingularDetected(t *testing.T) {
	// Two identical columns.
	cols := make([]spCol, 2)
	cols[0].add(0, 1)
	cols[0].add(1, 2)
	cols[1].add(0, 1)
	cols[1].add(1, 2)
	if _, err := factorize(2, cols); err == nil {
		t.Fatal("expected singular-basis error")
	}
}

func TestLUIdentity(t *testing.T) {
	n := 5
	cols := make([]spCol, n)
	for i := 0; i < n; i++ {
		cols[i].add(i, 1)
	}
	f, err := factorize(n, cols)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, -2, 3, -4, 5}
	x := make([]float64, n)
	bc := append([]float64(nil), b...)
	f.solve(bc, x)
	for i := range b {
		if math.Abs(x[i]-b[i]) > 1e-12 {
			t.Fatalf("identity solve: x[%d]=%g", i, x[i])
		}
	}
	y := make([]float64, n)
	f.solveT(b, y)
	for i := range b {
		if math.Abs(y[i]-b[i]) > 1e-12 {
			t.Fatalf("identity solveT: y[%d]=%g", i, y[i])
		}
	}
}

func TestLUPermutation(t *testing.T) {
	// A permutation matrix: column j has a 1 in row (j+2)%n.
	n := 7
	cols := make([]spCol, n)
	for j := 0; j < n; j++ {
		cols[j].add((j+2)%n, 1)
	}
	f, err := factorize(n, cols)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i + 1)
	}
	x := make([]float64, n)
	bc := append([]float64(nil), b...)
	f.solve(bc, x)
	// B x = b with B[(j+2)%n][j]=1 means x[j] = b[(j+2)%n].
	for j := 0; j < n; j++ {
		if want := b[(j+2)%n]; math.Abs(x[j]-want) > 1e-12 {
			t.Fatalf("perm solve: x[%d]=%g want %g", j, x[j], want)
		}
	}
}
