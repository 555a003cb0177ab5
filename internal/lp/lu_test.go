package lp

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
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

// TestLUSolveReachMatchesFullLoop compares solve and solveT with the
// full-length passes they replaced (solveFull, solveTFull) on bases from an
// identity to 30 % dense and right-hand sides whose nonzero count straddles
// the n/reachShare limit, so that a call follows its reach, runs full length
// from the start, or gives the search up midway — and every call after the
// first on a basis meets whatever bypass state the calls before left.
func TestLUSolveReachMatchesFullLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(9103))
	kinds := []string{"identity", "permutation", "slack-heavy", "30% dense"}
	basis := func(kind string, n int) []spCol {
		cols := make([]spCol, n)
		switch kind {
		case "identity":
			for j := range cols {
				cols[j].add(j, 1)
			}
		case "permutation":
			for j, r := range rng.Perm(n) {
				cols[j].add(r, 1+rng.Float64())
			}
		case "slack-heavy":
			// Unit columns but for one in five, which is a structural column
			// of a few entries (its own row among them, dominant).
			for j := range cols {
				cols[j].add(j, 1)
				if rng.Intn(5) == 0 {
					cols[j].vals[0] = 4 + rng.Float64()
					for k := rng.Intn(6); k > 0; k-- {
						if r := rng.Intn(n); r != j {
							cols[j].add(r, rng.NormFloat64())
						}
					}
				}
			}
		default:
			_, cols = randomSparse(rng, n, 0.3)
		}
		return cols
	}
	var reach, full, handOver [2]int
	sides := []string{"solve", "solveT"}
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(400)
		if trial < 12 {
			n = 1 + trial // the sizes at which n/reachShare is 0, 1, 2
		}
		kind := kinds[trial%len(kinds)]
		f, err := factorize(n, basis(kind, n))
		if err != nil {
			t.Fatalf("trial %d (%s, n=%d): %v", trial, kind, n, err)
		}
		limit := n / reachShare
		counts := []int{0, 1, limit - 1, limit, limit + 1, n}
		rng.Shuffle(len(counts), func(i, j int) { counts[i], counts[j] = counts[j], counts[i] })
		got, want := make([]float64, n), make([]float64, n)
		for round, nz := range append(counts, counts...) {
			nz = max(0, min(nz, n))
			rhs := make([]float64, n)
			for _, i := range rng.Perm(n)[:nz] {
				rhs[i] = rng.NormFloat64()
			}
			if round >= len(counts) {
				f.bypass = [2]int{} // second time round, every call searches
			}
			for side, name := range sides {
				bypassed, fullBefore := f.bypass[side] > 0, f.fullSolves
				in := append([]float64(nil), rhs...)
				if side == 0 {
					f.solve(in, got)
					f.solveFull(append([]float64(nil), rhs...), want)
				} else {
					f.solveT(in, got)
					f.solveTFull(rhs, want)
					if !reflect.DeepEqual(in, rhs) {
						t.Fatalf("trial %d: solveT wrote to its right-hand side", trial)
					}
				}
				at := fmt.Sprintf("trial %d (%s, n=%d), %s of %d nonzeros", trial, kind, n, name, nz)
				if i, ok := sameBits(got, want); !ok {
					t.Fatalf("%s: [%d] = %v (%#x), full-length passes give %v (%#x)", at, i,
						got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
				for i, v := range f.work {
					if v != 0 {
						t.Fatalf("%s: work[%d] = %v left behind", at, i, v)
					}
				}
				switch {
				case !bypassed && f.bypass[side] == bypassCalls:
					handOver[side]++
				case f.fullSolves-fullBefore == 2: // the call's own and the reference's
					full[side]++
				default:
					reach[side]++
				}
			}
		}
	}
	for side, name := range sides {
		if reach[side] < 100 || full[side] < 100 || handOver[side] < 100 {
			t.Errorf("%s: weak coverage: %d calls followed their reach, %d ran full length, %d gave the search up midway",
				name, reach[side], full[side], handOver[side])
		}
	}
	t.Logf("reach / full / hand-over: solve %d / %d / %d, solveT %d / %d / %d",
		reach[0], full[0], handOver[0], reach[1], full[1], handOver[1])
}
