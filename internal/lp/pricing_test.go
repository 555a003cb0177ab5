package lp

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// The tests in this file walk the ways the pricing cache (simplex.dj, score,
// yRef) could go stale and check, with checkPricing comparing it against the
// full scan in every iteration, that each one really happened in the solve
// and left the cache right.

// checkedSolve solves m (from basis, when given) on a fresh simplex with
// checkPricing on, after prepare has had its way with the simplex, and
// records the entering variable of every iteration.
func checkedSolve(t *testing.T, m *Model, basis *Basis, opts *Options, prepare func(*simplex)) (*simplex, *Solution, *pricingStats, []int) {
	t.Helper()
	sx, err := newSimplex(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := new(pricingStats)
	checkPricing(t, sx, m.Name(), st)
	var enters []int
	check := sx.afterPricing
	sx.afterPricing = func(cost []float64, phase1 bool, enter int, dir float64) {
		check(cost, phase1, enter, dir)
		enters = append(enters, enter)
	}
	if prepare != nil {
		prepare(sx)
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
	sx.attachHealth(sol)
	if sol.Status != StatusOptimal {
		t.Fatalf("%s: status %v", m.Name(), sol.Status)
	}
	if err := CheckCertificate(sol.Cert, 0); err != nil {
		t.Fatalf("%s: %v", m.Name(), err)
	}
	return sx, sol, st, enters
}

// The cost vector changes and the artificials are pinned between the phases:
// phase 2 must not see a reduced cost or a score of phase 1.
func TestPricingCacheDroppedBetweenPhases(t *testing.T) {
	m := NewModel("phase switch")
	x := m.AddVar(0, 10, 1, "x")
	y := m.AddVar(0, 10, 2, "y")
	z := m.AddVar(0, 10, -1, "z")
	m.AddConstr(Expr{}.Plus(1, x).Plus(1, y), GE, 4, "")
	m.AddConstr(Expr{}.Plus(1, y).Plus(1, z), GE, 3, "")
	m.AddConstr(Expr{}.Plus(1, x).Plus(-1, z), EQ, 1, "")
	_, sol, st, _ := checkedSolve(t, m, nil, nil, nil)
	if st.phase1 == 0 || st.phase2 == 0 {
		t.Fatalf("want iterations in both phases, got %+v", st)
	}
	if want := 1.0; math.Abs(sol.Objective-want) > 1e-9 {
		t.Fatalf("objective %v, want %v", sol.Objective, want)
	}
}

// A bound flip changes the entering variable's status and nothing else: no
// y moves, so only pivot's own rescore keeps its score from offering it
// again.
func TestPricingCacheAfterBoundFlip(t *testing.T) {
	m := NewModel("bound flip")
	m.SetMaximize(true)
	x := m.AddVar(0, 1, 1, "x")
	y := m.AddVar(0, 20, 0.1, "y")
	m.AddConstr(Expr{}.Plus(1, x).Plus(1, y), LE, 10, "")
	_, sol, st, enters := checkedSolve(t, m, SlackBasis(m), nil, nil)
	if st.flips == 0 || enters[0] != int(x) {
		t.Fatalf("no bound flip of x in %v (%+v)", enters, st)
	}
	if want := 1.9; math.Abs(sol.Objective-want) > 1e-9 {
		t.Fatalf("objective %v, want %v", sol.Objective, want)
	}
}

// pivot's guard against a tiny pivot element refactorises and returns
// without pivoting; the next iteration prices against freshly factored
// duals and must offer the same column again.
func TestPricingCacheAfterTinyPivotRetry(t *testing.T) {
	m := NewModel("tiny pivot")
	m.SetMaximize(true)
	z := m.AddVar(0, Inf, 10, "z")
	x := m.AddVar(0, Inf, 1, "x")
	m.AddConstr(Expr{}.Plus(1, z), LE, 1, "")
	m.AddConstr(Expr{}.Plus(5e-9, x), LE, 1, "")
	sx, sol, _, enters := checkedSolve(t, m, SlackBasis(m), nil, nil)
	if want := []int{int(z), int(x), int(x), -1}; !reflect.DeepEqual(enters, want) {
		t.Fatalf("entering sequence %v, want %v (x twice: the guard's retry)", enters, want)
	}
	if sx.refactors != 2 || sol.Iterations != 3 {
		t.Fatalf("%d refactorisations, %d iterations; want the warm one and the guard's, and 3", sx.refactors, sol.Iterations)
	}
	if want := 10 + 2e8; math.Abs(sol.Objective-want) > 1e-3 {
		t.Fatalf("objective %v, want %v", sol.Objective, want)
	}
}

// Bland's rule engages on the consecutive-degenerate count, which the cache
// knows nothing about: the scan must switch to the first positive score the
// moment it does and back when a pivot makes progress.
func TestPricingCacheUnderBland(t *testing.T) {
	m := healthNetworkModel(3)
	_, plain, _, _ := checkedSolve(t, m, nil, nil, nil)
	_, sol, st, _ := checkedSolve(t, m, nil, nil, func(sx *simplex) {
		sx.degenerate = 3*(sx.nRow+10) + 1
	})
	if st.blandOn == 0 || st.blandOn == st.checks {
		t.Fatalf("want Bland's rule on for a stretch of the solve, got %+v", st)
	}
	if math.Abs(sol.Objective-plain.Objective) > 1e-7 {
		t.Fatalf("objective %v under Bland, %v without", sol.Objective, plain.Objective)
	}
}

// A warm start installs no artificial column, or only those of the rows it
// has to repair: the others are empty columns pinned at zero, whose reduced
// cost is their cost and whose score is 0.
func TestPricingCacheWithRetiredArtificials(t *testing.T) {
	m, vars := chainModel(24)
	m.SetName("retired artificials")
	sx, sol, st, _ := checkedSolve(t, m, SlackBasis(m), nil, nil)
	if st.phase1 != 0 || !sol.Warm.Phase1Skipped {
		t.Fatalf("slack-basis start ran phase 1: %+v, %+v", st, sol.Warm)
	}
	for a := sx.nStr + sx.nRow; a < sx.nTot; a++ {
		if len(sx.cols[a].rows) != 0 {
			t.Fatalf("artificial %d installed on a start that skipped phase 1", a)
		}
	}
	// Rows the optimum violates: their slacks are swapped for artificials and
	// phase 1 scans installed and never-installed artificials side by side.
	// The new column prices in, so the basis is not dual feasible and the
	// dual simplex does not take the solve.
	for i := 0; i+2 < len(vars); i += 3 {
		m.AddConstr(Expr{}.Plus(1, vars[i]).Plus(1, vars[i+1]).Plus(1, vars[i+2]), LE, 11, "trio")
	}
	m.AddVar(0, 1, 1, "bonus")
	basis := sol.Basis.Clone()
	basis.ExtendTo(m)
	sx, _, st, _ = checkedSolve(t, m, basis, nil, nil)
	installed := 0
	for a := sx.nStr + sx.nRow; a < sx.nTot; a++ {
		installed += len(sx.cols[a].rows)
	}
	if st.phase1 == 0 || st.emptyArts == 0 || installed == 0 || installed == sx.nRow {
		t.Fatalf("want a phase 1 over %d installed and some retired artificials, got %+v", installed, st)
	}
}

// Health probes run between pivots and only read: the cache, and with it the
// entering sequence, is the same with probes on and off.
func TestPricingCacheWithHealthProbes(t *testing.T) {
	m := healthNetworkModel(35)
	_, plain, _, want := checkedSolve(t, m, nil, nil, nil)
	_, probed, _, got := checkedSolve(t, m, nil, &Options{HealthEvery: 1}, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("entering sequence with probes on\n%v\nwithout\n%v", got, want)
	}
	if probed.Health == nil || len(probed.Health.Samples) != probed.Iterations {
		t.Fatalf("probes did not run every pivot: %+v", probed.Health)
	}
	probed.Health = nil
	if !reflect.DeepEqual(probed, plain) {
		t.Fatalf("solution with probes on %+v, without %+v", probed, plain)
	}
}

// A NaN in y equals nothing, the NaN remembered from the pivot before
// included, so the columns of its row are re-priced — to NaN, score 0 — on
// every pivot, as the full scan would have them.
func TestPricingCacheTreatsNaNAsMoved(t *testing.T) {
	m := benchWarmModel(60, 30, 42)
	sx, err := newSimplex(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	sx.opt.MaxIter = 5
	if sol, err := sx.solveWarm(SlackBasis(m)); err != nil || sol.Status != StatusIterLimit {
		t.Fatalf("set-up solve: %+v, %v", sol, err)
	}
	// The cache stands as iterate left it: priced for yRef, phase 2.
	const row = 7
	copy(sx.y, sx.yRef)
	sx.y[row] = math.NaN()
	touched := 1 + len(m.rows[row].terms) // the row's slack and its columns
	for round := 0; round < 3; round++ {
		before := sx.repriced
		sx.repriceMoved(sx.cost, false)
		if got := sx.repriced - before; got != touched {
			t.Fatalf("round %d: %d columns re-priced for a NaN in y[%d], want %d", round, got, row, touched)
		}
		for j := 0; j < sx.nStr+sx.nRow; j++ {
			want := sx.cost[j]
			for i, r := range sx.cols[j].rows {
				want -= sx.y[r] * sx.cols[j].vals[i]
			}
			if got := sx.dj[j]; math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("round %d: dj[%d] = %v, from scratch %v", round, j, got, want)
			}
			if math.IsNaN(want) && sx.score[j] != 0 {
				t.Fatalf("round %d: score[%d] = %v for a NaN reduced cost", round, j, sx.score[j])
			}
		}
		for _, bland := range []bool{false, true} {
			gotEnter, gotDir := sx.pickEntering(sx.nStr+sx.nRow, bland)
			wantEnter, wantDir := refPrice(sx, sx.cost, sx.y, bland, false)
			if gotEnter != wantEnter || gotDir != wantDir {
				t.Fatalf("round %d, bland=%v: score scan picks (%d, %v), full scan (%d, %v)", round, bland, gotEnter, gotDir, wantEnter, wantDir)
			}
		}
	}
}

// Both stamp arrays — the columns re-priced this round, the pivot steps
// reached this search — are compared with a counter that wraps at
// math.MaxInt32; stamps from before the wrap must not pass for fresh ones.
func TestStampEpochsSurviveWrapping(t *testing.T) {
	m := healthNetworkModel(3)
	_, want, _, wantEnters := checkedSolve(t, m, nil, nil, nil)
	var wrapped *simplex
	_, got, _, gotEnters := checkedSolve(t, m, nil, nil, func(sx *simplex) {
		wrapped = sx
		// Some way short of the wrap — the first searches of a cold start
		// have nothing to reach — with every stamp already holding a value
		// the counters take soon after it.
		sx.colEpoch, sx.lu.epoch = math.MaxInt32-20, math.MaxInt32-60
		for j := range sx.colStamp {
			sx.colStamp[j] = 1 + int32(j%3)
		}
		for k := range sx.lu.mark {
			sx.lu.mark[k] = 1 + int32(k%50)
		}
	})
	if wrapped.colEpoch > 1<<20 || wrapped.lu.epoch > 1<<20 {
		t.Fatalf("epochs %d and %d: no wrap happened", wrapped.colEpoch, wrapped.lu.epoch)
	}
	if !reflect.DeepEqual(gotEnters, wantEnters) || !reflect.DeepEqual(got, want) {
		t.Fatalf("solve across the epoch wrap differs:\n%v\n%+v\nwant\n%v\n%+v", gotEnters, got, wantEnters, want)
	}
}

// pivot owes the entering and the leaving variable a score that fits their
// new status whether or not the next BTRAN moves a y on their rows (a move
// that rounding can absorb); here the basic columns carry reduced costs that
// rounding has left well off zero.
func TestPivotRescoresEnteringAndLeaving(t *testing.T) {
	m := benchWarmModel(60, 30, 42)
	sx, err := newSimplex(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	sx.opt.MaxIter = 5
	if sol, err := sx.solveWarm(SlackBasis(m)); err != nil || sol.Status != StatusIterLimit {
		t.Fatalf("set-up solve: %+v, %v", sol, err)
	}
	// One more iteration by hand, up to the pivot.
	for pos, j := range sx.basisOf {
		sx.cb[pos] = sx.cost[j]
	}
	sx.btran(sx.cb, sx.y)
	sx.repriceMoved(sx.cost, false)
	enter, dir := sx.pickEntering(sx.nStr+sx.nRow, false)
	if enter < 0 {
		t.Fatal("set-up solve stopped at the optimum")
	}
	clear(sx.w)
	for i, r := range sx.cols[enter].rows {
		sx.w[r] += sx.cols[enter].vals[i]
	}
	sx.ftran(sx.w, sx.d)
	before := append([]int(nil), sx.basisOf...)
	for _, j := range before {
		sx.dj[j] = -1
	}
	if st, err := sx.pivot(enter, dir, sx.d, false); err != nil || st != statusContinue || sx.status[enter] != basic {
		t.Fatalf("pivot: %v, %v, entering status %d", st, err, sx.status[enter])
	}
	jout := before[sx.posOf[enter]]
	if sx.score[enter] != 0 {
		t.Errorf("score %v left on the entering variable, now basic", sx.score[enter])
	}
	if want, _ := enteringScore(sx.status[jout], sx.dj[jout], optTol); want != 1 || sx.score[jout] != want {
		t.Errorf("leaving variable (status %d, dj %v) has score %v, want %v = 1", sx.status[jout], sx.dj[jout], sx.score[jout], want)
	}
}

// The entering choice keeps each block of scoreBlock scores' largest and
// recomputes only the blocks whose scores moved. checkPricing holds its pick
// to the full scan's under both rules at every pivot; these solves take the
// blocks across each place a stale maximum could survive: one workspace
// solving a larger model, then a smaller one, then the larger again; a cold
// start, whose phase 1 scans the artificials and whose phase 2 does not;
// and scans that end inside a block.
func TestBlockedEnteringChoice(t *testing.T) {
	large, small := benchWarmModel(300, 150, 7), benchWarmModel(80, 40, 8)
	sx := new(simplex)
	for i, m := range []*Model{large, small, large} {
		if err := sx.init(m, nil); err != nil {
			t.Fatal(err)
		}
		if sx.nTot%scoreBlock == 0 || (sx.nStr+sx.nRow)%scoreBlock == 0 || sx.nTot < 2*scoreBlock {
			t.Fatalf("model %d: scans of %d and %d columns do not both end inside a block", i, sx.nTot, sx.nStr+sx.nRow)
		}
		st := new(pricingStats)
		label := fmt.Sprintf("model %d (%d columns)", i, sx.nTot)
		checkPricing(t, sx, label, st)
		sol, err := sx.solve()
		if err != nil || sol.Status != StatusOptimal {
			t.Fatalf("%s: %+v, %v", label, sol, err)
		}
		if st.phase1 == 0 || st.phase2 == 0 {
			t.Fatalf("%s: want pivots in both phases, got %+v", label, st)
		}
		fresh, err := newSimplex(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.solve()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sol, want) {
			t.Fatalf("%s: the reused workspace took %d pivots to %v, a fresh one %d to %v", label, sol.Iterations, sol.Objective, want.Iterations, want.Objective)
		}
	}
}

// A block's maximum is of the scan it was computed over: pickEntering over
// phase 1's range and then over phase 2's, with no rescore in between, must
// not offer phase 2 an artificial that shares a block with its last
// columns.
func TestEnteringChoiceFollowsScan(t *testing.T) {
	sx, err := newSimplex(benchWarmModel(80, 40, 8), nil)
	if err != nil {
		t.Fatal(err)
	}
	all, noArts := sx.nTot, sx.nStr+sx.nRow
	art := noArts + 5 // in the block of the last columns phase 2 scans
	if art/scoreBlock != (noArts-1)/scoreBlock || art >= all {
		t.Fatalf("fixture: artificial %d is not in the block of column %d", art, noArts-1)
	}
	sx.score[noArts-20], sx.score[art] = 1, 5
	for _, c := range []struct{ scan, want int }{{all, art}, {noArts, noArts - 20}, {all, art}} {
		if got, _ := sx.pickEntering(c.scan, false); got != c.want {
			t.Fatalf("scan %d picks %d, want %d", c.scan, got, c.want)
		}
	}
}
