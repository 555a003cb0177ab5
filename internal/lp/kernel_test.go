package lp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// The tests in this file pin the invariant the sparse kernel rests on: it
// performs the arithmetic of the dense product-form kernel it replaced, in
// the same order, and only leaves out the terms whose multiplier is an
// exact zero — `s -= 0·x`, which cannot change s (short of flipping the sign
// of a zero) — and the dot products none of whose operands changed since
// they were last taken. So every solve takes the pivots it took before.
//
// The references are the code the kernel replaced, kept whole: the dense
// etas below, the full-length triangular passes (luFactors.solveFull and
// solveTFull, which the kernel itself falls back on), refPrice, the full
// pricing scan, and refRatio, the ratio test over every row.

// denseEta is an eta as the dense kernel stored it: the whole entering
// column in basis coordinates, pivot entry included.
type denseEta struct {
	pos int
	col []float64
	piv float64
}

// denseEtas expands the eta arena back into dense columns.
func denseEtas(sx *simplex) []denseEta {
	out := make([]denseEta, len(sx.etas))
	for k, e := range sx.etas {
		col := make([]float64, sx.nRow)
		for p := e.lo; p < e.hi; p++ {
			col[sx.etaIdx[p]] = sx.etaVal[p]
		}
		col[e.pos] = e.piv
		out[k] = denseEta{pos: e.pos, col: col, piv: e.piv}
	}
	return out
}

// denseFtran is the reference FTRAN: every row of every eta is visited.
func denseFtran(sx *simplex, etas []denseEta, in, out []float64) {
	sx.lu.solveFull(in, out)
	for k := range etas {
		e := &etas[k]
		t := out[e.pos] / e.piv
		if t != 0 {
			for i := range e.col {
				if i != e.pos {
					out[i] -= e.col[i] * t
				}
			}
		}
		out[e.pos] = t
	}
}

// denseBtran is the reference BTRAN.
func denseBtran(sx *simplex, etas []denseEta, c, out []float64) {
	tmp := append([]float64(nil), c...)
	for k := len(etas) - 1; k >= 0; k-- {
		e := &etas[k]
		s := tmp[e.pos]
		for i := range e.col {
			if i != e.pos {
				s -= e.col[i] * tmp[i]
			}
		}
		tmp[e.pos] = s / e.piv
	}
	sx.lu.solveTFull(tmp, out)
}

// solveFull and solveTFull are solve and solveT as they were: both
// triangular passes full length, whatever the right-hand side. They run the
// loops solve and solveT themselves fall back on.
func (f *luFactors) solveFull(b, x []float64)  { f.solveSteps(b, x, f.all, f.all) }
func (f *luFactors) solveTFull(c, y []float64) { f.solveTSteps(c, y, f.all, f.all) }

// refPrice is the full pricing scan the cache replaced: every call forms
// every nonbasic column's reduced cost from y and rates it on the spot.
//
// The scan runs in variable order over three ranges that differ only in how
// the reduced cost d_j = c_j − y·a_j is formed: structural columns take the
// sparse dot product, a slack's column is the unit column of its row, and an
// artificial's is ± that. Phase 2 skips the artificial range.
func refPrice(sx *simplex, cost, y []float64, bland, phase1 bool) (int, float64) {
	best, bestScore, bestDir := -1, 0.0, 1.0
	tol := sx.opt.OptTol
	nStr, nRow := sx.nStr, sx.nRow
	for j := 0; j < nStr; j++ {
		st := sx.status[j]
		if st == basic {
			continue
		}
		// Skip pinned variables (lb == ub).
		if sx.lb[j] == sx.ub[j] && st != atFree {
			continue
		}
		dj := cost[j]
		c := &sx.cols[j]
		for i, r := range c.rows {
			dj -= y[r] * c.vals[i]
		}
		if score, dir := enteringScore(st, dj, tol); score > bestScore {
			if bland {
				return j, dir
			}
			best, bestScore, bestDir = j, score, dir
		}
	}
	for i := 0; i < nRow; i++ {
		j := nStr + i
		st := sx.status[j]
		if st == basic {
			continue
		}
		if sx.lb[j] == sx.ub[j] && st != atFree {
			continue
		}
		if score, dir := enteringScore(st, cost[j]-y[i], tol); score > bestScore {
			if bland {
				return j, dir
			}
			best, bestScore, bestDir = j, score, dir
		}
	}
	if !phase1 {
		return best, bestDir
	}
	for i := 0; i < nRow; i++ {
		j := nStr + nRow + i
		st := sx.status[j]
		if st == basic {
			continue
		}
		// Skip retired artificials (never installed, or pinned).
		if sx.lb[j] == sx.ub[j] {
			continue
		}
		dj := cost[j]
		c := &sx.cols[j]
		for k, r := range c.rows {
			dj -= y[r] * c.vals[k]
		}
		if score, dir := enteringScore(st, dj, tol); score > bestScore {
			if bland {
				return j, dir
			}
			best, bestScore, bestDir = j, score, dir
		}
	}
	return best, bestDir
}

// pricingStats counts what the kernel checks have seen, for coverage
// assertions.
type pricingStats struct {
	// checkPricing: iterations checked, by phase and with Bland's rule on;
	// those that follow a bound flip; never-installed artificials inside a
	// phase-1 scan.
	checks, phase1, phase2, blandOn, flips, emptyArts int
	// checkKernelAgainstDense: FTRAN/BTRAN comparisons in which both
	// triangular passes followed their reach, and the others.
	reachSolves, fullSolves int
	// checkPatterns: pivots whose y and d came with a pattern, and whose
	// ratio test and eta capture ran over d's.
	sparseY, sparseD, etasChecked int
}

// checkPricing makes sx verify its pricing cache in every iteration: each
// cached reduced cost of the scan range against a from-scratch dot product
// with the current y, the remembered y against the current one, and the
// entering pick against refPrice, under Dantzig's rule and under Bland's.
func checkPricing(t *testing.T, sx *simplex, label string, st *pricingStats) {
	t.Helper()
	fresh := make([]float64, sx.nTot)
	lastEnter, lastStatus := -1, int8(0)
	sx.afterPricing = func(cost []float64, phase1 bool, enter int, dir float64) {
		t.Helper()
		at := fmt.Sprintf("%s, pivot %d (phase1=%v)", label, sx.iters, phase1)
		scan := sx.nStr + sx.nRow
		if phase1 {
			scan = sx.nTot
			st.phase1++
		} else {
			st.phase2++
		}
		st.checks++
		for j := 0; j < scan; j++ {
			dj := cost[j]
			c := &sx.cols[j]
			for i, r := range c.rows {
				dj -= sx.y[r] * c.vals[i]
			}
			fresh[j] = dj
			if phase1 && j >= sx.nStr+sx.nRow && len(c.rows) == 0 {
				st.emptyArts++
			}
		}
		if j, ok := sameBits(sx.dj[:scan], fresh[:scan]); !ok {
			t.Fatalf("%s: cached dj[%d] = %v, from scratch %v", at, j, sx.dj[j], fresh[j])
		}
		if i, ok := sameBits(sx.yRef, sx.y); !ok {
			t.Fatalf("%s: remembered y[%d] = %v, y is %v", at, i, sx.yRef[i], sx.y[i])
		}
		useBland := sx.degenerate > 3*(sx.nRow+10)
		if useBland {
			st.blandOn++
		}
		if wantEnter, wantDir := refPrice(sx, cost, sx.y, useBland, phase1); enter != wantEnter || dir != wantDir {
			t.Fatalf("%s: entering (%d, %v), full scan picks (%d, %v)", at, enter, dir, wantEnter, wantDir)
		}
		for _, bland := range []bool{false, true} {
			gotEnter, gotDir := sx.pickEntering(scan, bland)
			wantEnter, wantDir := refPrice(sx, cost, sx.y, bland, phase1)
			if gotEnter != wantEnter || gotDir != wantDir {
				t.Fatalf("%s: bland=%v score scan picks (%d, %v), full scan (%d, %v)", at, bland, gotEnter, gotDir, wantEnter, wantDir)
			}
		}
		if lastEnter >= 0 && sx.status[lastEnter] != basic && sx.status[lastEnter] != lastStatus {
			st.flips++
		}
		if lastEnter = enter; enter >= 0 {
			lastStatus = sx.status[enter]
		}
	}
	checkPatterns(t, sx, label, st)
}

// refRatio is the ratio test over every row, as pivot ran it before it
// followed d's pattern: the leaving position, -1 for none.
func refRatio(sx *simplex, enter int, dir float64, d []float64) int {
	limit := Inf
	if lb, ub := sx.lb[enter], sx.ub[enter]; !math.IsInf(lb, -1) && !math.IsInf(ub, 1) {
		limit = ub - lb
	}
	leave, leaveT, pivAbs := -1, limit, 0.0
	for pos := 0; pos < sx.nRow; pos++ {
		w := dir * d[pos]
		if math.Abs(w) < 1e-9 {
			continue
		}
		jb := sx.basisOf[pos]
		bound := sx.lb[jb]
		if w < 0 {
			bound = sx.ub[jb]
		}
		if math.IsInf(bound, 0) {
			continue
		}
		t := (sx.x[jb] - bound) / w
		if t < -sx.opt.FeasTol {
			t = 0
		}
		if t < leaveT-1e-12 || (t < leaveT+1e-12 && math.Abs(d[pos]) > pivAbs) {
			leave, leaveT, pivAbs = pos, math.Max(t, 0), math.Abs(d[pos])
		}
	}
	return leave
}

// covers reports the first nonzero of v outside the rows listed in idx, or a
// row idx lists twice, or -1.
func covers(v []float64, idx []int32) int {
	in := make([]bool, len(v))
	for _, i := range idx {
		if in[i] {
			return int(i) // listed twice
		}
		in[i] = true
	}
	for i, x := range v {
		if x != 0 && !in[i] {
			return i
		}
	}
	return -1
}

// checkPatterns makes sx hold the pivot loop's patterns to the dense
// kernel in every iteration: c_B and its nonzero list to cost over the
// basis, y to the dense BTRAN and d to the dense FTRAN bit for bit, each
// pattern to every nonzero of the dense vector, and — once the pivot is
// done — the leaving position and the eta it recorded to refRatio's choice
// and the nonzeros of d around it. It chains onto afterPricing.
func checkPatterns(t *testing.T, sx *simplex, label string, st *pricingStats) {
	t.Helper()
	type expect struct {
		enter, leave, refactors, etas int
		piv                           float64
		idx                           []int32
		val                           []float64
	}
	var pending *expect
	settle := func(at string) {
		t.Helper()
		e := pending
		if pending = nil; e == nil {
			return
		}
		pos := sx.posOf[e.enter]
		switch {
		case e.leave < 0 && pos >= 0:
			t.Fatalf("%s: %d entered at %d, the dense ratio test leaves none", at, e.enter, pos)
		case e.leave >= 0 && pos != e.leave && (pos >= 0 || sx.refactors == e.refactors):
			t.Fatalf("%s: %d entered at %d, the dense ratio test leaves %d", at, e.enter, pos, e.leave)
		case pos >= 0 && sx.refactors == e.refactors:
			if len(sx.etas) != e.etas+1 {
				t.Fatalf("%s: %d etas after a pivot from %d", at, len(sx.etas), e.etas)
			}
			k := sx.etas[e.etas]
			sameVals := len(e.val) == k.hi-k.lo
			if sameVals {
				_, sameVals = sameBits(sx.etaVal[k.lo:k.hi], e.val)
			}
			if k.pos != e.leave || math.Float64bits(k.piv) != math.Float64bits(e.piv) ||
				!slices.Equal(sx.etaIdx[k.lo:k.hi], e.idx) || !sameVals {
				t.Fatalf("%s: eta (%d, %v, %v, %v), the dense capture (%d, %v, %v, %v)", at,
					k.pos, k.piv, sx.etaIdx[k.lo:k.hi], sx.etaVal[k.lo:k.hi], e.leave, e.piv, e.idx, e.val)
			}
			st.etasChecked++
		}
	}
	basicCosts := func(cost []float64) []float64 {
		cb := make([]float64, sx.nRow)
		for pos, j := range sx.basisOf {
			cb[pos] = cost[j]
		}
		return cb
	}
	priced := sx.afterPricing
	sx.afterPricing = func(cost []float64, phase1 bool, enter int, dir float64) {
		t.Helper()
		priced(cost, phase1, enter, dir)
		at := fmt.Sprintf("%s, pivot %d (phase1=%v)", label, sx.iters, phase1)
		settle(at)
		if !sx.loop {
			return
		}
		cb := basicCosts(cost)
		if i, ok := sameBits(sx.cb, cb); !ok {
			t.Fatalf("%s: cb[%d] = %v, cost of the basic variable %v", at, i, sx.cb[i], cb[i])
		}
		if i := covers(cb, sx.cbIdx); i >= 0 || len(sx.cbIdx) != len(slices.DeleteFunc(cb, func(v float64) bool { return v == 0 })) {
			t.Fatalf("%s: cb's list %v misses or adds position %d", at, sx.cbIdx, i)
		}
		want := make([]float64, sx.nRow)
		denseBtran(sx, denseEtas(sx), basicCosts(cost), want)
		if i, ok := sameBits(sx.y, want); !ok {
			t.Fatalf("%s: y[%d] = %v, dense BTRAN %v", at, i, sx.y[i], want[i])
		}
		if !sx.yFull {
			if i := covers(want, sx.yIdx); i >= 0 {
				t.Fatalf("%s: y's pattern %v misses row %d", at, sx.yIdx, i)
			}
			st.sparseY++
		}
	}
	sx.beforePivot = func(enter int, dir float64) {
		t.Helper()
		at := fmt.Sprintf("%s, pivot %d, entering %d", label, sx.iters, enter)
		in := make([]float64, sx.nRow)
		c := &sx.cols[enter]
		for i, r := range c.rows {
			in[r] += c.vals[i]
		}
		want := make([]float64, sx.nRow)
		denseFtran(sx, denseEtas(sx), in, want)
		if i, ok := sameBits(sx.d, want); !ok {
			t.Fatalf("%s: d[%d] = %v, dense FTRAN %v", at, i, sx.d[i], want[i])
		}
		if sx.loop && !sx.dFull {
			if i := covers(want, sx.dIdx); i >= 0 || !slices.IsSorted(sx.dIdx) {
				t.Fatalf("%s: d's pattern %v misses position %d or is not ascending", at, sx.dIdx, i)
			}
			st.sparseD++
		}
		e := &expect{enter: enter, leave: refRatio(sx, enter, dir, sx.d), refactors: sx.refactors, etas: len(sx.etas)}
		if e.leave >= 0 {
			e.piv = sx.d[e.leave]
			for i, v := range sx.d {
				if v != 0 && i != e.leave {
					e.idx, e.val = append(e.idx, int32(i)), append(e.val, v)
				}
			}
		}
		pending = e
	}
}

// sameBits reports whether a and b are the same float64s, a negative zero
// counting as zero.
func sameBits(a, b []float64) (int, bool) {
	for i := range a {
		x, y := a[i], b[i]
		if x == 0 && y == 0 {
			continue
		}
		if math.Float64bits(x) != math.Float64bits(y) {
			return i, false
		}
	}
	return -1, true
}

// checkKernelAgainstDense runs a set of right-hand sides through the sparse
// and the dense FTRAN/BTRAN on sx's current factors and eta file.
func checkKernelAgainstDense(t *testing.T, sx *simplex, rng *rand.Rand, label string, st *pricingStats) {
	t.Helper()
	n := sx.nRow
	if n == 0 {
		return
	}
	etas := denseEtas(sx)
	got, want := make([]float64, n), make([]float64, n)
	in := make([]float64, n)

	ftranBoth := func(what string, fill func(v []float64)) {
		t.Helper()
		fill(in)
		sx.lu.bypass = [2]int{} // let every call look for its reach
		full := sx.lu.fullSolves
		sx.ftran(in, got)
		st.reachSolves += 1 - (sx.lu.fullSolves - full)
		st.fullSolves += sx.lu.fullSolves - full
		fill(in)
		denseFtran(sx, etas, in, want)
		if i, ok := sameBits(got, want); !ok {
			t.Fatalf("%s: ftran(%s)[%d] = %v (%#x), dense reference %v (%#x)", label, what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	btranBoth := func(what string, fill func(v []float64)) {
		t.Helper()
		fill(in)
		sx.lu.bypass = [2]int{}
		full := sx.lu.fullSolves
		sx.btran(in, got)
		st.reachSolves += 1 - (sx.lu.fullSolves - full)
		st.fullSolves += sx.lu.fullSolves - full
		denseBtran(sx, etas, in, want)
		if i, ok := sameBits(got, want); !ok {
			t.Fatalf("%s: btran(%s)[%d] = %v (%#x), dense reference %v (%#x)", label, what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
		for i, v := range sx.accum {
			if v != 0 {
				t.Fatalf("%s: btran(%s) left accum[%d] = %v", label, what, i, v)
			}
		}
	}
	column := func(j int) func(v []float64) {
		return func(v []float64) {
			for i := range v {
				v[i] = 0
			}
			c := &sx.cols[j]
			for i, r := range c.rows {
				v[r] += c.vals[i]
			}
		}
	}
	basicCosts := func(cost []float64) func(v []float64) {
		return func(v []float64) {
			for pos, j := range sx.basisOf {
				v[pos] = cost[j]
			}
		}
	}

	// The vectors a pivot actually transforms: entering columns, the
	// right-hand side, and the basic costs of both phases.
	for k := 0; k < 4; k++ {
		j := rng.Intn(sx.nStr + sx.nRow)
		ftranBoth(fmt.Sprintf("column %d", j), column(j))
	}
	ftranBoth("b", func(v []float64) { copy(v, sx.b) })
	btranBoth("c_B", basicCosts(sx.cost))
	if sx.phase1Cost != nil {
		btranBoth("phase-1 c_B", basicCosts(sx.phase1Cost))
	}
	// A unit vector (one row of B⁻¹) and a dense random vector.
	unit := rng.Intn(n)
	unitVec := func(v []float64) {
		for i := range v {
			v[i] = 0
		}
		v[unit] = 1
	}
	ftranBoth("unit", unitVec)
	btranBoth("unit", unitVec)
	dense := make([]float64, n)
	for i := range dense {
		dense[i] = rng.NormFloat64()
	}
	ftranBoth("dense", func(v []float64) { copy(v, dense) })
	btranBoth("dense", func(v []float64) { copy(v, dense) })
}

// checkEveryPivot solves m (from basis, when given) once per pivot count
// k = 0, 1, 2, … with the iteration limit set to k, which leaves the
// simplex exactly as it stood after its k-th pivot, and compares the sparse
// kernel with the dense reference on each of those states. It returns the
// number of pivots of the full solve.
//
// Before that it solves m once with checkPricing on, so that the pricing
// cache is compared with the full scan at every pivot of the solve too.
func checkEveryPivot(t *testing.T, m *Model, basis *Basis, rng *rand.Rand, label string, st *pricingStats) int {
	t.Helper()
	sx, err := newSimplex(m, nil)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	checkPricing(t, sx, label, st)
	if basis != nil {
		_, err = sx.solveWarm(basis)
	} else {
		_, err = sx.solve()
	}
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for k := 0; ; k++ {
		sx, err := newSimplex(m, nil)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		sx.opt.MaxIter = k // not through Options, where 0 selects the default
		var sol *Solution
		if basis != nil {
			sol, err = sx.solveWarm(basis)
		} else {
			sol, err = sx.solve()
		}
		if err != nil {
			t.Fatalf("%s: solve stopped at %d pivots: %v", label, k, err)
		}
		checkKernelAgainstDense(t, sx, rng, fmt.Sprintf("%s after %d pivots", label, sx.iters), st)
		if sol.Status != StatusIterLimit {
			return sx.iters
		}
		if k > 5000 {
			t.Fatalf("%s: no end after %d pivots", label, k)
		}
	}
}

// kernelFixtures are the deterministic fixture LPs of this package's other
// tests, small enough to re-solve once per pivot.
func kernelFixtures() []*Model {
	chain, _ := chainModel(12)
	return []*Model{warmTestModel(), warmEqModel(), chain, healthNetworkModel(3), benchWarmModel(60, 30, 42)}
}

func TestSparseKernelMatchesDenseAtEveryPivot(t *testing.T) {
	rng := rand.New(rand.NewSource(9101))
	pivots, etaFull, etaStored := 0, 0, 0
	var st pricingStats
	count := func(m *Model, basis *Basis, label string) {
		pivots += checkEveryPivot(t, m, basis, rng, label, &st)
	}
	for trial := 0; trial < 200; trial++ {
		m := randomWarmModel(rng, "kernel")
		label := fmt.Sprintf("random model %d", trial)
		count(m, nil, label)
		// Every fourth model is solved again from its own optimal basis after
		// a perturbation, so warm repairs and reduced phase 1s are covered.
		if trial%4 != 0 {
			continue
		}
		base, err := Solve(m, nil)
		if err != nil || base.Status != StatusOptimal {
			continue
		}
		for i := 0; i < m.NumConstrs(); i++ {
			if m.ConstrSense(Constr(i)) != EQ && rng.Float64() < 0.5 {
				m.SetRHS(Constr(i), m.RHS(Constr(i))+rng.NormFloat64())
			}
		}
		count(m, base.Basis, label+" warm")
	}
	for _, m := range kernelFixtures() {
		count(m, nil, "fixture "+m.Name())
		count(m, SlackBasis(m), "fixture "+m.Name()+" from the slack basis")
	}
	// The online benchmark's Phase II LP is too large to solve once per pivot
	// count. It is stepped through once, from the all-slack start its
	// pipeline takes, with every per-pivot check on: the hypersparse shape
	// the patterns are for.
	frozen := loadFrozenLP(t, "arrow_phase2_facebook_m0.json.gz")
	sx, err := newSimplex(frozen, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := st
	checkPricing(t, sx, frozen.Name(), &st)
	if sol, err := sx.solveWarm(SlackBasis(frozen)); err != nil || sol.Status != StatusOptimal {
		t.Fatalf("%s: %+v, %v", frozen.Name(), sol, err)
	}
	pivots += sx.iters
	if sparse := st.sparseD - before.sparseD; sparse < sx.iters*9/10 || st.sparseY-before.sparseY < sx.iters*9/10 {
		t.Fatalf("%s: %d of %d pivots had a pattern for d, %d for y", frozen.Name(), sparse, sx.iters, st.sparseY-before.sparseY)
	}
	// The comparison is empty unless etas really have zeros to skip.
	sx, err = newSimplex(healthNetworkModel(3), &Options{MaxIter: 40})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sx.solve(); err != nil {
		t.Fatal(err)
	}
	for _, e := range sx.etas {
		etaFull += sx.nRow - 1
		etaStored += e.hi - e.lo
	}
	if pivots < 1000 || etaStored == 0 || etaStored*2 > etaFull {
		t.Fatalf("weak coverage: %d pivots checked, %d of %d off-pivot eta entries stored", pivots, etaStored, etaFull)
	}
	if st.phase1 < 500 || st.phase2 < 500 || st.flips < 20 || st.reachSolves < 5000 || st.fullSolves < 5000 ||
		st.sparseY < 400 || st.sparseD < 800 || st.etasChecked < 2000 {
		t.Fatalf("weak coverage of the pricing cache and the patterns: %+v", st)
	}
	t.Logf("%d pivot states checked; network fixture stores %d of %d off-pivot eta entries", pivots, etaStored, etaFull)
	t.Logf("pricing cache checked at %d iterations: %d in phase 1, %d in phase 2, %d after a bound flip, %d never-installed artificials scanned",
		st.checks, st.phase1, st.phase2, st.flips, st.emptyArts)
	t.Logf("%d FTRAN/BTRAN comparisons followed their reach, %d ran a full-length pass", st.reachSolves, st.fullSolves)
	t.Logf("patterns checked: y at %d pivots, d at %d; %d etas checked against the dense capture", st.sparseY, st.sparseD, st.etasChecked)
}

// luSnapshot copies the factors proper (not the scratch space) out of f, so
// that two factorisations can be compared whatever backing arrays they
// happen to sit in.
type luSnapshot struct {
	ColOrder, RowOfPivot, Pinv, Lptr, Uptr []int
	Lrows, Urows                           []int32
	Lvals, Uvals, Udiag                    []float64
}

func snapshotLU(f *luFactors) luSnapshot {
	ints := func(v []int) []int { return append([]int{}, v...) }
	idx := func(v []int32) []int32 { return append([]int32{}, v...) }
	vals := func(v []float64) []float64 { return append([]float64{}, v...) }
	return luSnapshot{
		ColOrder: ints(f.colOrder), RowOfPivot: ints(f.rowOfPivot), Pinv: ints(f.pinv),
		Lptr: ints(f.lptr), Uptr: ints(f.uptr),
		Lrows: idx(f.lrows), Urows: idx(f.urows),
		Lvals: vals(f.lvals), Uvals: vals(f.uvals), Udiag: vals(f.udiag),
	}
}

// TestLUReuseMatchesFresh factors a sequence of unrelated bases — regular,
// singular, and singular under repair — into one luFactors and checks after
// each regular one that the result is the factorisation a fresh luFactors
// produces, and solves identically.
func TestLUReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(9102))
	const n = 24
	singular := func() []spCol {
		_, cols := randomSparse(rng, n, 0.2)
		// A duplicated column and an empty one.
		cols[n-1] = cols[3]
		cols[5] = spCol{}
		return cols
	}
	reused := newLUFactors(n)
	for round := 0; round < 30; round++ {
		switch round % 3 {
		case 1:
			if _, err := reused.factor(singular(), false); !errors.Is(err, ErrSingular) {
				t.Fatalf("round %d: singular basis factored, err = %v", round, err)
			}
		case 2:
			patched, err := reused.factor(singular(), true)
			if err != nil || len(patched) == 0 {
				t.Fatalf("round %d: repair: %d patches, err = %v", round, len(patched), err)
			}
		}
		_, cols := randomSparse(rng, n, 0.05+0.3*rng.Float64())
		if _, err := reused.factor(cols, false); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		fresh, err := factorize(n, cols)
		if err != nil {
			t.Fatalf("round %d fresh: %v", round, err)
		}
		if got, want := snapshotLU(reused), snapshotLU(fresh); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: reused factors differ from fresh ones:\n got %+v\nwant %+v", round, got, want)
		}
		for i, v := range reused.work {
			if v != 0 {
				t.Fatalf("round %d: work[%d] = %v left behind", round, i, v)
			}
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		got, want := make([]float64, n), make([]float64, n)
		reused.solve(append([]float64(nil), b...), got)
		fresh.solve(append([]float64(nil), b...), want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: solve differs: %v vs %v", round, got, want)
		}
		reused.solveT(b, got)
		fresh.solveT(b, want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: solveT differs: %v vs %v", round, got, want)
		}
	}
}

// TestPivotLoopAllocatesNothing runs blocks of 64 pivots and a
// refactorisation on a simplex whose arenas have reached their working
// size, and expects the allocator to stay idle.
func TestPivotLoopAllocatesNothing(t *testing.T) {
	m := benchWarmModel(900, 450, 7)
	sx, err := newSimplex(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	// From the slack basis the model is feasible, so the set-up stops at the
	// head of phase 2 and every block below is phase-2 pivots.
	sx.opt.MaxIter = 0
	if sol, err := sx.solveWarm(SlackBasis(m)); err != nil || sol.Status != StatusIterLimit || !sol.Warm.Phase1Skipped {
		t.Fatalf("set-up solve: %+v, %v", sol, err)
	}
	block := func() {
		sx.opt.MaxIter = sx.iters + sx.opt.Refactor
		st, err := sx.iterate(sx.cost, false)
		if err != nil || st != StatusIterLimit {
			t.Fatalf("pivot block ended with %v, %v after %d pivots", st, err, sx.iters)
		}
		if err := sx.refactorize(); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up: a few blocks grow the eta arena, the L/U arenas and the
	// factorisation scratch; then reserve the worst case so that a denser
	// eta or a little more fill-in later cannot trigger a regrowth.
	for i := 0; i < 3; i++ {
		block()
	}
	reserve := sx.opt.Refactor * sx.nRow
	sx.etaIdx = append(make([]int32, 0, reserve), sx.etaIdx...)
	sx.etaVal = append(make([]float64, 0, reserve), sx.etaVal...)
	f := sx.lu
	fill := 4 * (len(f.lrows) + len(f.urows) + sx.nRow)
	f.lrows, f.lvals = make([]int32, 0, fill), make([]float64, 0, fill)
	f.urows, f.uvals = make([]int32, 0, fill), make([]float64, 0, fill)
	f.ltidx, f.utidx = make([]int32, 0, fill), make([]int32, 0, fill) // the row-wise patterns grow with them
	f.touched = make([]int32, 0, 2*sx.nRow)
	if err := sx.refactorize(); err != nil {
		t.Fatal(err)
	}
	refactors := sx.refactors
	const runs = 4
	if avg := testing.AllocsPerRun(runs, block); avg != 0 {
		t.Fatalf("%v allocations per block of %d pivots + refactorisation, want 0", avg, sx.opt.Refactor)
	}
	if got := sx.refactors - refactors; got < runs+1 {
		t.Fatalf("%d refactorisations in %d blocks", got, runs+1)
	}
}
