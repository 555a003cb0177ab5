package lp

import "math"

// The bounded dual simplex. A warm basis whose reduced costs all have the
// right sign but whose basic point breaks some bound is optimal for the model
// it came from and dual feasible for this one: the signature of a model that
// grew by rows its previous optimum violates (a column-generation master
// after a pricing round, the new rows' slacks basic and out of bounds) or
// whose bounds tightened (a branch-and-bound child). The dual simplex keeps
// the reduced costs dual feasible and drives one violated basic at a time to
// the bound it breaks, where the primal simplex would first install
// artificials and regain feasibility in a phase 1. Once the basic point is
// feasible the basis is optimal, and phase 2 takes over to confirm it.
//
// One pivot: the leaving row r is the basic variable with the largest bound
// violation (ties to the highest position); BTRAN of e_r gives ρ = row r of
// B⁻¹, and the pivot row α_j = ρ·a_j comes from the model's rows, one pass
// over the rows where ρ is nonzero. The ratio test (dualRatio) picks the
// entering column and the boxed columns whose bound it flips. FTRAN of the
// entering column gives the eta and the primal step, as in the primal
// simplex, and one more FTRAN moves the basics by the flipped columns.
// Every pass follows the pivot loop's patterns, and dense (the reference)
// runs each over all rows instead, to the same floats.

// dualPivotTol is the smallest |α_rj| the dual ratio test takes for a pivot,
// the size below which the primal ratio test ignores an entry of d.
const dualPivotTol = 1e-9

// dualPrices computes y = B⁻ᵀ c_B and every structural and slack column's
// reduced cost into dj, by the column dot products a full pricing pass takes
// (0 for a basic one), and reports whether the basis is dual feasible: no
// nonbasic column that can move prices in beyond optTol.
func (sx *simplex) dualPrices(cost []float64) bool {
	cb, y := sx.cb, sx.y
	for pos, j := range sx.basisOf {
		cb[pos] = cost[j]
	}
	sx.btran(cb, y)
	feasible := true
	for j := 0; j < sx.nStr+sx.nRow; j++ {
		st := sx.status[j]
		if st == basic {
			sx.dj[j] = 0
			continue
		}
		dj := cost[j]
		c := &sx.cols[j]
		for i, r := range c.rows {
			dj -= float64(y[r] * c.vals[i])
		}
		sx.dj[j] = dj
		if sx.lb[j] == sx.ub[j] && st != atFree {
			continue
		}
		if score, _ := enteringScore(st, dj, optTol); score > 0 {
			feasible = false
		}
	}
	return feasible
}

// dual runs dual simplex pivots from the basis dualPrices priced until the
// basic point is feasible (StatusOptimal), a row proves the model infeasible
// (StatusInfeasible), MaxIter (StatusIterLimit), or it gives up
// (statusStalled) — on a run of degenerate pivots as long as the one that
// engages Bland's rule in the primal simplex, or on a pivot that even fresh
// factors leave at or below dualPivotTol or that ρ and the entering column
// disagree on — after which the caller hands the basis to the primal
// simplex.
func (sx *simplex) dual() (Status, error) {
	sx.startDual()
	st, err := sx.dualPivots()
	sx.loop, sx.degenerate = false, 0
	return st, err
}

// startDual sets the pivot loop's vectors up for dual pivots: w, d, ρ, α
// and the flip column zero, their patterns empty.
func (sx *simplex) startDual() {
	sx.loop = !sx.dense
	clear(sx.w)
	clear(sx.d)
	clear(sx.rho)
	clear(sx.alpha)
	clear(sx.flip)
	sx.dIdx, sx.dFull = sx.dIdx[:0], false
	sx.rhoIdx, sx.rhoFull = sx.rhoIdx[:0], false
	sx.flipIdx, sx.flipFull = sx.flipIdx[:0], false
	sx.alphaIdx = sx.alphaIdx[:0]
}

// dualPivots is dual's loop.
func (sx *simplex) dualPivots() (Status, error) {
	d := sx.d
	for {
		if sx.iters >= sx.opt.MaxIter {
			return StatusIterLimit, nil
		}
		// ρ and the entering column are hypersparse between rare dense ones:
		// a dense one sends no later call of the triangular solves straight
		// to the full-length pass.
		sx.lu.bypass = [2]int{}
		r, bound := sx.pickLeaving()
		if r < 0 {
			return StatusOptimal, nil
		}
		jout := sx.basisOf[r]
		// s = +1: x_r above its upper bound, so it must fall and y moves
		// along +ρ; s = −1: below its lower bound.
		s := 1.0
		if sx.x[jout] < bound {
			s = -1
		}
		sx.btranRow(r)
		sx.pivotRow()
		q, nflip, t := sx.dualRatio(s, math.Abs(sx.x[jout]-bound))
		if q < 0 {
			if len(sx.etas) > 0 { // make sure on fresh factors
				if err := sx.refactorDual(); err != nil {
					return 0, err
				}
				continue
			}
			return StatusInfeasible, nil
		}
		sx.ftranEntering(q)
		// ρ and the entering column must agree on the pivot, and the eta
		// file must not have worn it down: else retry on fresh factors. On
		// fresh ones, the pivot the ratio test took stands unless they
		// disagree or it is no larger than dualPivotTol after all.
		piv := d[r]
		if bad := math.Abs(piv-sx.alpha[q]) > 1e-8*(1+math.Abs(piv)); bad || math.Abs(piv) < 1e-8 {
			if len(sx.etas) > 0 {
				if err := sx.refactorDual(); err != nil {
					return 0, err
				}
				continue
			}
			if bad || math.Abs(piv) <= dualPivotTol {
				return statusStalled, nil
			}
		}
		if nflip > 0 {
			sx.flipBounds(sx.brk[:nflip])
		}

		// Primal step: x_q moves until x_r reaches its bound.
		sx.applyStep(q, 1, (sx.x[jout]-bound)/piv, d)
		// Dual step: y moves by θ_D ρ, d_j by −θ_D α_j; q prices to zero and
		// the leaving variable to −θ_D, the sign its new bound wants.
		thetaD := s * t
		for _, j := range sx.alphaIdx {
			if sx.status[j] != basic {
				sx.dj[j] -= float64(thetaD * sx.alpha[j])
			}
		}
		sx.dj[q], sx.dj[jout] = 0, -thetaD
		if t <= 1e-10 {
			sx.degenerate++
			sx.degenTotal++
		} else {
			sx.degenerate = 0
		}

		sx.x[jout], sx.status[jout] = bound, atLower
		if bound == sx.ub[jout] && bound != sx.lb[jout] {
			sx.status[jout] = atUpper
		}
		sx.posOf[jout] = -1
		sx.basisOf[r], sx.posOf[q], sx.status[q] = q, r, basic
		sx.appendEta(r, sx.dPos())

		sx.iters++
		sx.dualIters++
		if sx.health != nil && sx.iters%sx.health.every == 0 {
			sx.healthProbe(sx.cost, false)
		}
		if sx.degenerate > 3*(sx.nRow+10) {
			if sx.health != nil {
				sx.healthNoteCycling(false)
			}
			return statusStalled, nil
		}
		if len(sx.etas) >= refactorEvery {
			if err := sx.refactorDual(); err != nil {
				return 0, err
			}
		}
	}
}

// refactorDual refactorises and prices every column afresh, so that the
// reduced costs the ratio test reads do not drift with the eta file.
func (sx *simplex) refactorDual() error {
	if err := sx.refactorize(); err != nil {
		return err
	}
	sx.dualPrices(sx.cost)
	return nil
}

// violation is how far the variable at basis position p breaks a bound
// beyond feasTol (0: it does not), and that bound.
func (sx *simplex) violation(p int) (float64, float64) {
	j := sx.basisOf[p]
	x, tol := sx.x[j], feasTol
	if v := sx.lb[j] - x; v > tol {
		return v, sx.lb[j]
	}
	if v := x - sx.ub[j]; v > tol {
		return v, sx.ub[j]
	}
	return 0, 0
}

// pickLeaving returns the basis position whose variable breaks a bound by the
// most (-1: none) and that bound. Ties go to the highest position: the rows
// appended last, and on the chain of TestWarmResolveAfterViolatedRowAppend,
// whose first dual step pushes a run of basics out by equal amounts, the far
// end of the run: 9 pivots, where lowest first walks the run in 40.
func (sx *simplex) pickLeaving() (int, float64) {
	r, worst, bound := -1, 0.0, 0.0
	for p := range sx.basisOf {
		if v, b := sx.violation(p); v > 0 && v >= worst {
			r, worst, bound = p, v, b
		}
	}
	return r, bound
}

// btranRow computes ρ = B⁻ᵀ e_r, row r of B⁻¹, into rho, and in the pivot
// loop its pattern, ascending, unless the solve ran full length.
func (sx *simplex) btranRow(r int) {
	rho, bt := sx.rho, sx.bt
	if !sx.loop || sx.rhoFull {
		clear(rho)
	} else {
		for _, i := range sx.rhoIdx {
			rho[i] = 0
		}
	}
	sx.rhoIdx = sx.rhoIdx[:0]
	bt[r] = 1
	if !sx.loop {
		sx.btran(bt, rho)
		bt[r], sx.rhoFull = 0, true
		return
	}
	sx.nextEpoch()
	at := sx.btranEtas(bt, sx.marked(sx.btAt[:0], int32(r)))
	f := sx.lu
	ls := f.solveTAt(bt, rho, at)
	for _, p := range at {
		bt[p] = 0
	}
	sx.btAt = at
	if sx.rhoFull = len(ls) == f.n; !sx.rhoFull {
		for _, k := range ls {
			sx.rhoIdx = append(sx.rhoIdx, int32(f.rowOfPivot[k]))
		}
		f.ascending(sx.rhoIdx)
	}
}

// pivotRow computes α_j = ρ·a_j for every structural and slack column with
// an entry in a row where ρ is nonzero, into alpha, listing them in
// alphaIdx: a pass over those rows of the model in ascending order, so each
// α_j sums its terms in the order of a column dot product.
func (sx *simplex) pivotRow() {
	alpha := sx.alpha
	for _, j := range sx.alphaIdx {
		alpha[j] = 0
	}
	sx.alphaIdx = sx.alphaIdx[:0]
	if sx.colEpoch++; sx.colEpoch == math.MaxInt32 {
		clear(sx.colStamp)
		sx.colEpoch = 1
	}
	rows := sx.lu.all
	if sx.loop && !sx.rhoFull {
		rows = sx.rhoIdx
	}
	for _, i := range rows {
		v := sx.rho[i]
		if v == 0 {
			continue
		}
		for _, t := range sx.m.rows[i].terms {
			j := int32(t.Var)
			if sx.colStamp[j] != sx.colEpoch {
				sx.colStamp[j] = sx.colEpoch
				sx.alphaIdx = append(sx.alphaIdx, j)
			}
			alpha[j] += float64(v * t.Coef)
		}
		s := int32(sx.nStr + int(i))
		alpha[s] = v
		sx.alphaIdx = append(sx.alphaIdx, s)
	}
}

// dualRatio is the bounded dual ratio test for a leaving variable that
// breaks its bound by slope, with s its direction (see dualPivots). Moving y
// by t·s·ρ moves each d_j by −t·α̃_j, α̃_j = s·α_j, and raises the dual
// objective at rate slope; the columns that can stop it are those whose d_j
// it drives toward the wrong sign: at a lower bound with α̃_j > 0, at an
// upper bound with α̃_j < 0, and free ones, at t = d_j/α̃_j. A boxed column
// passed by t can flip to its other bound instead of stopping it, which
// costs the slope |α̃_j|·(u_j − l_j); so the test walks the breakpoints
// until the slope would fall to feasTol or below — the flips alone would
// then bring x_r to its bound — or an unboxed column stops it.
//
// It walks them in groups under Harris's tolerance: each group is every
// candidate left whose ratio is within the smallest (d_j ± optTol)/α̃_j, and
// the one to enter is its largest |α̃_j| (the first in the list on ties), so
// that no reduced cost ends beyond optTol on the wrong side and small pivots
// lose to large ones. The groups before the entering one flip; they are
// brk[:nflip]. q < 0: no column stops the slope, so the row cannot reach
// its bound and the model is infeasible.
func (sx *simplex) dualRatio(s, slope float64) (q, nflip int, t float64) {
	brk := sx.brk[:0]
	for _, j := range sx.alphaIdx {
		a := s * sx.alpha[j]
		switch st := sx.status[j]; {
		case st == atFree:
			if math.Abs(a) > dualPivotTol {
				brk = append(brk, j)
			}
		case st == basic || sx.lb[j] == sx.ub[j]:
		case st == atLower && a > dualPivotTol, st == atUpper && a < -dualPivotTol:
			brk = append(brk, j)
		}
	}
	sx.brk = brk
	tol := optTol
	for lo := 0; lo < len(brk); {
		bound := Inf
		for _, j := range brk[lo:] {
			a := s * sx.alpha[j]
			if r := (sx.dj[j] + math.Copysign(tol, a)) / a; r < bound {
				bound = r
			}
		}
		enter, pivAbs, cost, k := -1, 0.0, 0.0, lo
		for i := lo; i < len(brk); i++ {
			j := brk[i]
			a := s * sx.alpha[j]
			if sx.dj[j]/a > bound {
				continue
			}
			if math.Abs(a) > pivAbs {
				enter, pivAbs = int(j), math.Abs(a)
			}
			cost += float64(math.Abs(a) * (sx.ub[j] - sx.lb[j]))
			brk[i], brk[k] = brk[k], brk[i]
			k++
		}
		if enter < 0 {
			break // a NaN reduced cost or pivot row entry
		}
		if !(slope-cost > feasTol) {
			return enter, lo, max(sx.dj[enter]/(s*sx.alpha[enter]), 0)
		}
		slope -= cost
		lo = k
	}
	return -1, 0, 0
}

// flipBounds moves every listed nonbasic column to its other bound and the
// basic variables with them, by one FTRAN of the columns' weighted sum.
func (sx *simplex) flipBounds(cols []int32) {
	w := sx.w
	if !sx.loop {
		clear(w)
	}
	sx.nextEpoch()
	at := sx.btAt[:0]
	for _, j := range cols {
		step := sx.ub[j] - sx.lb[j]
		if sx.status[j] == atLower {
			sx.x[j], sx.status[j] = sx.ub[j], atUpper
		} else {
			step = -step
			sx.x[j], sx.status[j] = sx.lb[j], atLower
		}
		c := &sx.cols[j]
		for i, r := range c.rows {
			w[r] += float64(c.vals[i] * step)
			at = sx.marked(at, r)
		}
	}
	sx.btAt = at
	sx.boundFlips += len(cols)
	sx.flipIdx, sx.flipFull = sx.ftranAt(sx.flip, sx.flipIdx, sx.flipFull, at)
	pos := sx.lu.all
	if sx.loop && !sx.flipFull {
		pos = sx.flipIdx
	}
	for _, p := range pos {
		if v := sx.flip[p]; v != 0 {
			sx.x[sx.basisOf[p]] -= v
		}
	}
}
