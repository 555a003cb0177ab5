package lp

import (
	"errors"
	"math"
	"math/bits"
	"slices"
)

// ErrSingular is returned when the basis matrix cannot be factorised.
var ErrSingular = errors.New("lp: singular basis")

// spCol is one sparse column: parallel row-index and value slices.
type spCol struct {
	rows []int32
	vals []float64
}

func (c *spCol) add(row int, val float64) {
	c.rows = append(c.rows, int32(row))
	c.vals = append(c.vals, val)
}

// luFactors is a sparse LU factorisation of an n*n basis matrix produced by
// left-looking elimination with partial pivoting (Gilbert–Peierls style).
//
// Columns of the basis are processed in an order chosen for sparsity
// (ascending nonzero count). Step k pivots original row rowOfPivot[k]. In
// pivot space, L is unit lower triangular and U upper triangular.
//
// L and U are stored column-compressed in one arena each: column k of L is
// (lrows, lvals)[lptr[k]:lptr[k+1]], likewise for U. One luFactors serves a
// whole solve: factor resets the arena lengths and keeps every backing
// array, so refactorising in steady state allocates nothing.
//
// solve and solveT run each triangular pass over the pivot steps its
// right-hand side can reach through the factors' pattern, in the order the
// full-length pass takes them. A step that is not reached holds an exact
// zero, which the full pass skips or multiplies by, so the two give the same
// float64s up to the sign of a zero (see stepsFrom for when the full pass
// runs instead). solveAt and solveTAt are told where the right-hand side may
// be nonzero and write into a zero result, so that a call that follows its
// reach touches no vector whole.
type luFactors struct {
	n          int
	colOrder   []int   // colOrder[k] = basis position factored at step k
	stepAt     []int32 // stepAt[pos] = the step that factored basis position pos
	rowOfPivot []int   // rowOfPivot[k] = original row pivoted at step k
	pinv       []int   // pinv[origRow] = pivot step, -1 while unpivoted
	udiag      []float64

	// L column k: entries (origRow, multiplier), rows pivoted later
	lptr  []int
	lrows []int32
	lvals []float64
	// U column k: entries (pivotStep t<k, value)
	uptr  []int
	urows []int32
	uvals []float64
	// The same two patterns by row, without values and in pivot-step space:
	// (utptr, utidx) lists for step t the steps k whose U column has an entry
	// in row t, (ltptr, ltidx) those whose L column has one in the row step t
	// pivots. solveT's passes walk the transposes, so these are what its
	// reach follows. The ptr slices carry one spare slot for transposeInto.
	utptr, ltptr []int
	utidx, ltidx []int32

	// workspaces reused across factorisations and solves
	work    []float64
	stack   []int32  // reach's output
	steps   []int32  // the step list before it: a pass's start set
	all     []int32  // 0..n-1, the step list of a full-length pass
	set     []uint64 // ascending's bitset, n bits, zero between calls
	mark    []int32
	epoch   int32
	budget  int // steps reach may still visit
	touched []int32
	order   []int // column processing order of the last factor call
	bucket  []int // counting-sort buckets for order

	// bypass[side] counts the calls of solve (0) or solveT (1) that still go
	// straight to the full-length passes; see stepsFrom.
	bypass [2]int
	// Work counts since resize, for lp.solve_reach and lp.full_solves: pivot
	// steps visited over all triangular passes (n for a full-length one) and
	// calls in which a pass ran full length.
	visited, fullSolves int
}

const (
	// A pass whose reach exceeds n/reachShare steps runs full length instead,
	// and the next bypassCalls calls on its side do not look for a reach at
	// all; the pivot loop holds the entering column's pattern to the same
	// share. Both loops do the same arithmetic, so the choice shows in time
	// only and needs no setting. What chose the values (CHANGES.md), and
	// what they read now: the online benchmark's Phase II LP (n = 1,716,
	// testdata/arrow_phase2_facebook_m0.json.gz) reaches ≈ 57 steps a pass
	// and no pivot of its 345 runs one full length; a whole Facebook TE
	// solve, Phase I's masters included, runs a sixth of its solves full
	// length, bypass included. The B4 sweep's bases (n ≈ 220–355,
	// FFC's and TeaVaR's among them) run two thirds of their solves full
	// length, in runs, 38 % of all after a search that gave up: searching
	// before every solve made the FFC and TeaVaR cells 8–32 % slower than the
	// full passes alone, a bypass of 16 or 64 calls brings them within ±5 % of
	// it, and shares of 6, 8 and 12 read alike on both.
	reachShare  = 6
	bypassCalls = 16
)

// patchedCol records one singularity repair made by a repairing factor call:
// the basis position whose column was linearly dependent, and the row whose
// unit column was substituted in its place. A slack column is exactly such
// a unit column (slacks always carry coefficient +1), so the caller can
// realise the patch by installing the slack of that row.
type patchedCol struct {
	pos, row int
}

// newLUFactors returns empty factors for n*n bases; factor fills them.
func newLUFactors(n int) *luFactors {
	f := new(luFactors)
	f.resize(n)
	return f
}

// resize empties f for n*n bases, keeping every backing array that is large
// enough; factor fills it.
func (f *luFactors) resize(n int) {
	f.n = n
	f.colOrder = zeroed(f.colOrder, n)
	f.stepAt = zeroed(f.stepAt, n)
	f.rowOfPivot = zeroed(f.rowOfPivot, n)
	f.pinv = zeroed(f.pinv, n)
	f.udiag = zeroed(f.udiag, n)
	f.lptr = zeroed(f.lptr, n+1)
	f.uptr = zeroed(f.uptr, n+1)
	f.utptr = zeroed(f.utptr, n+2)
	f.ltptr = zeroed(f.ltptr, n+2)
	f.work = zeroed(f.work, n)
	f.mark = zeroed(f.mark, n)
	f.epoch = 0
	f.order = zeroed(f.order, n)
	if cap(f.stack) < n {
		f.stack = make([]int32, 0, n)
	}
	if cap(f.steps) < n {
		f.steps = make([]int32, 0, n)
	}
	if cap(f.all) < n {
		f.all = make([]int32, n)
		for i := range f.all {
			f.all[i] = int32(i)
		}
	}
	f.all = f.all[:n]
	f.set = zeroed(f.set, (n+63)/64)
	f.bypass = [2]int{}
	f.visited, f.fullSolves = 0, 0
}

// sortByCount fills f.order with 0..n-1 in ascending len(cols[i].rows),
// ties in index order (a stable counting sort: the order is a function of
// the counts alone).
func (f *luFactors) sortByCount(cols []spCol) {
	maxLen := 0
	for i := range cols {
		if l := len(cols[i].rows); l > maxLen {
			maxLen = l
		}
	}
	if cap(f.bucket) < maxLen+2 {
		f.bucket = make([]int, maxLen+2)
	}
	start := f.bucket[:maxLen+2]
	for i := range start {
		start[i] = 0
	}
	for i := range cols {
		start[len(cols[i].rows)+1]++
	}
	for l := 1; l < len(start); l++ {
		start[l] += start[l-1]
	}
	for i := range cols {
		l := len(cols[i].rows)
		f.order[start[l]] = i
		start[l]++
	}
}

// factor computes, in place, the LU factors of the matrix whose columns are
// cols[i] (each a sparse column over n rows), discarding whatever f held
// before. Columns are processed in ascending-nnz order; within a column the
// pivot is the largest-magnitude eligible entry.
//
// With repair set, a column with no eligible pivot (structurally or
// numerically dependent on the columns already factored) is replaced by the
// unit column of the lowest-index still-unpivoted row, which pivots
// trivially with value 1. Every substitution is reported so the caller can
// update its basis bookkeeping; the factors then describe the patched matrix
// exactly. Without repair such a column fails the call with ErrSingular and
// leaves f unusable until the next successful factor.
func (f *luFactors) factor(cols []spCol, repair bool) ([]patchedCol, error) {
	n := f.n
	if len(cols) != n {
		return nil, errors.New("lp: basis is not square")
	}
	var patched []patchedCol
	for i := range f.pinv {
		f.pinv[i] = -1
	}
	f.lrows, f.lvals = f.lrows[:0], f.lvals[:0]
	f.urows, f.uvals = f.urows[:0], f.uvals[:0]
	f.sortByCount(cols)

	w := f.work
	touched := f.touched
	for k := 0; k < n; k++ {
		j := f.order[k]
		f.colOrder[k] = j
		f.stepAt[j] = int32(k)
		col := &cols[j]

		// Scatter the column and record its nonzero original rows.
		touched = touched[:0]
		for i, r := range col.rows {
			w[r] += col.vals[i] // += handles duplicate entries defensively
			touched = append(touched, r)
		}

		// Topological order of pivot steps reached from the column pattern.
		topo := f.reach(touched, f.lptr, f.lrows, true, n)

		// Numeric elimination in topological order.
		for idx := len(topo) - 1; idx >= 0; idx-- {
			t := int(topo[idx])
			val := w[f.rowOfPivot[t]]
			if val == 0 {
				continue
			}
			lo, hi := f.lptr[t], f.lptr[t+1]
			lv := f.lvals[lo:hi]
			for i, r := range f.lrows[lo:hi] {
				if w[r] == 0 {
					touched = append(touched, r)
				}
				w[r] -= lv[i] * val
			}
		}
		f.touched = touched // keep the (possibly regrown) backing

		// Partial pivoting: largest-magnitude entry in an unpivoted row.
		pivRow, pivAbs := -1, 0.0
		for _, r := range touched {
			ri := int(r)
			if f.pinv[ri] >= 0 {
				continue
			}
			if a := math.Abs(w[ri]); a > pivAbs {
				pivAbs, pivRow = a, ri
			}
		}
		if pivRow < 0 || pivAbs < 1e-11 {
			// Clean up the workspace before failing or patching.
			for _, r := range touched {
				w[r] = 0
			}
			if !repair {
				return nil, ErrSingular
			}
			// Patch: pivot the unit column of the lowest-index unpivoted
			// row instead. Its single entry sits in an unpivoted row, so
			// the step completes with pivot value 1 and empty L/U columns.
			pr := -1
			for r := 0; r < n; r++ {
				if f.pinv[r] < 0 {
					pr = r
					break
				}
			}
			if pr < 0 {
				return nil, ErrSingular // unreachable: k < n pivots placed
			}
			patched = append(patched, patchedCol{pos: j, row: pr})
			f.rowOfPivot[k] = pr
			f.pinv[pr] = k
			f.udiag[k] = 1
			f.lptr[k+1], f.uptr[k+1] = len(f.lrows), len(f.urows)
			continue
		}
		pivVal := w[pivRow]
		f.rowOfPivot[k] = pivRow
		f.pinv[pivRow] = k
		f.udiag[k] = pivVal

		for _, r := range touched {
			ri := int(r)
			v := w[ri]
			w[ri] = 0
			if v == 0 || ri == pivRow {
				continue
			}
			if t := f.pinv[ri]; t >= 0 && t < k {
				if math.Abs(v) > 1e-14 {
					f.urows = append(f.urows, int32(t))
					f.uvals = append(f.uvals, v)
				}
			} else if f.pinv[ri] < 0 {
				if math.Abs(v/pivVal) > 1e-14 {
					f.lrows = append(f.lrows, r)
					f.lvals = append(f.lvals, v/pivVal)
				}
			}
		}
		f.lptr[k+1], f.uptr[k+1] = len(f.lrows), len(f.urows)
	}
	f.utidx = f.transposeInto(f.utptr, f.utidx, f.uptr, f.urows, false)
	f.ltidx = f.transposeInto(f.ltptr, f.ltidx, f.lptr, f.lrows, true)
	return patched, nil
}

// transposeInto writes the row-wise pattern of the column-compressed
// (ptr, idx) into (tptr, tidx) by a counting sort, each row's steps
// ascending, and returns tidx. rows says idx holds original rows (L) rather
// than pivot steps (U); the result is in pivot steps either way. tidx regrows
// with the capacity of the arena it mirrors, so the two regrow together.
func (f *luFactors) transposeInto(tptr []int, tidx []int32, ptr []int, idx []int32, rows bool) []int32 {
	if cap(tidx) < len(idx) {
		tidx = make([]int32, len(idx), cap(idx))
	}
	tidx = tidx[:len(idx)]
	// tptr[t+2] counts row t, so that after the running sum tptr[t+1] is where
	// row t starts and, once every entry is placed, where it ends.
	clear(tptr)
	for _, r := range idx {
		tptr[f.stepOf(r, rows)+2]++
	}
	for t := 2; t < len(tptr); t++ {
		tptr[t] += tptr[t-1]
	}
	for k := 0; k < f.n; k++ {
		for _, r := range idx[ptr[k]:ptr[k+1]] {
			t := f.stepOf(r, rows) + 1
			tidx[tptr[t]] = int32(k)
			tptr[t]++
		}
	}
	return tidx
}

// stepOf maps an entry of a pattern to its pivot step: the entry itself, or,
// when the pattern holds original rows, the step that pivots it (-1: none yet).
func (f *luFactors) stepOf(r int32, rows bool) int {
	if rows {
		return f.pinv[r]
	}
	return int(r)
}

// reach returns, as a stack (reverse topological order), the pivot steps
// reachable from start through the pattern (ptr, idx), or nil as soon as it
// has visited more than limit of them. rows says start and idx hold original
// rows (the columns of L, possibly still unpivoted) rather than pivot steps.
func (f *luFactors) reach(start []int32, ptr []int, idx []int32, rows bool, limit int) []int32 {
	f.epoch++
	if f.epoch == math.MaxInt32 {
		for i := range f.mark {
			f.mark[i] = 0
		}
		f.epoch = 1
	}
	f.stack, f.budget = f.stack[:0], limit
	for _, r := range start {
		if p := f.stepOf(r, rows); p >= 0 && f.mark[p] != f.epoch && !f.dfs(p, ptr, idx, rows) {
			return nil
		}
	}
	return f.stack
}

// dfs pushes pivot step t onto f.stack after every unvisited step its
// entries in the pattern reach; it reports false, with the search abandoned,
// once f.budget steps have been visited.
func (f *luFactors) dfs(t int, ptr []int, idx []int32, rows bool) bool {
	if f.budget--; f.budget < 0 {
		return false
	}
	f.mark[t] = f.epoch
	for _, r := range idx[ptr[t]:ptr[t+1]] {
		if p := f.stepOf(r, rows); p >= 0 && f.mark[p] != f.epoch && !f.dfs(p, ptr, idx, rows) {
			return false
		}
	}
	f.stack = append(f.stack, int32(t))
	return true
}

// stepsFrom returns the step list of one triangular pass: ascending, the
// steps that start reaches through (ptr, idx) — or f.all, the full-length
// pass, when start or the reach exceeds n/reachShare steps; finding that out
// by searching also sends the next bypassCalls calls on this side (0 solve,
// 1 solveT) straight there. The result and f.stack trade buffers, so it
// survives the one stepsFrom call that starts from it.
func (f *luFactors) stepsFrom(side int, start []int32, ptr []int, idx []int32, rows bool) []int32 {
	limit := f.n / reachShare
	if len(start) > limit {
		return f.all
	}
	s := f.reach(start, ptr, idx, rows, limit)
	if s == nil {
		f.bypass[side] = bypassCalls
		return f.all
	}
	f.ascending(s)
	f.steps, f.stack = s, f.steps
	return s
}

// ascending sorts s, distinct values below n, in place: by slices.Sort when
// s is short next to n/64, else by one pass over an n-bit set.
func (f *luFactors) ascending(s []int32) {
	if len(s)*len(s) <= 4*len(f.set) {
		slices.Sort(s)
		return
	}
	for _, v := range s {
		f.set[v>>6] |= 1 << (v & 63)
	}
	i := 0
	for w, b := range f.set {
		for ; b != 0; b &= b - 1 {
			s[i] = int32(w<<6 + bits.TrailingZeros64(b))
			i++
		}
		f.set[w] = 0
	}
}

// startAt lists the steps a pass starts from: the entries of at (each listed
// once) at which v is nonzero, mapped through to unless it is nil. It stops
// one past n/reachShare, where stepsFrom takes the full-length pass anyway.
func (f *luFactors) startAt(v []float64, at, to []int32) []int32 {
	start := f.steps[:0]
	for _, i := range at {
		if v[i] == 0 {
			continue
		}
		if to != nil {
			i = to[i]
		}
		if start = append(start, i); len(start) > f.n/reachShare {
			break
		}
	}
	return start
}

// countSteps adds one call's two passes to the work counts.
func (f *luFactors) countSteps(a, b []int32) {
	f.visited += len(a) + len(b)
	if len(a) == f.n || len(b) == f.n {
		f.fullSolves++
	}
}

// solve computes x with B x = b. b is indexed by original row; the result is
// indexed by basis position. b is overwritten with scratch data.
func (f *luFactors) solve(b, x []float64) {
	clear(x)
	f.solveAt(b, x, f.all)
}

// solveAt is solve for a b that is zero outside the rows at lists, each once,
// into an x that is zero, without a pass over all n rows. It returns the
// steps of U it ran, ascending (f.all: full length): x is zero outside their
// colOrder and b outside their rowOfPivot. The list lives until the next
// solve of either kind.
func (f *luFactors) solveAt(b, x []float64, at []int32) []int32 {
	lsteps := f.all
	if f.bypass[0] > 0 {
		f.bypass[0]--
	} else {
		lsteps = f.stepsFrom(0, f.startAt(b, at, nil), f.lptr, f.lrows, true)
	}
	usteps := f.stepsFrom(0, lsteps, f.uptr, f.urows, false)
	f.solveSteps(b, x, lsteps, usteps)
	return usteps
}

// solveSteps is solve over the given steps of L and of U, ascending, into
// an x that is zero outside the colOrder of usteps; the steps left out must
// be ones at which the solution is zero.
func (f *luFactors) solveSteps(b, x []float64, lsteps, usteps []int32) {
	f.countSteps(lsteps, usteps)
	// Forward: L y = b (column-oriented), y in pivot-step space.
	y := b
	for _, t := range lsteps {
		val := y[f.rowOfPivot[t]]
		if val == 0 {
			continue
		}
		lo, hi := f.lptr[t], f.lptr[t+1]
		lv := f.lvals[lo:hi]
		for i, r := range f.lrows[lo:hi] {
			y[r] -= lv[i] * val
		}
	}
	// Backward: U z = y, z in pivot-step space (stored into work).
	z := f.work
	for i := len(usteps) - 1; i >= 0; i-- {
		k := usteps[i]
		zk := y[f.rowOfPivot[k]] / f.udiag[k]
		z[k] = zk
		if zk == 0 {
			continue
		}
		lo, hi := f.uptr[k], f.uptr[k+1]
		uv := f.uvals[lo:hi]
		for i, t := range f.urows[lo:hi] {
			y[f.rowOfPivot[t]] -= uv[i] * zk
		}
	}
	for _, k := range usteps {
		x[f.colOrder[k]] = z[k]
		z[k] = 0
	}
}

// solveT computes y with Bᵀ y = c. c is indexed by basis position; the
// result is indexed by original row. c is left unmodified.
func (f *luFactors) solveT(c, y []float64) {
	clear(y)
	f.solveTAt(c, y, f.all)
}

// solveTAt is solveT for a c that is zero outside the basis positions at
// lists, each once, into a y that is zero, without a pass over all n
// positions. It returns the steps of Lᵀ it ran, ascending (f.all: full
// length), outside whose rowOfPivot y is zero. The list lives until the next
// solve of either kind.
func (f *luFactors) solveTAt(c, y []float64, at []int32) []int32 {
	usteps := f.all
	if f.bypass[1] > 0 {
		f.bypass[1]--
	} else {
		usteps = f.stepsFrom(1, f.startAt(c, at, f.stepAt), f.utptr, f.utidx, false)
	}
	lsteps := f.stepsFrom(1, usteps, f.ltptr, f.ltidx, false)
	f.solveTSteps(c, y, usteps, lsteps)
	return lsteps
}

// solveTSteps is solveT over the given steps of Uᵀ and of Lᵀ, ascending and
// the second containing the first, into a y that is zero outside the
// rowOfPivot of lsteps; the steps left out must be ones at which the
// solution is zero.
func (f *luFactors) solveTSteps(c, y []float64, usteps, lsteps []int32) {
	f.countSteps(usteps, lsteps)
	v := f.work
	// Forward: Uᵀ v = ĉ where ĉ_k = c[colOrder[k]].
	for _, k := range usteps {
		s := c[f.colOrder[k]]
		lo, hi := f.uptr[k], f.uptr[k+1]
		uv := f.uvals[lo:hi]
		for i, t := range f.urows[lo:hi] {
			s -= uv[i] * v[t]
		}
		v[k] = s / f.udiag[k]
	}
	// Backward: Lᵀ u = v (u overwrites v).
	for i := len(lsteps) - 1; i >= 0; i-- {
		k := lsteps[i]
		s := v[k]
		lo, hi := f.lptr[k], f.lptr[k+1]
		lv := f.lvals[lo:hi]
		for i, r := range f.lrows[lo:hi] {
			s -= lv[i] * v[f.pinv[r]]
		}
		v[k] = s
	}
	for _, t := range lsteps {
		y[f.rowOfPivot[t]] = v[t]
		v[t] = 0
	}
}
