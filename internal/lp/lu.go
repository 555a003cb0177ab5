package lp

import (
	"errors"
	"math"
)

// errSingular is returned when the basis matrix cannot be factorised.
var errSingular = errors.New("lp: singular basis")

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
type luFactors struct {
	n          int
	colOrder   []int // colOrder[k] = basis position factored at step k
	rowOfPivot []int // rowOfPivot[k] = original row pivoted at step k
	pinv       []int // pinv[origRow] = pivot step, -1 while unpivoted
	udiag      []float64

	// L column k: entries (origRow, multiplier), rows pivoted later
	lptr  []int
	lrows []int32
	lvals []float64
	// U column k: entries (pivotStep t<k, value)
	uptr  []int
	urows []int32
	uvals []float64

	// workspaces reused across factorisations and solves
	work    []float64
	stack   []int32
	mark    []int32
	epoch   int32
	touched []int32
	order   []int // column processing order of the last factor call
	bucket  []int // counting-sort buckets for order
}

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
	f.rowOfPivot = zeroed(f.rowOfPivot, n)
	f.pinv = zeroed(f.pinv, n)
	f.udiag = zeroed(f.udiag, n)
	f.lptr = zeroed(f.lptr, n+1)
	f.uptr = zeroed(f.uptr, n+1)
	f.work = zeroed(f.work, n)
	f.mark = zeroed(f.mark, n)
	f.epoch = 0
	f.order = zeroed(f.order, n)
	if cap(f.stack) < n {
		f.stack = make([]int32, 0, n)
	}
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
// exactly. Without repair such a column fails the call with errSingular and
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
		col := &cols[j]

		// Scatter the column and record its nonzero original rows.
		touched = touched[:0]
		for i, r := range col.rows {
			w[r] += col.vals[i] // += handles duplicate entries defensively
			touched = append(touched, r)
		}

		// Topological order of pivot steps reached from the column pattern.
		topo := f.reach(touched)

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
				return nil, errSingular
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
				return nil, errSingular // unreachable: k < n pivots placed
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
	return patched, nil
}

// reach returns, as a stack (reverse topological order), the pivot steps
// reachable from the given original rows through the L structure.
func (f *luFactors) reach(rows []int32) []int32 {
	f.epoch++
	if f.epoch == math.MaxInt32 {
		for i := range f.mark {
			f.mark[i] = 0
		}
		f.epoch = 1
	}
	f.stack = f.stack[:0]
	for _, r := range rows {
		if p := f.pinv[r]; p >= 0 && f.mark[p] != f.epoch {
			f.dfs(p)
		}
	}
	return f.stack
}

// dfs pushes pivot step t onto f.stack after every unvisited step its L
// column reaches.
func (f *luFactors) dfs(t int) {
	f.mark[t] = f.epoch
	for _, r := range f.lrows[f.lptr[t]:f.lptr[t+1]] {
		if p := f.pinv[r]; p >= 0 && f.mark[p] != f.epoch {
			f.dfs(p)
		}
	}
	f.stack = append(f.stack, int32(t))
}

// solve computes x with B x = b. b is indexed by original row; the result is
// indexed by basis position. b is overwritten with scratch data.
func (f *luFactors) solve(b, x []float64) {
	n := f.n
	// Forward: L y = b (column-oriented), y in pivot-step space.
	y := b
	for t := 0; t < n; t++ {
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
	for k := n - 1; k >= 0; k-- {
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
	for k := 0; k < n; k++ {
		x[f.colOrder[k]] = z[k]
		z[k] = 0
	}
}

// solveT computes y with Bᵀ y = c. c is indexed by basis position; the
// result is indexed by original row. c is left unmodified.
func (f *luFactors) solveT(c, y []float64) {
	n := f.n
	v := f.work
	// Forward: Uᵀ v = ĉ where ĉ_k = c[colOrder[k]].
	for k := 0; k < n; k++ {
		s := c[f.colOrder[k]]
		lo, hi := f.uptr[k], f.uptr[k+1]
		uv := f.uvals[lo:hi]
		for i, t := range f.urows[lo:hi] {
			s -= uv[i] * v[t]
		}
		v[k] = s / f.udiag[k]
	}
	// Backward: Lᵀ u = v (u overwrites v).
	for k := n - 1; k >= 0; k-- {
		s := v[k]
		lo, hi := f.lptr[k], f.lptr[k+1]
		lv := f.lvals[lo:hi]
		for i, r := range f.lrows[lo:hi] {
			s -= lv[i] * v[f.pinv[r]]
		}
		v[k] = s
	}
	for t := 0; t < n; t++ {
		y[f.rowOfPivot[t]] = v[t]
		v[t] = 0
	}
}
