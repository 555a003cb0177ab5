package lp

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/pool"
)

// Status is the outcome of an LP solve.
type Status int8

// Solve outcomes.
const (
	StatusOptimal Status = iota
	StatusInfeasible
	StatusUnbounded
	StatusIterLimit
)

func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusIterLimit:
		return "iteration-limit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// The errors of the non-optimal statuses (Status.Err), which the packages
// that solve LPs wrap, so that a caller tells a failure's class with
// errors.Is. ErrSingular, the numerical failure, is the fourth class.
var (
	ErrInfeasible = errors.New("lp: infeasible")
	ErrUnbounded  = errors.New("lp: unbounded")
	ErrIterLimit  = errors.New("lp: iteration limit")
)

// Err returns nil for StatusOptimal and the error of the status's class
// otherwise.
func (s Status) Err() error {
	switch s {
	case StatusOptimal:
		return nil
	case StatusInfeasible:
		return ErrInfeasible
	case StatusUnbounded:
		return ErrUnbounded
	case StatusIterLimit:
		return ErrIterLimit
	}
	return fmt.Errorf("lp: %v", s)
}

// Solution holds the result of solving a Model.
type Solution struct {
	Status    Status
	Objective float64   // in the model's own sense
	X         []float64 // one value per model variable
	// Duals holds one dual value (shadow price) per constraint, in the
	// model's own sense: for a maximisation problem, Duals[i] is the rate
	// at which the optimum grows per unit of extra right-hand side on
	// constraint i. Only populated at optimality.
	Duals      []float64
	Iterations int
	// Cert is the optimality certificate of the final basis (duality gap
	// and feasibility residuals); populated at StatusOptimal only. Verify
	// it with CheckCertificate.
	Cert *Certificate
	// Basis is the final simplex basis, suitable for warm-starting related
	// solves via SolveWithBasis; populated at StatusOptimal only.
	Basis *Basis
	// Warm reports what the warm-start machinery did; nil on cold solves.
	Warm *WarmInfo
	// Health is the numerical-health probe record; nil unless the solve ran
	// with Options.HealthEvery > 0.
	Health *HealthReport
}

// The solver's tolerances and refactorisation period, one set for every
// solve.
const (
	feasTol       = 1e-7 // feasibility tolerance
	optTol        = 1e-7 // reduced-cost optimality tolerance
	refactorEvery = 64   // pivots between basis refactorisations
)

// Options tunes the simplex solver. The zero value selects defaults.
type Options struct {
	MaxIter int // maximum pivots (default 20000 + 40*(rows+cols))
	// Recorder receives per-solve metrics (pivots, refactorisations,
	// degenerate steps, eta depth). Counters accumulate locally during the
	// solve and flush once at the end, so a nil Recorder costs nothing and
	// a live one never perturbs the pivot sequence.
	Recorder obs.Recorder
	// HealthEvery enables numerical-health probes every HealthEvery pivots
	// (0, the default, disables them). Each probe records objective
	// progress, the primal residual ‖Ax−b‖∞, the degenerate-pivot ratio and
	// eta-file depth, and feeds the stall / residual-drift / cycling
	// detectors; results land in Solution.Health and, via Recorder, in the
	// lp.health.* metrics. Probes only read solver state: the pivot
	// sequence is identical with probes on or off.
	HealthEvery int
}

// withDefaults resolves the effective solver settings. Zero values select
// the defaults. A negative MaxIter is invalid — the solver would never
// pivot — so it is explicitly clamped to the default rather than being
// allowed to leak into the solve.
func (o *Options) withDefaults(rows, cols int) Options {
	v := Options{MaxIter: 20000 + 40*(rows+cols)}
	if o == nil {
		return v
	}
	v.Recorder = o.Recorder
	if o.HealthEvery > 0 {
		v.HealthEvery = o.HealthEvery
	} // HealthEvery <= 0: probes stay off
	if o.MaxIter > 0 {
		v.MaxIter = o.MaxIter
	} // MaxIter < 0: clamped to the default
	return v
}

// Solve solves the model with the revised simplex method and returns the
// solution. A non-nil error indicates an internal numerical failure, not
// infeasibility: infeasible and unbounded models are reported via Status.
func Solve(m *Model, opts *Options) (*Solution, error) {
	return SolveInto(new(Solution), m, nil, opts)
}

// SolveInto solves m (cold for a nil basis, else as SolveWithBasis does) into
// dst and returns dst. It is the one entry point behind Solve and
// SolveWithBasis: a caller that reads a Solution and drops it before its
// next solve passes the same dst every time, and the solve writes X, Duals
// and Basis into the backing arrays dst holds from the solves before, so a
// caller solving many models of a size allocates none of the three after the
// first. Every other field is overwritten: Cert, Warm and Health are fresh
// objects on every solve, which the caller may keep past the next one; a
// solve that does not end optimal leaves Duals, Basis and Cert nil (their
// arrays go with them). On a non-nil error dst holds no answer and nil is
// returned. basis must not be dst.Basis, which the solve overwrites (a
// column-generation loop that warm-starts from its last basis alternates two
// Solutions); SolveInto panics when it is.
func SolveInto(dst *Solution, m *Model, basis *Basis, opts *Options) (*Solution, error) {
	if basis != nil && basis == dst.Basis {
		panic("lp: SolveInto from dst.Basis, which the solve overwrites")
	}
	sx := simplexPool.Get()
	defer sx.release()
	if err := sx.init(m, opts); err != nil {
		return nil, err
	}
	sx.dst = dst
	var err error
	if basis == nil {
		_, err = sx.solve()
	} else {
		_, err = sx.solveWarm(basis)
	}
	if err != nil {
		return nil, err
	}
	sx.attachHealth(dst)
	sx.flushMetrics()
	return dst, nil
}

// variable statuses within the simplex
const (
	atLower int8 = iota
	atUpper
	atFree // nonbasic free variable held at zero
	basic
)

// simplex is the working state of one bounded-variable revised simplex solve
// in computational standard form:
//
//	minimise c·x  subject to  A x = b,  l <= x <= u
//
// where x stacks the model's structural variables, one slack per row, and
// one phase-1 artificial per row.
//
// A simplex is also the solver's workspace: init sizes every slice below for
// the model at hand out of what the previous solve left, so a simplex that
// has solved a model of some size solves the next one of that size without
// allocating working memory. SolveInto passes simplexes from one solve to the
// next through simplexPool. The rule that makes this safe: nothing a solve
// returns (Solution, Basis, Certificate, WarmInfo, HealthReport) shares
// memory with the simplex that produced it. The simplex points at the
// caller's Solution (dst) only while it fills it; release drops the pointer.
type simplex struct {
	opt  Options
	m    *Model
	dst  *Solution
	nRow int
	nStr int // structural variables
	nTot int // structural + slacks + artificials

	cols   []spCol // column j of A, carved from aRows/aVals
	aRows  []int32
	aVals  []float64
	cost   []float64
	lb, ub []float64
	b      []float64

	status  []int8
	x       []float64
	basisOf []int // row -> variable occupying that basis position
	posOf   []int // variable -> basis position, -1 if nonbasic

	// lu holds the factors of the basis as of the last refactorisation;
	// refactorize factors into it in place (see luFactors). basisCols is the
	// gather slice handed to it.
	lu        *luFactors
	basisCols []spCol
	// The eta file: one product-form update per pivot since the last
	// refactorisation. Eta k's off-pivot nonzeros live in
	// (etaIdx, etaVal)[etas[k].lo:etas[k].hi], one arena per solve that
	// clearEtas truncates, so a pivot allocates nothing once the arena has
	// reached its working size.
	etas   []eta
	etaIdx []int32
	etaVal []float64
	iters  int
	nnz    int // nonzeros across structural + slack columns of A

	// scratch vectors, allocated once per simplex and reused across every
	// FTRAN/BTRAN/pricing pass (and by duals/certificate extraction)
	w, y, rhs, accum []float64
	cb, d            []float64
	phase1Cost       []float64 // built by the first phase 1, nil until then
	phase1Buf        []float64 // phase1Cost's backing, kept across solves
	cand             []int     // installWarmBasis's basic-column candidates

	// The pricing cache iterate keeps between its first BTRAN and its return:
	// dj[j] = cost_j − yRef·a_j for every column of the entering scan, each by
	// the column dot product a full pricing pass takes, and score[j] =
	// enteringScore of dj[j] under j's present status and bounds. yRef is the
	// y they were computed from; colStamp marks the columns re-priced in round
	// colEpoch.
	dj, score, yRef []float64
	colStamp        []int32
	colEpoch        int32
	// The entering choice's summary of score, one entry per block of
	// scoreBlock columns: the block's largest score and the first column
	// holding it (blockArg -1: no positive score), over the columns of
	// [0, blockScan). rescore sets its column's dirty bit; pickEntering
	// recomputes only the dirty blocks, and all of them when its scan is
	// not blockScan (0 after init: none computed yet).
	blockMax  []float64
	blockArg  []int32
	dirty     []bool
	blockScan int
	// afterPricing, set by tests only, runs in every iteration once the
	// entering variable is chosen (enter < 0: none left); beforePivot runs
	// once d holds the entering column.
	afterPricing func(cost []float64, phase1 bool, enter int, dir float64)
	beforePivot  func(enter int, dir float64)

	// The pivot loop's patterns: where, while iterate runs (loop set), each
	// vector of a pivot may be nonzero, so that every pass of the pivot costs
	// the entries it touches. cb is nonzero at the positions cbIdx lists
	// (cbAt: a position's index in it, -1 if absent); d at dIdx, ascending;
	// y at the rows yIdx lists, and the y before at yPrev; an artificial at
	// a row of arts. A full flag says the vector may be nonzero anywhere: a
	// full-length pass, or a pass over all rows, wrote it. w and bt, BTRAN's
	// copy of c_B, are zero between pivots. Outside the loop, and in every
	// loop of a simplex with dense set (by tests only, as the reference),
	// each pass runs over all rows.
	loop, dense      bool
	cbIdx, cbAt      []int32
	dIdx             []int32
	dFull            bool
	yIdx, yPrev      []int32
	yFull, yPrevFull bool
	bt               []float64
	btAt             []int32  // the positions of bt one BTRAN writes
	arts             []uint64 // a bit per row: its artificial may be nonzero
	// mark dedupes btAt, dIdx and the rows repriceMoved visits.
	mark  []int32
	epoch int32

	degenerate int // consecutive degenerate pivots (Bland trigger)

	// The dual simplex's vectors (dual.go): ρ, row r of B⁻¹, by row; α, the
	// pivot row ρ·a_j, by column; flip, B⁻¹ times the flipped columns, by
	// position; each with its pattern in the pivot loop (rhoIdx ascending;
	// alphaIdx every column α may be nonzero at). brk holds the ratio test's
	// candidates.
	rho, alpha, flip          []float64
	rhoIdx, alphaIdx, flipIdx []int32
	rhoFull, flipFull         bool
	brk                       []int32

	// warm-start state; nil on cold solves
	warm *WarmInfo
	// startingArts counts artificials installed at a nonzero residual by
	// the most recent solveFromPoint (the pivots the start still owes).
	startingArts int

	// local metric accumulators, flushed to opt.Recorder once per solve
	phase1Iters int
	dualIters   int
	boundFlips  int
	refactors   int
	degenTotal  int
	maxEtaDepth int
	repriced    int // reduced costs recomputed, full passes included
	ratioRows   int // entries of d the ratio test visited
	scanCols    int // scores the entering choice read: dirty blocks, block maxima, Bland's walk
	cert        *Certificate

	// health is the probe machinery (see health.go); nil unless
	// Options.HealthEvery > 0.
	health *healthState
}

// eta is one product-form update: basis position pos was replaced by a
// column whose image under the previous B⁻¹ has pivot entry piv (at pos) and
// the off-pivot nonzeros etaIdx/etaVal[lo:hi], in ascending position order.
type eta struct {
	pos    int // basis position replaced
	piv    float64
	lo, hi int
}

// simplexPool hands workspaces from one solve to the next.
var simplexPool pool.Free[simplex]

// release returns the workspace to the pool, dropping what it holds of the
// caller's (model, recorder) and of the solution it produced.
func (sx *simplex) release() {
	sx.m, sx.opt.Recorder, sx.dst = nil, nil, nil
	sx.warm, sx.cert, sx.health = nil, nil, nil
	simplexPool.Put(sx)
}

// zeroed returns s resized to n zero elements, reallocating only when n
// exceeds its capacity.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// sized returns s emptied, with room for n elements.
func sized(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, 0, n)
	}
	return s[:0]
}

// newSimplex builds the computational form of m in a workspace of its own.
func newSimplex(m *Model, opts *Options) (*simplex, error) {
	sx := new(simplex)
	return sx, sx.init(m, opts)
}

// init builds the computational form of m, reusing the backing arrays of
// whatever sx solved before and none of its state.
func (sx *simplex) init(m *Model, opts *Options) error {
	nRow := m.NumConstrs()
	nStr := m.NumVars()
	nTot := nStr + 2*nRow
	nBlock := (nTot + scoreBlock - 1) / scoreBlock
	old := *sx
	*sx = simplex{
		m:    m,
		opt:  opts.withDefaults(nRow, nStr),
		nRow: nRow, nStr: nStr, nTot: nTot,
		cols: zeroed(old.cols, nTot), aRows: old.aRows, aVals: old.aVals,
		cost: zeroed(old.cost, nTot),
		lb:   zeroed(old.lb, nTot),
		ub:   zeroed(old.ub, nTot),
		b:    zeroed(old.b, nRow),

		status:  zeroed(old.status, nTot),
		x:       zeroed(old.x, nTot),
		basisOf: zeroed(old.basisOf, nRow),
		posOf:   zeroed(old.posOf, nTot),

		lu:        old.lu,
		basisCols: zeroed(old.basisCols, nRow),
		etas:      old.etas[:0],
		etaIdx:    old.etaIdx[:0],
		etaVal:    old.etaVal[:0],

		w: zeroed(old.w, nRow), y: zeroed(old.y, nRow),
		rhs: zeroed(old.rhs, nRow), accum: zeroed(old.accum, nRow),
		cb: zeroed(old.cb, nRow), d: zeroed(old.d, nRow),
		dj: zeroed(old.dj, nTot), score: zeroed(old.score, nTot),
		yRef: zeroed(old.yRef, nRow), colStamp: zeroed(old.colStamp, nStr),
		blockMax: zeroed(old.blockMax, nBlock), blockArg: zeroed(old.blockArg, nBlock),
		dirty:     zeroed(old.dirty, nBlock),
		phase1Buf: old.phase1Buf,
		cand:      old.cand,

		cbIdx: sized(old.cbIdx, nRow), cbAt: zeroed(old.cbAt, nRow),
		dIdx: sized(old.dIdx, nRow),
		yIdx: sized(old.yIdx, nRow), yPrev: sized(old.yPrev, nRow),
		bt: zeroed(old.bt, nRow), btAt: sized(old.btAt, nRow),
		arts: zeroed(old.arts, (nRow+63)/64),
		mark: zeroed(old.mark, nRow),

		rho: zeroed(old.rho, nRow), alpha: zeroed(old.alpha, nStr+nRow),
		flip: zeroed(old.flip, nRow), rhoIdx: sized(old.rhoIdx, nRow),
		alphaIdx: sized(old.alphaIdx, nStr+nRow), flipIdx: sized(old.flipIdx, nRow),
		brk: sized(old.brk, nStr+nRow),
	}
	if sx.lu == nil {
		sx.lu = new(luFactors)
	}
	sx.lu.resize(nRow)
	sign := 1.0
	if m.maximize {
		sign = -1.0
	}
	for j := 0; j < nStr; j++ {
		lb, ub := m.lb[j], m.ub[j]
		if lb > ub {
			// Trivially infeasible bounds; surface as infeasible later via
			// an always-violated artificial by clamping.
			return fmt.Errorf("lp: variable %q has lb %g > ub %g", m.VarName(Var(j)), lb, ub)
		}
		sx.lb[j], sx.ub[j] = lb, ub
		sx.cost[j] = sign * m.obj[j]
	}
	// The columns of A share one arena in which each has exactly the room it
	// needs: a counting pass over the rows sizes the structural columns
	// (posOf is free to hold the counts until it is initialised below), and
	// a slack or artificial column never holds more than one entry.
	count := sx.posOf[:nStr]
	nnz := 2 * nRow
	for _, r := range m.rows {
		for _, t := range r.terms {
			count[t.Var]++
		}
		nnz += len(r.terms)
	}
	if cap(sx.aRows) < nnz {
		sx.aRows, sx.aVals = make([]int32, nnz), make([]float64, nnz)
	}
	rows, vals := sx.aRows[:nnz], sx.aVals[:nnz]
	off := 0
	for j := range sx.cols {
		n := 1
		if j < nStr {
			n = count[j]
		}
		sx.cols[j] = spCol{rows: rows[off : off : off+n], vals: vals[off : off : off+n]}
		off += n
	}
	for i, r := range m.rows {
		for _, t := range r.terms {
			sx.cols[t.Var].add(i, t.Coef)
		}
		s := nStr + i // slack for row i
		sx.cols[s].add(i, 1)
		switch r.sense {
		case LE:
			sx.lb[s], sx.ub[s] = 0, Inf
		case GE:
			sx.lb[s], sx.ub[s] = -Inf, 0
		case EQ:
			sx.lb[s], sx.ub[s] = 0, 0
		}
		sx.b[i] = r.rhs
	}
	for j := range sx.posOf {
		sx.posOf[j] = -1
	}
	for j := 0; j < nStr+nRow; j++ {
		sx.nnz += len(sx.cols[j].rows)
	}
	if sx.opt.HealthEvery > 0 {
		sx.health = newHealthState(sx.opt.HealthEvery, nRow)
	}
	return nil
}

// initialValue returns the starting value for a nonbasic variable and its
// status: the finite bound nearest zero, or zero for free variables.
func initialValue(lb, ub float64) (float64, int8) {
	switch {
	case lb <= -Inf+1 && ub >= Inf-1, math.IsInf(lb, -1) && math.IsInf(ub, 1):
		return 0, atFree
	case math.IsInf(lb, -1):
		return ub, atUpper
	case math.IsInf(ub, 1):
		return lb, atLower
	case math.Abs(lb) <= math.Abs(ub):
		return lb, atLower
	default:
		return ub, atUpper
	}
}

// flushMetrics reports the solve's accumulated counters to the recorder in
// one batch (no-op without one).
func (sx *simplex) flushMetrics() {
	r := sx.opt.Recorder
	if r == nil {
		return
	}
	r.Add("lp.solves", 1)
	r.Add("lp.pivots", int64(sx.iters))
	// Pivot work is a model-size weight per pivot (nonzeros + rows), not a
	// measure of work done: an iteration re-prices and solves over what
	// changed, which the three counts after it report. The formula stays
	// because snapshots compare it across commits, and it still exposes
	// restricted-master savings when raw pivot counts come out even.
	r.Add("lp.pivot_work", int64(sx.iters)*int64(sx.nnz+sx.nRow))
	r.Add("lp.repriced_cols", int64(sx.repriced))
	r.Add("lp.ratio_rows", int64(sx.ratioRows))
	r.Add("lp.scan_cols", int64(sx.scanCols))
	r.Add("lp.solve_reach", int64(sx.lu.visited))
	r.Add("lp.full_solves", int64(sx.lu.fullSolves))
	r.Add("lp.phase1_pivots", int64(sx.phase1Iters))
	r.Add("lp.refactorizations", int64(sx.refactors))
	r.Add("lp.degenerate_pivots", int64(sx.degenTotal))
	r.Observe("lp.pivots_per_solve", float64(sx.iters))
	r.Observe("lp.eta_depth_max", float64(sx.maxEtaDepth))
	r.Observe("lp.rows", float64(sx.nRow))
	r.Observe("lp.structural_vars", float64(sx.nStr))
	if wi := sx.warm; wi != nil {
		r.Add("lp.warm_starts", 1)
		if wi.Accepted {
			r.Add("lp.warm_accepted", 1)
		}
		r.Add("lp.warm_repairs", int64(wi.Repairs))
		if wi.Phase1Skipped {
			r.Add("lp.phase1_skipped", 1)
		}
		r.Add("lp.pivots_saved", int64(wi.PivotsSaved))
		if wi.Dual {
			r.Add("lp.dual_solves", 1)
		}
	}
	r.Add("lp.dual_pivots", int64(sx.dualIters))
	r.Add("lp.bound_flips", int64(sx.boundFlips))
	if c := sx.cert; c != nil {
		r.Add("lp.certificates", 1)
		r.Observe("lp.duality_gap", c.Gap)
		r.Observe("lp.primal_inf", c.PrimalInf)
		r.Observe("lp.dual_inf", c.DualInf)
		if CheckCertificate(c, 0) != nil {
			r.Add("lp.cert_failures", 1)
		}
	}
	sx.flushHealthMetrics(r)
}

func (sx *simplex) solve() (*Solution, error) {
	// Start all structural and slack variables nonbasic at a bound.
	for j := 0; j < sx.nStr+sx.nRow; j++ {
		sx.x[j], sx.status[j] = initialValue(sx.lb[j], sx.ub[j])
	}
	return sx.solveFromPoint()
}

// solveFromPoint installs the all-artificial basis against the current
// nonbasic point (the residual of each row decides its artificial's sign
// and starting value), factorises, and runs both phases. Cold starts
// arrive here from the initialValue point; warm starts whose basis turned
// out infeasible arrive from the projected warm point, which typically
// leaves most artificials at zero.
func (sx *simplex) solveFromPoint() (*Solution, error) {
	// Residual r = b - A x determines artificials (rhs is free until the
	// refactorisation below recomputes the basics).
	res := sx.rhs
	copy(res, sx.b)
	for j := 0; j < sx.nStr+sx.nRow; j++ {
		if v := sx.x[j]; v != 0 {
			c := &sx.cols[j]
			for i, r := range c.rows {
				res[r] -= float64(c.vals[i] * v)
			}
		}
	}
	sx.startingArts = 0
	for i := 0; i < sx.nRow; i++ {
		a := sx.nStr + sx.nRow + i
		coef := 1.0
		if res[i] < 0 {
			coef = -1.0
		}
		sx.cols[a].add(i, coef)
		sx.lb[a], sx.ub[a] = 0, Inf
		sx.x[a] = math.Abs(res[i])
		sx.status[a] = basic
		sx.basisOf[i] = a
		sx.posOf[a] = i
		if sx.x[a] > feasTol {
			sx.startingArts++
		}
	}
	if err := sx.refactorize(); err != nil {
		return nil, err
	}
	return sx.phases(true)
}

// phases runs phase 1 (unless the caller established a primal-feasible
// basis already), pins the artificials, runs phase 2, and assembles the
// solution.
func (sx *simplex) phases(runPhase1 bool) (*Solution, error) {
	if runPhase1 {
		// Phase 1: minimise the sum of artificials.
		if sx.phase1Cost == nil {
			sx.phase1Cost = zeroed(sx.phase1Buf, sx.nTot)
			sx.phase1Buf = sx.phase1Cost
			for i := 0; i < sx.nRow; i++ {
				sx.phase1Cost[sx.nStr+sx.nRow+i] = 1
			}
		}
		start := sx.iters
		st, err := sx.iterate(sx.phase1Cost, true)
		sx.phase1Iters = sx.iters - start
		if err != nil {
			return nil, err
		}
		if st == StatusIterLimit {
			return sx.fill(StatusIterLimit), nil
		}
		if sx.artificialSum() > feasTol*10 {
			return sx.fill(StatusInfeasible), nil
		}
	}
	// Pin artificials to zero for phase 2. (On a warm start that skipped
	// phase 1 the artificials were never installed: empty columns, already
	// at zero — the pin is then a no-op that keeps them retired.)
	for i := 0; i < sx.nRow; i++ {
		a := sx.nStr + sx.nRow + i
		sx.ub[a] = 0
		if sx.status[a] != basic {
			sx.x[a], sx.status[a] = 0, atLower
		}
	}

	// Phase 2: minimise the true cost.
	st, err := sx.iterate(sx.cost, false)
	if err != nil {
		return nil, err
	}
	sol := sx.fill(st)
	sol.Objective = sx.m.ObjValue(sol.X)
	return sol, nil
}

// fill writes the solve's outcome into sx.dst and returns it: the status,
// the pivot count, the warm-start record and X, and at StatusOptimal the
// duals, certificate and basis of the final basis. X, Duals and Basis reuse
// what dst holds; every other field is set afresh (Objective to 0, which
// phases overwrites where the solve reached the end of phase 2). A simplex
// solving outside SolveInto fills a new Solution.
func (sx *simplex) fill(st Status) *Solution {
	if sx.dst == nil {
		sx.dst = new(Solution)
	}
	sol := sx.dst
	sol.Status, sol.Objective, sol.Iterations = st, 0, sx.iters
	sol.X = sx.extract(sol.X)
	sol.Warm, sol.Health = sx.warm, nil
	if st != StatusOptimal {
		sol.Duals, sol.Cert, sol.Basis = nil, nil, nil
		return sol
	}
	sx.finalDuals()
	sol.Duals = sx.duals(sol.Duals)
	sol.Cert = sx.certificate()
	sx.cert = sol.Cert
	sol.Basis = sx.exportBasis(sol.Basis)
	return sol
}

// exportBasis snapshots the final basis in portable form into b (a new
// Basis when b is nil) and returns it. A basic artificial (possible after a
// degenerate phase 1) sits at numerical zero and its column is a ± unit
// column of its row — structurally the row's slack — so it is exported as
// slack-basic and the importer rebuilds an equivalent basis.
func (sx *simplex) exportBasis(b *Basis) *Basis {
	if b == nil {
		b = new(Basis)
	}
	b.VarStatus = zeroed(b.VarStatus, sx.nStr)
	b.RowStatus = zeroed(b.RowStatus, sx.nRow)
	for j := 0; j < sx.nStr; j++ {
		b.VarStatus[j] = exportStatus(sx.status[j])
	}
	for i := 0; i < sx.nRow; i++ {
		b.RowStatus[i] = exportStatus(sx.status[sx.nStr+i])
	}
	for i := 0; i < sx.nRow; i++ {
		if sx.status[sx.nStr+sx.nRow+i] == basic {
			b.RowStatus[i] = BasisBasic
		}
	}
	return b
}

// finalDuals computes y = B^-T c_B of the final basis into sx.y (pooled
// scratch: the pivot loop has finished), in the internal minimisation
// sense, for duals and certificate to read: one BTRAN per optimal solve.
func (sx *simplex) finalDuals() {
	cb := sx.cb
	for pos, j := range sx.basisOf {
		cb[pos] = sx.cost[j]
	}
	sx.btran(cb, sx.y)
}

// duals writes the shadow prices finalDuals left in sx.y into y, resized,
// converted to the model's own optimisation sense.
func (sx *simplex) duals(y []float64) []float64 {
	y = zeroed(y, sx.nRow)
	copy(y, sx.y)
	if sx.m.maximize {
		for i := range y {
			y[i] = -y[i]
		}
	}
	return y
}

// artificialSum sums |x| over the artificials in index order. In the pivot
// loop it visits only those arts holds: the others are exact zeros, which
// cannot change the sum.
func (sx *simplex) artificialSum() float64 {
	s := 0.0
	a0 := sx.nStr + sx.nRow
	if !sx.loop {
		for i := 0; i < sx.nRow; i++ {
			s += math.Abs(sx.x[a0+i])
		}
		return s
	}
	for w, b := range sx.arts {
		for ; b != 0; b &= b - 1 {
			s += math.Abs(sx.x[a0+w<<6+bits.TrailingZeros64(b)])
		}
	}
	return s
}

// noteArt keeps arts up to date for variable j after a pivot has moved it:
// an artificial's bit is set while it is basic or off zero.
func (sx *simplex) noteArt(j int) {
	i := j - sx.nStr - sx.nRow
	if i < 0 {
		return
	}
	if sx.status[j] == basic || sx.x[j] != 0 {
		sx.arts[i>>6] |= 1 << (i & 63)
	} else {
		sx.arts[i>>6] &^= 1 << (i & 63)
	}
}

// extract writes the structural values into out, resized, each snapped to
// zero when tiny and clamped to its bounds.
func (sx *simplex) extract(out []float64) []float64 {
	out = zeroed(out, sx.nStr)
	copy(out, sx.x[:sx.nStr])
	for j := range out {
		if math.Abs(out[j]) < 1e-11 {
			out[j] = 0
		}
		if lb := sx.m.lb[j]; out[j] < lb {
			out[j] = lb
		}
		if ub := sx.m.ub[j]; out[j] > ub {
			out[j] = ub
		}
	}
	return out
}

// refactorize rebuilds the LU factors of the current basis and recomputes
// basic variable values from the nonbasic ones.
func (sx *simplex) refactorize() error {
	for i, j := range sx.basisOf {
		sx.basisCols[i] = sx.cols[j]
	}
	if _, err := sx.lu.factor(sx.basisCols, false); err != nil {
		return err
	}
	sx.refactors++
	sx.clearEtas()
	sx.recomputeBasics()
	return nil
}

// clearEtas empties the eta file, keeping the arena's backing arrays.
func (sx *simplex) clearEtas() {
	sx.etas = sx.etas[:0]
	sx.etaIdx = sx.etaIdx[:0]
	sx.etaVal = sx.etaVal[:0]
}

// recomputeBasics solves for the basic variable values given nonbasic ones.
func (sx *simplex) recomputeBasics() {
	rhs := sx.rhs
	copy(rhs, sx.b)
	for j := 0; j < sx.nTot; j++ {
		if sx.status[j] == basic {
			continue
		}
		if v := sx.x[j]; v != 0 {
			c := &sx.cols[j]
			for i, r := range c.rows {
				rhs[r] -= float64(c.vals[i] * v)
			}
		}
	}
	xb := sx.accum
	sx.ftran(rhs, xb)
	for pos, j := range sx.basisOf {
		sx.x[j] = xb[pos]
	}
}

// ftran computes v = B⁻¹ in (in is clobbered; out indexed by basis position).
func (sx *simplex) ftran(in, out []float64) {
	sx.lu.solve(in, out)
	sx.ftranEtas(out, nil)
}

// ftranEtas applies the eta file to out. With a pattern, every position it
// makes nonzero that mark does not hold for this epoch is added.
func (sx *simplex) ftranEtas(out []float64, pattern []int32) []int32 {
	for k := range sx.etas {
		e := &sx.etas[k]
		t := out[e.pos] / e.piv
		if t != 0 {
			val := sx.etaVal[e.lo:e.hi]
			for p, i := range sx.etaIdx[e.lo:e.hi] {
				out[i] -= float64(val[p] * t)
			}
			if pattern != nil {
				pattern = sx.marked(pattern, int32(e.pos))
				for _, i := range sx.etaIdx[e.lo:e.hi] {
					pattern = sx.marked(pattern, i)
				}
			}
		}
		out[e.pos] = t
	}
	return pattern
}

// ftranEntering computes d = B⁻¹ a_enter, and in the pivot loop d's
// pattern: the positions of the U steps the solve ran and those the etas
// fill, ascending, unless there are more than nRow/reachShare of them, as in
// a full-length pass, when every pass over d runs over all rows.
func (sx *simplex) ftranEntering(enter int) {
	w := sx.w
	ec := &sx.cols[enter]
	if !sx.loop {
		clear(w)
	}
	for i, r := range ec.rows {
		w[r] += ec.vals[i]
	}
	sx.dIdx, sx.dFull = sx.ftranAt(sx.d, sx.dIdx, sx.dFull, ec.rows)
}

// ftranAt computes out = B⁻¹ w for a w that is zero outside the rows at
// lists, each once, and returns out's new pattern and full flag given its
// old ones (ftranEntering's rule). In the pivot loop w is zero on return;
// outside it, w is clobbered and the pattern is left as it was.
func (sx *simplex) ftranAt(out []float64, idx []int32, full bool, at []int32) ([]int32, bool) {
	w := sx.w
	if !sx.loop {
		sx.ftran(w, out)
		return idx, full
	}
	if full {
		clear(out)
	} else {
		for _, p := range idx {
			out[p] = 0
		}
	}
	f := sx.lu
	us := f.solveAt(w, out, at)
	if len(us) == f.n {
		clear(w)
		sx.ftranEtas(out, nil)
		return idx, true
	}
	sx.nextEpoch()
	pattern := idx[:0]
	for _, k := range us {
		w[f.rowOfPivot[k]] = 0
		pattern = sx.marked(pattern, int32(f.colOrder[k]))
	}
	pattern = sx.ftranEtas(out, pattern)
	if full = len(pattern) > sx.nRow/reachShare; !full {
		f.ascending(pattern)
	}
	return pattern, full
}

// btran computes y = B⁻ᵀ c (c indexed by basis position; out by row).
func (sx *simplex) btran(c, out []float64) {
	tmp := sx.accum
	copy(tmp, c)
	sx.btranEtas(tmp, nil)
	sx.lu.solveT(tmp, out)
	for i := range tmp {
		tmp[i] = 0
	}
}

// btranEtas applies the eta file, last to first, to tmp, adding the position
// each eta writes to at unless mark holds it for this epoch.
func (sx *simplex) btranEtas(tmp []float64, at []int32) []int32 {
	for k := len(sx.etas) - 1; k >= 0; k-- {
		e := &sx.etas[k]
		s := tmp[e.pos]
		val := sx.etaVal[e.lo:e.hi]
		for p, i := range sx.etaIdx[e.lo:e.hi] {
			s -= float64(val[p] * tmp[i])
		}
		tmp[e.pos] = s / e.piv
		if at != nil {
			at = sx.marked(at, int32(e.pos))
		}
	}
	return at
}

// btranCB computes y = B⁻ᵀ c_B. In the pivot loop it starts from cb's
// nonzeros and the positions the etas write, and leaves y's pattern in yIdx
// and the one before in yPrev, unless cb has more than nRow/reachShare
// nonzeros, which start a full-length pass anyway.
func (sx *simplex) btranCB(cost []float64) {
	cb, y := sx.cb, sx.y
	if !sx.loop {
		for pos, j := range sx.basisOf {
			cb[pos] = cost[j]
		}
	}
	if !sx.loop || len(sx.cbIdx) > sx.nRow/reachShare {
		sx.btran(cb, y)
		sx.yPrevFull, sx.yFull = sx.yFull, true
		return
	}
	if sx.yFull {
		clear(y)
	} else {
		for _, r := range sx.yIdx {
			y[r] = 0
		}
	}
	sx.yPrev, sx.yIdx, sx.yPrevFull = sx.yIdx, sx.yPrev[:0], sx.yFull
	sx.nextEpoch()
	at := sx.btAt[:0]
	for _, p := range sx.cbIdx {
		sx.bt[p] = cb[p]
		at = sx.marked(at, p)
	}
	at = sx.btranEtas(sx.bt, at)
	f := sx.lu
	ls := f.solveTAt(sx.bt, y, at)
	for _, p := range at {
		sx.bt[p] = 0
	}
	sx.btAt = at
	if sx.yFull = len(ls) == f.n; !sx.yFull {
		for _, t := range ls {
			sx.yIdx = append(sx.yIdx, int32(f.rowOfPivot[t]))
		}
	}
}

// nextEpoch starts a new round of mark.
func (sx *simplex) nextEpoch() {
	if sx.epoch++; sx.epoch == math.MaxInt32 {
		clear(sx.mark)
		sx.epoch = 1
	}
}

// marked appends i to list unless mark holds it for this epoch, and marks it.
func (sx *simplex) marked(list []int32, i int32) []int32 {
	if sx.mark[i] == sx.epoch {
		return list
	}
	sx.mark[i] = sx.epoch
	return append(list, i)
}

// setCB sets cb[pos], keeping cbIdx its nonzero positions.
func (sx *simplex) setCB(pos int, v float64) {
	sx.cb[pos] = v
	k := sx.cbAt[pos]
	switch {
	case v != 0 && k < 0:
		sx.cbAt[pos] = int32(len(sx.cbIdx))
		sx.cbIdx = append(sx.cbIdx, int32(pos))
	case v == 0 && k >= 0:
		last := sx.cbIdx[len(sx.cbIdx)-1]
		sx.cbIdx[k], sx.cbAt[last] = last, k
		sx.cbIdx = sx.cbIdx[:len(sx.cbIdx)-1]
		sx.cbAt[pos] = -1
	}
}

// startLoop sets the pivot loop's patterns up for cost: w, d and y zero, cb
// its basic costs, arts every artificial that is basic or off zero.
func (sx *simplex) startLoop(cost []float64) {
	sx.loop = !sx.dense
	if !sx.loop {
		return
	}
	clear(sx.w)
	clear(sx.d)
	clear(sx.y)
	sx.dIdx, sx.dFull = sx.dIdx[:0], false
	sx.yIdx, sx.yFull = sx.yIdx[:0], false
	sx.cbIdx = sx.cbIdx[:0]
	for pos, j := range sx.basisOf {
		sx.cbAt[pos] = -1
		sx.setCB(pos, cost[j])
	}
	clear(sx.arts)
	for a := sx.nStr + sx.nRow; a < sx.nTot; a++ {
		sx.noteArt(a)
	}
}

// iterate runs simplex pivots with the given cost vector until optimal,
// unbounded, or the iteration limit. phase1 permits early exit once the
// artificial sum is (numerically) zero.
//
// Pricing costs what changed. The first BTRAN prices every column of the
// entering scan; each later one re-prices the columns with an entry in a row
// whose y differs from the remembered one, by the same dot product, so every
// dj is the float a full pass would compute from the current y. Nothing
// survives the call: the cost vector and the pinned set change between
// phases.
//
// So do the passes of a pivot, over the patterns startLoop sets up: each
// does the arithmetic of its loop over all rows, in the same order, less the
// terms that are exact zeros.
func (sx *simplex) iterate(cost []float64, phase1 bool) (Status, error) {
	sx.startLoop(cost)
	st, err := sx.pivots(cost, phase1)
	sx.loop = false
	return st, err
}

// pivots is iterate's loop.
func (sx *simplex) pivots(cost []float64, phase1 bool) (Status, error) {
	d := sx.d // entering column in basis coordinates
	// Phase 2 leaves the artificial range out of the scan: phases pins every
	// artificial at zero before it starts, so none could enter.
	scan := sx.nStr + sx.nRow
	if phase1 {
		scan = sx.nTot
	}
	priced := false
	for {
		if sx.iters >= sx.opt.MaxIter {
			return StatusIterLimit, nil
		}
		if phase1 && sx.artificialSum() <= feasTol {
			return StatusOptimal, nil
		}

		// Pricing: y = B⁻ᵀ c_B, reduced costs d_j = c_j − y·a_j.
		sx.btranCB(cost)
		if priced {
			sx.repriceMoved(cost, phase1)
		} else {
			for j := 0; j < scan; j++ {
				sx.reprice(cost, j)
			}
			copy(sx.yRef, sx.y)
			priced = true
		}

		useBland := sx.degenerate > 3*(sx.nRow+10)
		if useBland && sx.health != nil {
			sx.healthNoteCycling(phase1)
		}
		enter, dir := sx.pickEntering(scan, useBland)
		if sx.afterPricing != nil {
			sx.afterPricing(cost, phase1, enter, dir)
		}
		if enter < 0 {
			return StatusOptimal, nil
		}

		sx.ftranEntering(enter)
		if sx.beforePivot != nil {
			sx.beforePivot(enter, dir)
		}
		st, err := sx.pivot(enter, dir, d, phase1)
		if err != nil {
			return 0, err
		}
		if p := sx.posOf[enter]; p >= 0 && sx.loop {
			sx.setCB(p, cost[enter])
		}
		if st != statusContinue {
			if st == statusUnbounded {
				if phase1 {
					return 0, errors.New("lp: phase-1 unbounded (internal error)")
				}
				return StatusUnbounded, nil
			}
		}
		sx.iters++
		if sx.health != nil && sx.iters%sx.health.every == 0 {
			sx.healthProbe(cost, phase1)
		}
		if len(sx.etas) >= refactorEvery {
			if err := sx.refactorize(); err != nil {
				return 0, err
			}
		}
	}
}

// reprice recomputes column j's reduced cost d_j = c_j − y·a_j against sx.y
// and its entering score. One dot product serves all three column ranges: a
// slack's column is the unit column of its row, an artificial's ± that or,
// never installed, empty.
func (sx *simplex) reprice(cost []float64, j int) {
	dj := cost[j]
	c := &sx.cols[j]
	for i, r := range c.rows {
		dj -= float64(sx.y[r] * c.vals[i])
	}
	sx.dj[j] = dj
	sx.rescore(j)
	sx.repriced++
}

// rescore sets score[j] from dj[j] and j's status: zero for a basic column
// and for a pinned one (lb == ub: fixed variables, EQ slacks, retired
// artificials), which cannot enter.
func (sx *simplex) rescore(j int) {
	sx.dirty[j/scoreBlock] = true
	st := sx.status[j]
	if st == basic || (sx.lb[j] == sx.ub[j] && st != atFree) {
		sx.score[j] = 0
		return
	}
	sx.score[j], _ = enteringScore(st, sx.dj[j], optTol)
}

// repriceMoved brings the cache up to sx.y: every column with an entry in a
// row whose y differs from yRef's is re-priced, once, along with that row's
// slack and, in phase 1, its artificial. A NaN differs from itself, so the
// columns it touches are re-priced to NaN on every pivot, as a full pass
// would have them. In the pivot loop only the rows of y's pattern and of
// the y before can differ; it looks at those, each once, unless a
// full-length pass wrote either.
func (sx *simplex) repriceMoved(cost []float64, phase1 bool) {
	sx.colEpoch++
	if sx.colEpoch == math.MaxInt32 {
		clear(sx.colStamp)
		sx.colEpoch = 1
	}
	if !sx.loop || sx.yFull || sx.yPrevFull {
		for i := range sx.y {
			sx.repriceRow(cost, i, phase1)
		}
		return
	}
	sx.nextEpoch()
	for _, rows := range [2][]int32{sx.yPrev, sx.yIdx} {
		for _, r := range rows {
			if sx.mark[r] != sx.epoch {
				sx.mark[r] = sx.epoch
				sx.repriceRow(cost, int(r), phase1)
			}
		}
	}
}

// repriceRow is repriceMoved's step for row i.
func (sx *simplex) repriceRow(cost []float64, i int, phase1 bool) {
	yi := sx.y[i]
	if yi == sx.yRef[i] {
		return
	}
	sx.yRef[i] = yi
	for _, t := range sx.m.rows[i].terms {
		if j := int(t.Var); sx.colStamp[j] != sx.colEpoch {
			sx.colStamp[j] = sx.colEpoch
			sx.reprice(cost, j)
		}
	}
	sx.reprice(cost, sx.nStr+i)
	if phase1 {
		sx.reprice(cost, sx.nStr+sx.nRow+i)
	}
}

// scoreBlock is the width of the entering choice's blocks of scores.
const scoreBlock = 64

// pickEntering selects the entering variable among the first scan columns and
// its direction (+1 increase from lower bound / free, −1 decrease from upper
// bound): the first largest score — Dantzig's rule, ties to the lowest index
// — or, when anti-cycling is engaged, Bland's first positive one. It reads
// the block maxima in index order with the full scan's strict >, after
// recomputing the blocks whose scores moved, so its pick is the full scan's:
// the first block holding the largest score holds its first column, and the
// first block with a positive maximum holds the first positive score.
func (sx *simplex) pickEntering(scan int, bland bool) (int, float64) {
	if scan != sx.blockScan {
		sx.blockScan = scan
		for b := range sx.dirty {
			sx.dirty[b] = true
		}
	}
	best, bestScore := -1, 0.0
	for b, lo := 0, 0; lo < scan; b, lo = b+1, lo+scoreBlock {
		if sx.dirty[b] {
			sx.rescanBlock(b, lo, min(lo+scoreBlock, scan))
		}
		sx.scanCols++
		if s := sx.blockMax[b]; s > bestScore {
			best, bestScore = int(sx.blockArg[b]), s
			if bland {
				best = sx.firstPositive(lo, best)
				break
			}
		}
	}
	if best >= 0 && sx.dj[best] > 0 {
		return best, -1
	}
	return best, 1
}

// rescanBlock recomputes block b, the scores of columns [lo, hi).
func (sx *simplex) rescanBlock(b, lo, hi int) {
	arg, bestScore := int32(-1), 0.0
	for j, s := range sx.score[lo:hi] {
		if s > bestScore {
			arg, bestScore = int32(lo+j), s
		}
	}
	sx.blockMax[b], sx.blockArg[b], sx.dirty[b] = bestScore, arg, false
	sx.scanCols += hi - lo
}

// firstPositive is the first column of [lo, upTo] with a positive score:
// upTo's, the block's first largest, unless one comes before it.
func (sx *simplex) firstPositive(lo, upTo int) int {
	for j := lo; j < upTo; j++ {
		sx.scanCols++
		if sx.score[j] > 0 {
			return j
		}
	}
	return upTo
}

// enteringScore rates a nonbasic variable with status st and reduced cost dj
// as an entering candidate: the size of its dual infeasibility and the
// direction it would move, or score 0 when dj is within tol of optimal.
func enteringScore(st int8, dj, tol float64) (score, dir float64) {
	switch {
	case st == atLower && dj < -tol:
		return -dj, 1
	case st == atUpper && dj > tol:
		return dj, -1
	case st == atFree && dj > tol:
		return dj, -1
	case st == atFree && dj < -tol:
		return -dj, 1
	}
	return 0, 0
}

const (
	statusContinue Status = 100 + iota
	statusUnbounded
	statusStalled // the dual simplex gave up: a degenerate run or no safe pivot
)

// dPos lists the positions at which d may be nonzero, ascending: its pattern
// in the pivot loop, unless a full-length pass wrote it, and all of them
// otherwise.
func (sx *simplex) dPos() []int32 {
	if sx.loop && !sx.dFull {
		return sx.dIdx
	}
	return sx.lu.all
}

// pivot performs the ratio test and updates the basis. d is the entering
// column in basis coordinates (B⁻¹ a_enter). Every pass over d runs over
// dPos in ascending order, so ties break as they would over all rows.
func (sx *simplex) pivot(enter int, dir float64, d []float64, phase1 bool) (Status, error) {
	ftol := feasTol
	at := sx.dPos()
	sx.ratioRows += len(at)
	// Bound-flip limit from the entering variable's own range.
	limit := Inf
	if lb, ub := sx.lb[enter], sx.ub[enter]; !math.IsInf(lb, -1) && !math.IsInf(ub, 1) {
		limit = ub - lb
	}
	leave, leaveT, leaveDirUp := -1, limit, false
	pivAbs := 0.0
	for _, p := range at {
		pos := int(p)
		w := dir * d[pos]
		if math.Abs(w) < 1e-9 {
			continue
		}
		jb := sx.basisOf[pos]
		xv := sx.x[jb]
		var t float64
		var hitUpper bool
		if w > 0 { // basic variable decreases toward its lower bound
			lb := sx.lb[jb]
			if math.IsInf(lb, -1) {
				continue
			}
			t = (xv - lb) / w
			hitUpper = false
		} else { // basic variable increases toward its upper bound
			ub := sx.ub[jb]
			if math.IsInf(ub, 1) {
				continue
			}
			t = (xv - ub) / w
			hitUpper = true
		}
		if t < -ftol {
			t = 0
		}
		if t < leaveT-1e-12 || (t < leaveT+1e-12 && math.Abs(d[pos]) > pivAbs) {
			leave, leaveT, leaveDirUp = pos, math.Max(t, 0), hitUpper
			pivAbs = math.Abs(d[pos])
		}
	}

	if leave < 0 {
		if math.IsInf(limit, 1) {
			return statusUnbounded, nil
		}
		// Bound flip: entering variable moves across its whole range.
		sx.applyStep(enter, dir, limit, d)
		if sx.status[enter] == atLower {
			sx.status[enter] = atUpper
		} else {
			sx.status[enter] = atLower
		}
		if sx.loop {
			sx.noteArt(enter)
		}
		sx.rescore(enter)
		sx.degenerate = 0
		return statusContinue, nil
	}

	if leaveT <= 1e-10 {
		sx.degenerate++
		sx.degenTotal++
	} else {
		sx.degenerate = 0
	}

	// Guard against a numerically tiny pivot element.
	if math.Abs(d[leave]) < 1e-8 {
		if len(sx.etas) > 0 {
			if err := sx.refactorize(); err != nil {
				return 0, err
			}
			return statusContinue, nil // retry with fresh factors
		}
	}

	sx.applyStep(enter, dir, leaveT, d)

	jout := sx.basisOf[leave]
	if leaveDirUp {
		sx.status[jout] = atUpper
		sx.x[jout] = sx.ub[jout]
	} else {
		sx.status[jout] = atLower
		sx.x[jout] = sx.lb[jout]
	}
	sx.posOf[jout] = -1

	sx.basisOf[leave] = enter
	sx.posOf[enter] = leave
	sx.status[enter] = basic
	sx.rescore(jout)
	sx.rescore(enter)
	if sx.loop {
		sx.noteArt(jout)
		sx.noteArt(enter)
	}

	sx.appendEta(leave, at)
	return statusContinue, nil
}

// appendEta records the eta of a pivot at basis position leave: the nonzeros
// of d other than the pivot entry, over the positions at lists, appended to
// the arena.
func (sx *simplex) appendEta(leave int, at []int32) {
	d := sx.d
	lo := len(sx.etaIdx)
	for _, i := range at {
		if v := d[i]; v != 0 && int(i) != leave {
			sx.etaIdx = append(sx.etaIdx, i)
			sx.etaVal = append(sx.etaVal, v)
		}
	}
	sx.etas = append(sx.etas, eta{pos: leave, piv: d[leave], lo: lo, hi: len(sx.etaIdx)})
	if len(sx.etas) > sx.maxEtaDepth {
		sx.maxEtaDepth = len(sx.etas)
	}
}

// applyStep moves the entering variable by dir*t and updates basic values.
func (sx *simplex) applyStep(enter int, dir, t float64, d []float64) {
	if t == 0 {
		return
	}
	sx.x[enter] += float64(dir * t)
	for _, pos := range sx.dPos() {
		if d[pos] != 0 {
			jb := sx.basisOf[pos]
			sx.x[jb] -= float64(dir * t * d[pos])
		}
	}
}
