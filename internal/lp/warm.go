package lp

import (
	"fmt"
	"math"
)

// BasisStatus is the exported status of one variable (or one row's slack)
// in a simplex basis.
type BasisStatus int8

// Basis statuses. Nonbasic variables sit at the named bound (free
// variables at zero); basic variables are solved from the constraints.
const (
	BasisAtLower BasisStatus = iota
	BasisAtUpper
	BasisFree
	BasisBasic
)

// Basis is a portable snapshot of a simplex basis: one status per
// structural variable plus one status per row (the status of the row's
// slack). It is exported on every optimal Solution and can seed a later
// solve of the same — or a structurally related — model via
// SolveWithBasis.
//
// A Basis is deliberately tolerant of model growth: a model with more
// variables or rows than the basis describes gets the missing entries
// defaulted (new variables nonbasic at their natural bound, new rows
// slack-basic). This is what lets a column-generation master re-solve from
// the basis it had before its columns and rows were appended. It makes a
// basis installable on a related model, not a good start for it: te.Arrow
// used to seed Table 3's LP from the Table 2 master's basis cut down to
// their shared rows, and that start, primal infeasible for the new rows,
// took as many pivots as a cold solve where the all-slack basis takes a
// sixth (see te.ArrowPhase2).
type Basis struct {
	// VarStatus[j] is the status of structural variable j.
	VarStatus []BasisStatus
	// RowStatus[i] is the status of row i's slack variable. BasisBasic
	// means the row is inactive at the basic point (its slack is in the
	// basis).
	RowStatus []BasisStatus
}

// Clone returns a deep copy of the basis.
func (b *Basis) Clone() *Basis {
	if b == nil {
		return nil
	}
	return &Basis{
		VarStatus: append([]BasisStatus(nil), b.VarStatus...),
		RowStatus: append([]BasisStatus(nil), b.RowStatus...),
	}
}

// ExtendTo grows the basis in place to cover every variable and row of m,
// making the simplex's implicit growth-padding protocol explicit: variables
// beyond the basis enter NONBASIC at their natural starting bound and rows
// beyond it enter slack-basic. Extending never touches existing statuses,
// so a basis exported from an optimal solve stays optimal-adjacent after
// appending columns via Model.AddVarToConstrs — exactly what a column
// generation loop needs between master re-solves. ExtendTo panics if the
// basis is LARGER than the model (use the truncation idiom for shrinking,
// mirroring Model.TruncateConstrs).
func (b *Basis) ExtendTo(m *Model) {
	if len(b.VarStatus) > m.NumVars() || len(b.RowStatus) > m.NumConstrs() {
		panic(fmt.Sprintf("lp: ExtendTo shrinking basis (%d vars, %d rows) to model (%d vars, %d rows)",
			len(b.VarStatus), len(b.RowStatus), m.NumVars(), m.NumConstrs()))
	}
	for j := len(b.VarStatus); j < m.NumVars(); j++ {
		_, st := initialValue(m.lb[j], m.ub[j])
		b.VarStatus = append(b.VarStatus, exportStatus(st))
	}
	for i := len(b.RowStatus); i < m.NumConstrs(); i++ {
		b.RowStatus = append(b.RowStatus, BasisBasic)
	}
}

// WarmInfo reports what the warm-start machinery did during one solve.
// It is attached to the Solution of every SolveWithBasis call.
type WarmInfo struct {
	// Accepted reports whether the solve actually started from the
	// supplied basis (possibly after repairs). False means the basis was
	// unrepairable or its projected point too infeasible, and the solve
	// fell back to a cold start.
	Accepted bool
	// Repairs counts patched basis defects: statuses referencing a
	// nonexistent bound, a basis with the wrong number of basic columns,
	// and linearly dependent columns replaced by slacks during
	// factorisation. Padding for model growth (new variables or rows) is
	// expected protocol, not a defect, and is not counted.
	Repairs int
	// Phase1Skipped reports that the warm point was primal feasible and
	// phase 1 was skipped entirely.
	Phase1Skipped bool
	// Dual reports that the warm point was primal infeasible but the basis
	// dual feasible, so the dual simplex restored feasibility in place of a
	// phase 1 (or proved the model infeasible, or ran out of MaxIter). A
	// dual run given up on — a degenerate stall or a pivot too small on
	// fresh factors — hands its basis to the repairs and leaves Dual false;
	// its pivots still count in lp.dual_pivots.
	Dual bool
	// PivotsSaved is a deterministic, hardware-independent estimate of the
	// phase-1 work avoided: the number of artificials a cold start of this
	// model would have installed at a nonzero residual, minus the number
	// the warm start still needed. Each such artificial costs a cold
	// phase 1 at least one pivot to drive out.
	PivotsSaved int
}

// exportStatus maps an internal simplex status to the exported form.
func exportStatus(st int8) BasisStatus {
	switch st {
	case atUpper:
		return BasisAtUpper
	case atFree:
		return BasisFree
	case basic:
		return BasisBasic
	default:
		return BasisAtLower
	}
}

// SlackBasis returns the all-slack basis of m: every structural variable
// nonbasic at its natural starting bound, every row's slack basic. For
// models whose rows are all satisfiable at that starting point — e.g. the
// RWA assignment LP and the TE base models, where every row is `<=` with a
// nonnegative right-hand side and every variable starts at zero — this
// basis is primal feasible, so SolveWithBasis skips phase 1 outright.
//
// SlackBasis depends only on the model, never on sibling solves, which
// makes it a deterministic warm-start source: results cannot vary with
// worker scheduling.
func SlackBasis(m *Model) *Basis {
	b := new(Basis)
	b.ResetSlack(m)
	return b
}

// ResetSlack makes b the SlackBasis of m, reusing its backing arrays.
func (b *Basis) ResetSlack(m *Model) {
	b.VarStatus = zeroed(b.VarStatus, m.NumVars())
	b.RowStatus = zeroed(b.RowStatus, m.NumConstrs())
	for j := range b.VarStatus {
		_, st := initialValue(m.lb[j], m.ub[j])
		b.VarStatus[j] = exportStatus(st)
	}
	for i := range b.RowStatus {
		b.RowStatus[i] = BasisBasic
	}
}

// SolveWithBasis solves m starting from the given basis. The basis is
// validated and repaired as needed (statuses that reference a nonexistent
// bound are bound-shifted, size mismatches are balanced with slacks, and
// linearly dependent basis columns are patched with slacks of unpivoted
// rows during factorisation). If the repaired basic point is primal
// feasible, phase 1 is skipped. Otherwise, if the basis is dual feasible
// within optTol, the bounded dual simplex restores primal feasibility
// before phase 2 (WarmInfo.Dual); else the warm basics are repaired (see
// swapInfeasibleSlacks) or bound-shifted onto the projected warm point and
// a reduced phase 1 runs, where only the rows the projected point violates
// carry active artificials. An unrepairable basis falls back to a full
// cold start.
//
// A nil basis is a plain cold Solve. Warm and cold solves of the same
// model agree on the optimal objective (within solver tolerance) but may
// return different vertices when the optimum is degenerate.
//
// The supplied basis is never mutated: repairs happen on the solver's own
// copy of the statuses, so one captured basis can seed any number of
// re-solves (the attribution pass re-solves a perturbed-RHS model dozens of
// times from the same final phase-II basis).
func SolveWithBasis(m *Model, basis *Basis, opts *Options) (*Solution, error) {
	return SolveInto(new(Solution), m, basis, opts)
}

// solveWarm runs one warm-started solve: install + repair the basis, skip
// phase 1 when the basic point is feasible, take the dual simplex when the
// basis prices out, otherwise run the reduced phase 1 from the repaired or
// projected warm point.
func (sx *simplex) solveWarm(wb *Basis) (*Solution, error) {
	wi := &WarmInfo{}
	sx.warm = wi
	coldArts := sx.countColdArtificials()
	if !sx.installWarmBasis(wb, wi) || !sx.warmFactorize(wi) {
		return sx.warmFallbackCold(wi)
	}
	wi.Accepted = true
	if sx.maxBasicViolation() <= feasTol*10 {
		// The warm basic point is feasible: go straight to phase 2.
		wi.Phase1Skipped = true
		wi.PivotsSaved = coldArts
		return sx.phases(false)
	}
	// A basis that prices out — every reduced cost has the sign optimality
	// wants — is optimal for the part of the model that was there before:
	// the dual simplex keeps it so and pivots the violations out. It hands a
	// run it gives up on to the repairs below, from its basis.
	if sx.dualPrices(sx.cost) {
		st, err := sx.dual()
		switch {
		case err != nil:
			return nil, err
		case st != statusStalled:
			wi.Dual, wi.PivotsSaved = true, coldArts
			if st == StatusOptimal {
				return sx.phases(false)
			}
			return sx.fill(st), nil
		}
	}
	// Selective repair: when every out-of-bound basic is a row slack — the
	// signature of a model that grew by appended rows violated at the warm
	// vertex, here with a basis that does not price out (TeaVaR's slack
	// start) or one the dual simplex stalled on — each such slack is
	// swapped for its row's artificial and the REST of the warm basis (and
	// the warm vertex) survives intact. Phase 1 then only has to drive out
	// those few artificials instead of re-deriving the whole vertex from the
	// projected point below.
	if sx.swapInfeasibleSlacks() {
		if err := sx.refactorize(); err != nil {
			return nil, err
		}
		sol, err := sx.phases(true)
		if coldArts > sx.startingArts {
			wi.PivotsSaved = coldArts - sx.startingArts
		}
		return sol, err
	}
	// Reduced phase 1: bound-shift the warm basics onto the projected warm
	// point and let artificials absorb the (small) residual. Rows the
	// projected point already satisfies get a zero-valued artificial that
	// phase 1 never needs to pivot out.
	for pos := 0; pos < sx.nRow; pos++ {
		j := sx.basisOf[pos]
		sx.x[j], sx.status[j] = nearestBound(sx.lb[j], sx.ub[j], sx.x[j])
		sx.posOf[j] = -1
	}
	sx.clearEtas()
	sol, err := sx.solveFromPoint()
	if warmArts := sx.startingArts; coldArts > warmArts {
		wi.PivotsSaved = coldArts - warmArts
	}
	return sol, err
}

// nearestBound projects v onto the variable's own range and returns the
// matching nonbasic status (free variables go to zero).
func nearestBound(lb, ub, v float64) (float64, int8) {
	switch {
	case math.IsInf(lb, -1) && math.IsInf(ub, 1):
		return 0, atFree
	case math.IsInf(lb, -1):
		return ub, atUpper
	case math.IsInf(ub, 1):
		return lb, atLower
	case math.Abs(v-lb) <= math.Abs(ub-v):
		return lb, atLower
	default:
		return ub, atUpper
	}
}

// warmNonbasic resolves a requested nonbasic status against the variable's
// actual bounds, repairing statuses that reference a nonexistent bound.
func warmNonbasic(lb, ub float64, want BasisStatus) (v float64, st int8, repaired bool) {
	switch want {
	case BasisAtLower:
		if math.IsInf(lb, -1) {
			v, st = initialValue(lb, ub)
			return v, st, true
		}
		return lb, atLower, false
	case BasisAtUpper:
		if math.IsInf(ub, 1) {
			v, st = initialValue(lb, ub)
			return v, st, true
		}
		return ub, atUpper, false
	default: // BasisFree
		if math.IsInf(lb, -1) && math.IsInf(ub, 1) {
			return 0, atFree, false
		}
		v, st = initialValue(lb, ub)
		return v, st, true
	}
}

// installWarmBasis applies the basis statuses to the computational form,
// balancing the basic-column count to exactly nRow (demoting surplus
// basics, promoting slacks to fill a deficit). Artificials stay retired:
// pinned at zero with empty columns. Reports false only when no square
// basis could be assembled.
func (sx *simplex) installWarmBasis(wb *Basis, wi *WarmInfo) bool {
	cand := sx.cand[:0]
	for j := 0; j < sx.nStr; j++ {
		want := BasisAtLower
		if j < len(wb.VarStatus) {
			want = wb.VarStatus[j]
		} else {
			// New variable the basis predates: natural starting bound.
			sx.x[j], sx.status[j] = initialValue(sx.lb[j], sx.ub[j])
			continue
		}
		if want == BasisBasic {
			sx.status[j] = basic
			cand = append(cand, j)
			continue
		}
		v, st, rep := warmNonbasic(sx.lb[j], sx.ub[j], want)
		if sx.lb[j] == sx.ub[j] {
			// Pinned variable: any nonbasic status is equivalent.
			v, st, rep = sx.lb[j], atLower, false
		}
		if rep {
			wi.Repairs++
		}
		sx.x[j], sx.status[j] = v, st
	}
	for i := 0; i < sx.nRow; i++ {
		s := sx.nStr + i
		want := BasisBasic // new rows the basis predates: slack-basic
		if i < len(wb.RowStatus) {
			want = wb.RowStatus[i]
		}
		if want == BasisBasic {
			sx.status[s] = basic
			cand = append(cand, s)
			continue
		}
		v, st, rep := warmNonbasic(sx.lb[s], sx.ub[s], want)
		if sx.lb[s] == sx.ub[s] {
			v, st, rep = sx.lb[s], atLower, false
		}
		if rep {
			wi.Repairs++
		}
		sx.x[s], sx.status[s] = v, st
	}
	// Artificials: retired from the start (installed lazily only if the
	// reduced phase 1 needs them).
	for i := 0; i < sx.nRow; i++ {
		a := sx.nStr + sx.nRow + i
		sx.x[a], sx.status[a] = 0, atLower
	}

	// Balance to a square basis. Surplus basics are demoted from the
	// highest variable index down (slacks before structurals, matching how
	// cold starts prefer structural columns); deficits are filled with
	// nonbasic slacks in ascending row order. Both choices are
	// deterministic functions of the model and basis alone.
	if len(cand) > sx.nRow {
		for _, j := range cand[sx.nRow:] {
			sx.x[j], sx.status[j] = initialValue(sx.lb[j], sx.ub[j])
			wi.Repairs++
		}
		cand = cand[:sx.nRow]
	}
	for i := 0; i < sx.nRow && len(cand) < sx.nRow; i++ {
		s := sx.nStr + i
		if sx.status[s] != basic {
			sx.status[s] = basic
			cand = append(cand, s)
			wi.Repairs++
		}
	}
	sx.cand = cand[:0] // keep whatever it grew to
	if len(cand) != sx.nRow {
		return false
	}
	for pos, j := range cand {
		sx.basisOf[pos] = j
		sx.posOf[j] = pos
	}
	return true
}

// warmFactorize factorises the warm basis with singularity repair: basis
// positions whose column is linearly dependent are patched with the slack
// of a row no other basis column pivots (a slack column is exactly the
// unit column the repair substituted, so the returned factors describe the
// patched basis exactly). Reports false when the basis cannot be made
// nonsingular this way.
func (sx *simplex) warmFactorize(wi *WarmInfo) bool {
	for i, j := range sx.basisOf {
		sx.basisCols[i] = sx.cols[j]
	}
	patched, err := sx.lu.factor(sx.basisCols, true)
	if err != nil {
		return false
	}
	// Demote every replaced variable first, then install the slacks: a
	// replaced variable may itself be the slack another patch installs.
	for _, p := range patched {
		jold := sx.basisOf[p.pos]
		sx.x[jold], sx.status[jold] = initialValue(sx.lb[jold], sx.ub[jold])
		sx.posOf[jold] = -1
		sx.basisOf[p.pos] = -1
	}
	for _, p := range patched {
		s := sx.nStr + p.row
		if sx.status[s] == basic {
			return false // slack already occupies an unpatched position
		}
		sx.basisOf[p.pos] = s
		sx.posOf[s] = p.pos
		sx.status[s] = basic
		wi.Repairs++
	}
	sx.refactors++
	sx.clearEtas()
	sx.recomputeBasics()
	return true
}

// maxBasicViolation returns the worst bound violation over the basic
// variables (nonbasic variables sit exactly on a bound by construction).
func (sx *simplex) maxBasicViolation() float64 {
	worst := 0.0
	for _, j := range sx.basisOf {
		if v := sx.lb[j] - sx.x[j]; v > worst {
			worst = v
		}
		if v := sx.x[j] - sx.ub[j]; v > worst {
			worst = v
		}
	}
	return worst
}

// countColdArtificials computes, without disturbing solver state, how many
// artificials a cold start of this model would install at a nonzero
// residual — the baseline for the pivots_saved estimate.
func (sx *simplex) countColdArtificials() int {
	res := sx.rhs // free until the first refactorisation
	copy(res, sx.b)
	for j := 0; j < sx.nStr+sx.nRow; j++ {
		if v, _ := initialValue(sx.lb[j], sx.ub[j]); v != 0 {
			c := &sx.cols[j]
			for i, r := range c.rows {
				res[r] -= float64(c.vals[i] * v)
			}
		}
	}
	n := 0
	for _, r := range res {
		if math.Abs(r) > feasTol {
			n++
		}
	}
	return n
}

// swapInfeasibleSlacks is the in-place warm repair: every basic variable
// outside its bounds that is a row slack is replaced in the basis by that
// row's artificial, installed with the sign and value that absorb exactly
// the row's residual once the slack retreats to its nearest bound. A slack
// column and its artificial are both ± unit columns of the same row, so
// the swap preserves basis nonsingularity and every other basic variable
// keeps its warm value. Reports false — touching nothing — if some
// out-of-bound basic is a structural variable, in which case the caller
// falls back to the projection repair. That was the fate of the Table 2
// master's basis on Table 3's model: its new capacity rows push basic
// tunnel allocations, not slacks, out of bounds, the projection repaired
// some 250 statuses, and the reduced phase 1 that followed cost a cold
// solve's pivots, which is why te now starts that solve from the
// all-slack basis. A basis that still prices out never gets here: the dual
// simplex takes it first. What is left are bases dual infeasible too, such
// as TeaVaR's slack basis with its free θ pricing in.
func (sx *simplex) swapInfeasibleSlacks() bool {
	tol := feasTol * 10
	violated := func(j int) bool {
		return sx.x[j] < sx.lb[j]-tol || sx.x[j] > sx.ub[j]+tol
	}
	for _, j := range sx.basisOf {
		if violated(j) && (j < sx.nStr || j >= sx.nStr+sx.nRow) {
			return false
		}
	}
	sx.startingArts = 0
	for pos, j := range sx.basisOf {
		if !violated(j) {
			continue
		}
		i := j - sx.nStr // the slack's own row
		w, st := nearestBound(sx.lb[j], sx.ub[j], sx.x[j])
		resid := sx.x[j] - w
		a := sx.nStr + sx.nRow + i
		coef := 1.0
		if resid < 0 {
			coef = -1
		}
		sx.cols[a].add(i, coef)
		sx.lb[a], sx.ub[a] = 0, Inf
		sx.x[a] = math.Abs(resid)
		sx.status[a] = basic
		sx.basisOf[pos] = a
		sx.posOf[a] = pos
		sx.posOf[j] = -1
		sx.x[j], sx.status[j] = w, st
		sx.startingArts++
	}
	return true
}

// warmFallbackCold abandons an unrepairable warm basis and restarts cold,
// recording the warm_repair_fallback health anomaly when probes are on.
func (sx *simplex) warmFallbackCold(wi *WarmInfo) (*Solution, error) {
	if sx.health != nil {
		sx.health.note(AnomalyWarmRepairFallback, 0, 0, float64(wi.Repairs),
			"warm basis unrepairable; solve fell back to a cold start")
	}
	sx.resetForCold()
	return sx.solve()
}

// resetForCold rewinds a failed warm attempt so solve() starts from a
// pristine state: positions cleared, eta file emptied, artificial columns
// still untouched (a failed warm start never installs them).
func (sx *simplex) resetForCold() {
	for j := range sx.posOf {
		sx.posOf[j] = -1
	}
	sx.clearEtas()
}
