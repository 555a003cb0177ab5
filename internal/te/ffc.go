package te

import "github.com/arrow-te/arrow/internal/lp"

// FFC solves Forward Fault Correction [63] extended to fiber cuts as in §6:
// the allocation must guarantee b_f for every scenario in scs (typically all
// single or all single+double fiber-cut scenarios), using residual tunnels
// only. This is exactly ARROW's formulation with zero restorable capacity.
//
//	(4') forall f, q: sum_{t in T_f^q} a_{f,t} >= b_f
//
// Only the rows that say something are emitted: one per minimal residual
// set of each flow (see addResidualGuarantees) — equivalent but far smaller
// than the naive encoding.
func FFC(n *Network, scs []FailureScenario) (*Allocation, error) { return Baselines{}.FFC(n, scs) }

// FFC is the package-level FFC under bl's LP options: the one-scale chain
// of FFCScales, whose model at scale 1 is n's own.
func (bl Baselines) FFC(n *Network, scs []FailureScenario) (*Allocation, error) {
	als, err := bl.FFCScales(n, scs, []float64{1})
	if err != nil {
		return nil, err
	}
	return als[0], nil
}

// FFCScales solves FFC on base.Scaled(s) for every s of scales, in order,
// as one chain of warm re-solves of one model (scaleChain). With a = s·â
// and b = s·b̂, FFC at demand scale s is FFC at scale 1 with every capacity
// row's right-hand side c_e/s: the (1) and (4') rows, the bounds
// b̂_f <= d_f and the costs do not depend on s. The allocation is read back
// as s·â and s·b̂. Every scale must be positive and finite.
func (bl Baselines) FFCScales(base *Network, scs []FailureScenario, scales []float64) ([]*Allocation, error) {
	if err := base.Validate(); err != nil {
		return nil, err
	}
	if err := checkScales("ffc", scales); err != nil {
		return nil, err
	}
	bm := newBaseModel("ffc", base)
	addResidualGuarantees(bm, base, scs)
	out := make([]*Allocation, len(scales))
	// The capacity rows follow the flows' (1) rows.
	err := bl.scaleChain(base, bm.m, lp.Constr(len(base.Flows)), scales, func(i int, s float64, sol *lp.Solution) {
		out[i] = bm.extract(base, s, sol)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// addResidualGuarantees emits a constraint (4') row for each minimal
// residual tunnel set of each flow, in first-seen scenario order. Because
// a >= 0, the row of a set R implies the row of every superset of R, so a
// flow's rows over the antichain of its minimal sets imply all the others;
// the full set is constraint (1). An empty set gets no row: the flow is
// disconnected under that scenario and no allocation can protect it. The
// paper's methodology selects tunnels so that a residual tunnel exists for
// every flow and scenario; where the topology makes that impossible the
// guarantee is vacuous, and pre-emptively zeroing the flow would punish it
// in every OTHER scenario too.
func addResidualGuarantees(bm *baseModel, n *Network, scs []FailureScenario) {
	rc := n.residuals(scs, false)
	for f, sets := range rc.sets {
		for c, set := range sets {
			if c == 0 || set.empty() || !minimalAmong(sets, c) {
				continue
			}
			bm.row = set.sumOf(bm.row[:0], bm.a[f]).Plus(-1, bm.b[f])
			bm.m.AddConstr(bm.row, lp.GE, 0, "")
		}
	}
}

// minimalAmong reports whether no other non-empty set of sets (which are
// distinct) is a subset of sets[c].
func minimalAmong(sets []tunnelSet, c int) bool {
	for o, other := range sets {
		if o != c && !other.empty() && other.subsetOf(sets[c]) {
			return false
		}
	}
	return true
}
