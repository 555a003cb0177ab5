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

// FFC is the package-level FFC under bl's LP options.
func (bl Baselines) FFC(n *Network, scs []FailureScenario) (*Allocation, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	bm := newBaseModel("ffc", n)
	addResidualGuarantees(bm, n, scs)
	return bm.solve(n, bl.LP)
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
