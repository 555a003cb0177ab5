package te

import (
	"fmt"

	"github.com/arrow-te/arrow/internal/lp"
)

// FFC solves Forward Fault Correction [63] extended to fiber cuts as in §6:
// the allocation must guarantee b_f for every scenario in scs (typically all
// single or all single+double fiber-cut scenarios), using residual tunnels
// only. This is exactly ARROW's formulation with zero restorable capacity.
//
//	(4') forall f, q: sum_{t in T_f^q} a_{f,t} >= b_f
//
// Scenario constraints are only emitted when the scenario actually removes a
// tunnel of the flow and the resulting residual set is novel — equivalent
// but far smaller than the naive encoding.
func FFC(n *Network, scs []FailureScenario) (*Allocation, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	bm := newBaseModel("ffc", n)
	addResidualGuarantees(bm, n, scs)
	return bm.solve(n, nil)
}

// addResidualGuarantees emits constraint (4') rows, deduplicating identical
// residual tunnel sets per flow.
func addResidualGuarantees(bm *baseModel, n *Network, scs []FailureScenario) {
	for f := range n.Flows {
		seen := map[string]bool{}
		for qi, q := range scs {
			failed := failedSet(n, q.FailedLinks)
			res := residualTunnels(n, f, failed)
			if len(res) == len(n.Tunnels[f]) {
				continue // no tunnel lost: constraint (1) already covers it
			}
			if len(res) == 0 {
				// The flow is disconnected under q: no allocation can
				// protect it. The paper's methodology selects tunnels so
				// that a residual tunnel exists for every flow and
				// scenario; where the topology makes that impossible the
				// guarantee is vacuous, and pre-emptively zeroing the flow
				// would punish it in every OTHER scenario too.
				continue
			}
			key := fmt.Sprint(res)
			if seen[key] {
				continue
			}
			seen[key] = true
			var e lp.Expr
			for _, ti := range res {
				e = e.Plus(1, bm.a[f][ti])
			}
			e = e.Plus(-1, bm.b[f])
			bm.m.AddConstr(e, lp.GE, 0, fmt.Sprintf("ffc_f%d_q%d", f, qi))
		}
	}
}
