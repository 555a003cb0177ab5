package te

import "github.com/arrow-te/arrow/internal/lp"

// ECMP models equal-cost multi-path routing [21]: each flow splits its
// admitted bandwidth equally across all of its tunnels, with no failure
// awareness. Admission is still maximised subject to link capacities, which
// reduces to an LP over b_f alone since a_{f,t} = b_f / |T_f|.
func ECMP(n *Network) (*Allocation, error) { return Baselines{}.ECMP(n) }

// ECMP is the package-level ECMP under bl's LP options.
func (bl Baselines) ECMP(n *Network) (*Allocation, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	m := newModel("ecmp", true)
	b := make([]lp.Var, len(n.Flows))
	for f, fl := range n.Flows {
		b[f] = m.AddVar(0, fl.Demand, 1, "")
	}
	// Link e's load is share_f * b_f once per crossing of e, in ascending
	// (f, t) order off the incidence, which AddConstr sums per flow.
	var row lp.Expr
	for e, refs := range n.incidence() {
		if len(refs) == 0 {
			continue
		}
		row = row[:0]
		for _, c := range refs {
			share := 1.0 / float64(len(n.Tunnels[c.f]))
			for _, l := range n.Tunnels[c.f][c.ti].Links {
				if l == e {
					row = row.Plus(share, b[c.f])
				}
			}
		}
		m.AddConstr(row, lp.LE, n.LinkCap[e], "")
	}
	dst, slack := solutionPool.Get(), basisPool.Get()
	defer solutionPool.Put(dst)
	defer basisPool.Put(slack)
	slack.ResetSlack(m)
	sol, err := solveModel(dst, m, m.Name(), slack, bl.LP, nil)
	if err != nil {
		return nil, err
	}
	defer modelPool.Put(m)
	al := &Allocation{
		B:         make([]float64, len(n.Flows)),
		A:         make([][]float64, len(n.Flows)),
		Objective: sol.Objective,
	}
	for f := range n.Flows {
		al.B[f] = sol.X[b[f]]
		al.A[f] = make([]float64, len(n.Tunnels[f]))
		for ti := range al.A[f] {
			al.A[f][ti] = al.B[f] / float64(len(n.Tunnels[f]))
		}
	}
	return al.solvedBy(m, sol), nil
}
