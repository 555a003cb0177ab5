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
	linkLoad := make([]lp.Expr, len(n.LinkCap))
	for f, fl := range n.Flows {
		b[f] = m.AddVar(0, fl.Demand, 1, "")
		share := 1.0 / float64(len(n.Tunnels[f]))
		for _, t := range n.Tunnels[f] {
			for _, e := range t.Links {
				linkLoad[e] = linkLoad[e].Plus(share, b[f])
			}
		}
	}
	for e, expr := range linkLoad {
		if len(expr) > 0 {
			m.AddConstr(expr, lp.LE, n.LinkCap[e], "")
		}
	}
	sol, err := solveModel(m, m.Name(), lp.SlackBasis(m), bl.LP, nil)
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
