package te

import (
	"fmt"
	"math"

	"github.com/arrow-te/arrow/internal/lp"
)

// TeaVaROptions configures the CVaR-based TE baseline.
type TeaVaROptions struct {
	// Beta is the availability target (e.g. 0.999), the CVaR level.
	Beta float64
}

// teavarTieBreak is the weight of the healthy-state throughput bonus that
// selects among CVaR-optimal allocations.
const teavarTieBreak = 1e-3

// TeaVaR implements the CVaR-style probabilistic TE of Bogle et al. [17],
// adapted to this package's scenario model: it chooses tunnel reservations
// a_{f,t} minimising the Conditional Value-at-Risk, at level beta, of the
// scenario demand-loss fraction, via the Rockafellar–Uryasev linearisation:
//
//	min  theta + 1/(1-beta) * sum_q pbar_q u_q  -  teavarTieBreak * healthy_throughput
//	s.t. u_q >= loss_q - theta, u_q >= 0
//	     loss_q = 1 - sum_f s_f^q / D
//	     s_f^q <= d_f,  s_f^q <= sum_{t in T_f^q} a_{f,t}
//	     sum_{f,t} a_{f,t} L[t,e] <= c_e
//
// where pbar are the scenario probabilities (including the healthy
// scenario) normalised over the enumerated mass. The returned Allocation's
// b_f is the healthy-state satisfied demand min(d_f, sum_t a_{f,t}).
func TeaVaR(n *Network, scs []FailureScenario, opts *TeaVaROptions) (*Allocation, error) {
	return Baselines{}.TeaVaR(n, scs, opts)
}

// TeaVaR is the package-level TeaVaR under bl's LP options: the one-scale
// chain of TeaVaRScales, whose model at scale 1 is n's own.
func (bl Baselines) TeaVaR(n *Network, scs []FailureScenario, opts *TeaVaROptions) (*Allocation, error) {
	als, err := bl.TeaVaRScales(n, scs, opts, []float64{1})
	if err != nil {
		return nil, err
	}
	return als[0], nil
}

// TeaVaRScales solves TeaVaR on base.Scaled(s) for every s of scales, in
// order, as one chain of warm re-solves of one model (scaleChain). With
// a = s·â and s_f^q = s·ŝ_f^q, TeaVaR at demand scale s is TeaVaR at scale 1
// with every capacity row's right-hand side c_e/s: the sat and cvar rows,
// the bounds (ŝ_f^q <= d_f) and the costs do not depend on s, and neither
// does the objective's value. The allocation is read back as s·â. Every
// scale must be positive and finite.
func (bl Baselines) TeaVaRScales(base *Network, scs []FailureScenario, opts *TeaVaROptions, scales []float64) ([]*Allocation, error) {
	if err := base.Validate(); err != nil {
		return nil, err
	}
	beta := 0.999
	if opts != nil && opts.Beta > 0 {
		beta = opts.Beta
	}
	if beta >= 1 {
		return nil, fmt.Errorf("te: teavar: beta %g must be < 1", beta)
	}
	if err := checkScales("teavar", scales); err != nil {
		return nil, err
	}
	out := make([]*Allocation, len(scales))
	if base.TotalDemand() <= 0 {
		for i, s := range scales {
			al, err := bl.MaxThroughput(base.Scaled(s))
			if err != nil {
				return nil, err
			}
			out[i] = al
		}
		return out, nil
	}
	m, a, err := teavarModel(base, scs, beta)
	if err != nil {
		return nil, err
	}
	err = bl.scaleChain(base, m, 0, scales, func(i int, s float64, sol *lp.Solution) {
		out[i] = teavarAllocation(base, a, s, m, sol)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// teavarAllocation reads the allocation at demand scale s off sol, a solve
// of base's model with the capacity rows at c_e/s: a_{f,t} = s·â_{f,t}, and
// b_f the healthy-state satisfied demand min(s·d_f, sum_t a_{f,t}).
func teavarAllocation(base *Network, a [][]lp.Var, s float64, m *lp.Model, sol *lp.Solution) *Allocation {
	al := &Allocation{
		B: make([]float64, len(base.Flows)),
		A: make([][]float64, len(base.Flows)),
	}
	for f := range base.Flows {
		al.A[f] = make([]float64, len(a[f]))
		sum := 0.0
		for ti, v := range a[f] {
			x := float64(s * sol.X[v])
			al.A[f][ti] = x
			sum += x
		}
		al.B[f] = math.Min(base.Flows[f].Demand*s, sum)
		al.Objective += al.B[f]
	}
	return al.solvedBy(m, sol)
}

// teavarModel builds TeaVaR's LP for a network with positive total demand
// and returns it (pooled) with the tunnel-reservation variables a[f][t].
//
// s_f^q enters only >= rows with non-negative coefficients and has a
// non-positive cost, so its optimum is min(d_f, sum_{t in T_f^q} a_{f,t}),
// a function of the residual set alone: the model carries one s variable
// and one sat row per (flow, distinct residual set), and each scenario's
// cvar row references its class's variable. The healthy scenario is
// scenario 0, so class 0 of every flow (the full tunnel set) carries the
// healthy-throughput bonus. A flow's empty set needs neither: s = 0.
// The capacity rows come first, one per link some tunnel crosses, in link
// order: TeaVaRScales sets their right-hand sides by index.
func teavarModel(n *Network, scs []FailureScenario, beta float64) (*lp.Model, [][]lp.Var, error) {
	// Scenario list: healthy first, then failures; probabilities normalised.
	healthyProb := 1.0
	for qi, q := range scs {
		// A negative or NaN probability would give u_q a negative cost and
		// an unbounded LP.
		if !(q.Prob >= 0) || math.IsInf(q.Prob, 1) {
			return nil, nil, fmt.Errorf("te: teavar: scenario %d (failed links %v) has probability %g", qi, q.FailedLinks, q.Prob)
		}
		healthyProb -= q.Prob
	}
	if healthyProb < 0 {
		healthyProb = 0
	}
	scens := append([]FailureScenario{{Prob: healthyProb}}, scs...)
	totalP := 0.0
	for _, q := range scens {
		totalP += q.Prob
	}

	D := n.TotalDemand()
	m := newModel("teavar", false)
	a := make([][]lp.Var, len(n.Flows))
	for f := range n.Flows {
		a[f] = make([]lp.Var, len(n.Tunnels[f]))
		for ti := range n.Tunnels[f] {
			a[f][ti] = m.AddVar(0, lp.Inf, 0, "")
		}
	}
	var row lp.Expr
	for e, refs := range n.incidence() {
		if len(refs) > 0 {
			row = capRow(row[:0], n, e, refs, a)
			m.AddConstr(row, lp.LE, n.LinkCap[e], "")
		}
	}
	theta := m.AddVar(-lp.Inf, lp.Inf, 1, "")

	rc := n.residuals(scens, true)
	s := make([][]lp.Var, len(n.Flows))
	for f, sets := range rc.sets {
		s[f] = make([]lp.Var, len(sets))
		for c, set := range sets {
			if set.empty() {
				s[f][c] = -1
				continue
			}
			obj := 0.0
			if c == 0 {
				obj = -teavarTieBreak / D // tie-break toward healthy throughput
			}
			s[f][c] = m.AddVar(0, n.Flows[f].Demand, obj, "")
			row = set.sumOf(row[:0], a[f]).Plus(-1, s[f][c])
			m.AddConstr(row, lp.GE, 0, "")
		}
	}
	for qi, q := range scens {
		u := m.AddVar(0, lp.Inf, q.Prob/totalP/(1-beta), "")
		// loss_q - theta - u <= 0  with  loss_q = 1 - sum_f s_f/D:
		// 1 - sum_f s_f/D - theta - u <= 0   =>   sum_f s_f/D + theta + u >= 1.
		row = row[:0]
		for f := range n.Flows {
			if sv := s[f][rc.class[f][qi]]; sv >= 0 {
				row = row.Plus(1/D, sv)
			}
		}
		row = row.Plus(1, theta).Plus(1, u)
		m.AddConstr(row, lp.GE, 1, "")
	}
	return m, a, nil
}
