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
	// TieBreak is the weight of the healthy-state throughput bonus used to
	// select among CVaR-optimal allocations (default 1e-3).
	TieBreak float64
}

// TeaVaR implements the CVaR-style probabilistic TE of Bogle et al. [17],
// adapted to this package's scenario model: it chooses tunnel reservations
// a_{f,t} minimising the Conditional Value-at-Risk, at level beta, of the
// scenario demand-loss fraction, via the Rockafellar–Uryasev linearisation:
//
//	min  theta + 1/(1-beta) * sum_q pbar_q u_q  -  tiebreak * healthy_throughput
//	s.t. u_q >= loss_q - theta, u_q >= 0
//	     loss_q = 1 - sum_f s_f^q / D
//	     s_f^q <= d_f,  s_f^q <= sum_{t in T_f^q} a_{f,t}
//	     sum_{f,t} a_{f,t} L[t,e] <= c_e
//
// where pbar are the scenario probabilities (including the healthy
// scenario) normalised over the enumerated mass. The returned Allocation's
// b_f is the healthy-state satisfied demand min(d_f, sum_t a_{f,t}).
func TeaVaR(n *Network, scs []FailureScenario, opts *TeaVaROptions) (*Allocation, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	beta := 0.999
	tie := 1e-3
	if opts != nil {
		if opts.Beta > 0 {
			beta = opts.Beta
		}
		if opts.TieBreak > 0 {
			tie = opts.TieBreak
		}
	}
	if beta >= 1 {
		return nil, fmt.Errorf("te: teavar: beta %g must be < 1", beta)
	}
	if n.TotalDemand() <= 0 {
		return MaxThroughput(n)
	}
	m, a, err := teavarModel(n, scs, beta, tie)
	if err != nil {
		return nil, err
	}
	sol, err := lp.Solve(m, nil)
	if err != nil {
		return nil, fmt.Errorf("te: teavar: %w", err)
	}
	if sol.Status != lp.StatusOptimal {
		return nil, fmt.Errorf("te: teavar: status %v", sol.Status)
	}

	al := &Allocation{
		B: make([]float64, len(n.Flows)),
		A: make([][]float64, len(n.Flows)),
	}
	for f := range n.Flows {
		al.A[f] = make([]float64, len(a[f]))
		sum := 0.0
		for ti, v := range a[f] {
			al.A[f][ti] = sol.X[v]
			sum += sol.X[v]
		}
		al.B[f] = math.Min(n.Flows[f].Demand, sum)
		al.Objective += al.B[f]
	}
	return al, nil
}

// teavarModel builds TeaVaR's LP for a network with positive total demand
// and returns it with the tunnel-reservation variables a[f][t].
func teavarModel(n *Network, scs []FailureScenario, beta, tie float64) (*lp.Model, [][]lp.Var, error) {
	D := n.TotalDemand()
	m := lp.NewModel("teavar")
	// Minimisation problem.
	a := make([][]lp.Var, len(n.Flows))
	linkLoad := make([]lp.Expr, len(n.LinkCap))
	for f := range n.Flows {
		a[f] = make([]lp.Var, len(n.Tunnels[f]))
		for ti, t := range n.Tunnels[f] {
			v := m.AddVar(0, lp.Inf, 0, fmt.Sprintf("a_f%d_t%d", f, ti))
			a[f][ti] = v
			for _, e := range t.Links {
				linkLoad[e] = linkLoad[e].Plus(1, v)
			}
		}
	}
	for e, expr := range linkLoad {
		if len(expr) > 0 {
			m.AddConstr(expr, lp.LE, n.LinkCap[e], fmt.Sprintf("cap_e%d", e))
		}
	}

	// Scenario list: healthy first, then failures; probabilities normalised.
	healthyProb := 1.0
	totalP := 0.0
	for _, q := range scs {
		healthyProb -= q.Prob
	}
	if healthyProb < 0 {
		healthyProb = 0
	}
	totalP = healthyProb
	for _, q := range scs {
		totalP += q.Prob
	}
	if totalP <= 0 {
		return nil, nil, fmt.Errorf("te: teavar: zero total scenario probability")
	}

	theta := m.AddVar(-lp.Inf, lp.Inf, 1, "theta")
	type scen struct {
		prob   float64
		failed []bool
	}
	scens := []scen{{healthyProb, failedSet(n, nil)}}
	for _, q := range scs {
		scens = append(scens, scen{q.Prob, failedSet(n, q.FailedLinks)})
	}

	var healthyS []lp.Var
	for qi, sc := range scens {
		u := m.AddVar(0, lp.Inf, sc.prob/totalP/(1-beta), fmt.Sprintf("u_q%d", qi))
		// loss_q - theta - u <= 0  with  loss_q = 1 - sum_f s_f/D:
		// 1 - sum_f s_f/D - theta - u <= 0   =>   sum_f s_f/D + theta + u >= 1.
		var lossExpr lp.Expr
		for f := range n.Flows {
			s := m.AddVar(0, n.Flows[f].Demand, 0, fmt.Sprintf("s_f%d_q%d", f, qi))
			if qi == 0 {
				healthyS = append(healthyS, s)
				m.SetObj(s, -tie/D) // tie-break toward healthy throughput
			}
			var coverage lp.Expr
			for _, ti := range residualTunnels(n, f, sc.failed) {
				coverage = coverage.Plus(1, a[f][ti])
			}
			coverage = coverage.Plus(-1, s)
			m.AddConstr(coverage, lp.GE, 0, fmt.Sprintf("sat_f%d_q%d", f, qi))
			lossExpr = lossExpr.Plus(1/D, s)
		}
		lossExpr = lossExpr.Plus(1, theta).Plus(1, u)
		m.AddConstr(lossExpr, lp.GE, 1, fmt.Sprintf("cvar_q%d", qi))
	}

	return m, a, nil
}
