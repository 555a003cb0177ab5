package te

import (
	"fmt"

	"github.com/arrow-te/arrow/internal/lp"
)

// The FFC and TeaVaR builders as they were before the residual-class
// reductions: one (4') row per distinct residual set, dominated ones
// included, and one s variable and sat row per (flow, scenario). Kept as the
// oracles the reduced builders are checked against.

// refAddResidualGuarantees emits constraint (4') rows, deduplicating
// identical residual tunnel sets per flow but keeping dominated ones.
func refAddResidualGuarantees(bm *baseModel, n *Network, scs []FailureScenario) {
	for f := range n.Flows {
		seen := map[string]bool{}
		for qi, q := range scs {
			failed := failedSet(n, q.FailedLinks)
			res := residualTunnels(n, f, failed)
			if len(res) == len(n.Tunnels[f]) {
				continue // no tunnel lost: constraint (1) already covers it
			}
			if len(res) == 0 {
				continue // disconnected: the guarantee is vacuous
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

// refTeavarModel builds TeaVaR's LP with an s_f^q variable and a sat_f_q
// row for every (flow, scenario), the healthy scenario first. It returns
// the model with its variables: a[f][t], theta, s[q][f] and u[q], where
// q = 0 is the healthy scenario and q = 1+qi is scs[qi].
func refTeavarModel(n *Network, scs []FailureScenario, beta, tie float64) (m *lp.Model, a [][]lp.Var, theta lp.Var, s [][]lp.Var, u []lp.Var, err error) {
	D := n.TotalDemand()
	m = lp.NewModel("teavar")
	a = make([][]lp.Var, len(n.Flows))
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

	healthyProb := 1.0
	for _, q := range scs {
		healthyProb -= q.Prob
	}
	if healthyProb < 0 {
		healthyProb = 0
	}
	totalP := healthyProb
	for _, q := range scs {
		totalP += q.Prob
	}
	if totalP <= 0 {
		return nil, nil, 0, nil, nil, fmt.Errorf("te: teavar: zero total scenario probability")
	}

	theta = m.AddVar(-lp.Inf, lp.Inf, 1, "theta")
	type scen struct {
		prob   float64
		failed []bool
	}
	scens := []scen{{healthyProb, failedSet(n, nil)}}
	for _, q := range scs {
		scens = append(scens, scen{q.Prob, failedSet(n, q.FailedLinks)})
	}

	s = make([][]lp.Var, len(scens))
	for qi, sc := range scens {
		uq := m.AddVar(0, lp.Inf, sc.prob/totalP/(1-beta), fmt.Sprintf("u_q%d", qi))
		u = append(u, uq)
		var lossExpr lp.Expr
		for f := range n.Flows {
			sv := m.AddVar(0, n.Flows[f].Demand, 0, fmt.Sprintf("s_f%d_q%d", f, qi))
			s[qi] = append(s[qi], sv)
			if qi == 0 {
				m.SetObj(sv, -tie/D) // tie-break toward healthy throughput
			}
			var coverage lp.Expr
			for _, ti := range residualTunnels(n, f, sc.failed) {
				coverage = coverage.Plus(1, a[f][ti])
			}
			coverage = coverage.Plus(-1, sv)
			m.AddConstr(coverage, lp.GE, 0, fmt.Sprintf("sat_f%d_q%d", f, qi))
			lossExpr = lossExpr.Plus(1/D, sv)
		}
		lossExpr = lossExpr.Plus(1, theta).Plus(1, uq)
		m.AddConstr(lossExpr, lp.GE, 1, fmt.Sprintf("cvar_q%d", qi))
	}
	return m, a, theta, s, u, nil
}
