package te

import (
	"fmt"
	"sort"

	"github.com/arrow-te/arrow/internal/lp"
	"github.com/arrow-te/arrow/internal/mip"
	"github.com/arrow-te/arrow/internal/optical"
	"github.com/arrow-te/arrow/internal/rwa"
)

// BinaryILP solves ARROW's ticket-selection TE as the binary ILP of
// Table 9: one binary x^{z,q} per (scenario, ticket) with big-M linking,
// exactly one ticket selected per scenario. It is exponential in practice
// and exists as the ground truth that validates the two-phase LP: when the
// optimal ticket is present in Z, the two-phase objective must match
// (Theorem 3.1's premise). Use only on small instances.
func BinaryILP(n *Network, scs []RestorableScenario, opts *mip.Options) (*Allocation, []int, error) {
	if err := n.Validate(); err != nil {
		return nil, nil, err
	}
	bm := newBaseModel("arrow-binary-ilp", n)
	bigM := 0.0
	for _, f := range n.Flows {
		bigM += f.Demand
	}

	x := make([][]lp.Var, len(scs))
	for qi := range scs {
		q := &scs[qi]
		if len(q.Tickets) == 0 {
			return nil, nil, fmt.Errorf("te: binary ilp: scenario %d has no tickets", qi)
		}
		failed := failedSet(n, q.FailedLinks)
		x[qi] = make([]lp.Var, len(q.Tickets))
		var pick lp.Expr
		for z := range q.Tickets {
			xv := bm.m.AddBinVar(0, fmt.Sprintf("x_q%d_z%d", qi, z))
			x[qi][z] = xv
			pick = pick.Plus(1, xv)

			restored := func(link int) float64 { return q.TicketGbps(z, link) }
			// (31): coverage under ticket z, relaxed unless x=1.
			for f := range n.Flows {
				res := residualTunnels(n, f, failed)
				rst := restorableTunnels(n, f, failed, restored)
				if len(res)+len(rst) == len(n.Tunnels[f]) || len(res)+len(rst) == 0 {
					// Nothing lost, or the flow is disconnected under this
					// scenario+ticket (no residual or restorable tunnel):
					// the guarantee is either implied by (1) or vacuous.
					continue
				}
				var e lp.Expr
				for _, ti := range res {
					e = e.Plus(1, bm.a[f][ti])
				}
				for _, ti := range rst {
					e = e.Plus(1, bm.a[f][ti])
				}
				// sum a >= b_f - M(1-x)  <=>  sum a - b_f - M*x >= -M
				e = e.Plus(-1, bm.b[f]).Plus(-bigM, xv)
				bm.m.AddConstr(e, lp.GE, -bigM, fmt.Sprintf("ilpcover_f%d_q%d_z%d", f, qi, z))
			}
			// (32): restored-capacity limits, relaxed unless x=1.
			for _, link := range q.FailedLinks {
				var load lp.Expr
				for f := range n.Flows {
					for _, ti := range restorableTunnels(n, f, failed, restored) {
						for _, le := range n.Tunnels[f][ti].Links {
							if le == link {
								load = load.Plus(1, bm.a[f][ti])
								break
							}
						}
					}
				}
				if len(load) == 0 {
					continue
				}
				// load <= r + M(1-x)  <=>  load + M*x <= r + M
				load = load.Plus(bigM, xv)
				bm.m.AddConstr(load, lp.LE, restored(link)+bigM, fmt.Sprintf("ilpcap_e%d_q%d_z%d", link, qi, z))
			}
		}
		bm.m.AddConstr(pick, lp.EQ, 1, fmt.Sprintf("pick_q%d", qi)) // (33)
	}

	sol, err := mip.Solve(bm.m, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("te: binary ilp: %w", err)
	}
	if err := sol.Status.Err(); err != nil {
		return nil, nil, fmt.Errorf("te: binary ilp: %w", err)
	}
	al := &Allocation{
		B:         make([]float64, len(n.Flows)),
		A:         make([][]float64, len(n.Flows)),
		Objective: sol.Objective,
	}
	for f := range n.Flows {
		al.B[f] = sol.X[bm.b[f]]
		al.A[f] = make([]float64, len(bm.a[f]))
		for ti, v := range bm.a[f] {
			al.A[f][ti] = sol.X[v]
		}
	}
	winners := make([]int, len(scs))
	for qi := range scs {
		winners[qi] = 0
		for z := range scs[qi].Tickets {
			if sol.X[x[qi][z]] > 0.5 {
				winners[qi] = z
				break
			}
		}
	}
	al.WinningTicket = winners
	return al, winners, nil
}

// JointInstance couples a TE network with its optical layer for the joint
// IP/optical formulation of Table 7 (Appendix A.4). IP link IDs must match
// optical IPLink IDs.
type JointInstance struct {
	Net *Network
	Opt *optical.Network
	// Cuts lists the fiber-cut scenarios (fiber ID sets).
	Cuts [][]int
	// K surrogate paths per failed link (default 2).
	K int
	// AllowTuning / AllowModulationChange as in package rwa.
	AllowTuning           bool
	AllowModulationChange bool
}

func (ji *JointInstance) k() int {
	if ji.K <= 0 {
		return 2
	}
	return ji.K
}

// JointILP solves the joint IP/optical restoration-aware TE: wavelength
// assignment (binary xi variables per scenario, constraints 23-26) is
// optimised together with tunnel allocation. Restored capacity r_e^q is a
// decision variable (constraint 27).
//
// Tunnel usability under failure is modelled with per-scenario usage
// variables u^q_{f,t} <= a_{f,t} (the "dynamic restorable tunnels" of
// Appendix A.4): failed tunnels may carry up to the restored capacity of
// every failed link they cross. This makes JointILP an exact upper bound
// for the two-phase ARROW TE on the same instance.
//
// The formulation is intractable beyond toy sizes by design — that is the
// paper's point (Table 8); use JointModelStats to measure the blow-up.
func JointILP(ji *JointInstance, opts *mip.Options) (*Allocation, error) {
	n := ji.Net
	if err := n.Validate(); err != nil {
		return nil, err
	}
	bm := newBaseModel("joint-ilp", n)

	for qi, cut := range ji.Cuts {
		res, err := rwa.Solve(&rwa.Request{
			Net: ji.Opt, Cut: cut, K: ji.k(),
			AllowTuning: ji.AllowTuning, AllowModulationChange: ji.AllowModulationChange,
		})
		if err != nil {
			return nil, fmt.Errorf("te: joint ilp: scenario %d rwa: %w", qi, err)
		}
		failed := failedSet(n, res.Failed)

		// Optical side: binary xi per (failed link, path option, slot).
		rVar := map[int]lp.Var{} // failed IP link -> restored Gbps variable
		fiberSlot := map[[2]int]lp.Expr{}
		for li, linkID := range res.Failed {
			r := bm.m.AddVar(0, lp.Inf, 0, fmt.Sprintf("r_e%d_q%d", linkID, qi))
			rVar[linkID] = r
			var rExpr lp.Expr
			var waveCount lp.Expr
			for pi, opt := range res.Options[li] {
				for _, s := range opt.Slots {
					xi := bm.m.AddBinVar(0, fmt.Sprintf("xi_q%d_l%d_p%d_s%d", qi, li, pi, s))
					waveCount = waveCount.Plus(1, xi)
					rExpr = rExpr.Plus(opt.Modulation.GbpsPerWavelength, xi) // (27)
					for _, fb := range opt.Fibers {
						key := [2]int{fb, s}
						fiberSlot[key] = fiberSlot[key].Plus(1, xi)
					}
				}
			}
			// (26): restored waves within [0, gamma_e].
			if len(waveCount) > 0 {
				bm.m.AddConstr(waveCount, lp.LE, float64(res.OrigWaves[li]), fmt.Sprintf("gamma_l%d_q%d", linkID, qi))
			}
			rExpr = rExpr.Plus(-1, rVar[linkID])
			bm.m.AddConstr(rExpr, lp.EQ, 0, fmt.Sprintf("rdef_l%d_q%d", linkID, qi))
		}
		fsKeys := make([][2]int, 0, len(fiberSlot))
		for key := range fiberSlot {
			fsKeys = append(fsKeys, key)
		}
		sort.Slice(fsKeys, func(a, b int) bool {
			if fsKeys[a][0] != fsKeys[b][0] {
				return fsKeys[a][0] < fsKeys[b][0]
			}
			return fsKeys[a][1] < fsKeys[b][1]
		})
		for _, key := range fsKeys { // (23)
			bm.m.AddConstr(fiberSlot[key], lp.LE, 1, fmt.Sprintf("slot_f%d_s%d_q%d", key[0], key[1], qi))
		}

		// TE side: per-scenario usage u <= a; coverage and capacity.
		linkLoad := map[int]lp.Expr{}
		for f := range n.Flows {
			var coverage lp.Expr
			anyFailed := false
			for ti, t := range n.Tunnels[f] {
				isFailed := false
				for _, e := range t.Links {
					if failed[e] {
						isFailed = true
						break
					}
				}
				if !isFailed {
					coverage = coverage.Plus(1, bm.a[f][ti])
					continue
				}
				anyFailed = true
				u := bm.m.AddVar(0, lp.Inf, 0, fmt.Sprintf("u_f%d_t%d_q%d", f, ti, qi))
				// u <= a_{f,t}
				bm.m.AddConstr(lp.Expr{}.Plus(1, u).Plus(-1, bm.a[f][ti]), lp.LE, 0, fmt.Sprintf("ulim_f%d_t%d_q%d", f, ti, qi))
				coverage = coverage.Plus(1, u)
				for _, e := range t.Links {
					if failed[e] {
						linkLoad[e] = linkLoad[e].Plus(1, u)
					}
				}
			}
			if !anyFailed {
				continue // (1) covers it
			}
			coverage = coverage.Plus(-1, bm.b[f])
			bm.m.AddConstr(coverage, lp.GE, 0, fmt.Sprintf("jcover_f%d_q%d", f, qi)) // (21)
		}
		llKeys := make([]int, 0, len(linkLoad))
		for e := range linkLoad {
			llKeys = append(llKeys, e)
		}
		sort.Ints(llKeys)
		for _, e := range llKeys { // (22)
			load := linkLoad[e].Plus(-1, rVar[e])
			bm.m.AddConstr(load, lp.LE, 0, fmt.Sprintf("jcap_e%d_q%d", e, qi))
		}
	}

	sol, err := mip.Solve(bm.m, opts)
	if err != nil {
		return nil, fmt.Errorf("te: joint ilp: %w", err)
	}
	if err := sol.Status.Err(); err != nil {
		return nil, fmt.Errorf("te: joint ilp: %w", err)
	}
	al := &Allocation{
		B:         make([]float64, len(n.Flows)),
		A:         make([][]float64, len(n.Flows)),
		Objective: sol.Objective,
	}
	for f := range n.Flows {
		al.B[f] = sol.X[bm.b[f]]
		al.A[f] = make([]float64, len(bm.a[f]))
		for ti, v := range bm.a[f] {
			al.A[f][ti] = sol.X[v]
		}
	}
	return al, nil
}

// ModelSize reports the symbolic size of a formulation (Table 8).
type ModelSize struct {
	BinaryVars     int64
	ContinuousVars int64
	Constraints    int64
}

// JointModelStats counts the variables and constraints of the full joint
// IP/optical formulation of Table 7 WITHOUT building it — reproducing the
// Table 8 demonstration that the joint ILP blows up at production scale.
//
// Inputs: flows F with tunnels T each, E IP links, Phi fibers, W spectrum
// slots per fiber, Q scenarios, avgFailed failed IP links per scenario,
// k surrogate paths per failed link, avgPathLen fibers per surrogate path.
func JointModelStats(F, T, E, Phi, W, Q, avgFailed, k, avgPathLen int) ModelSize {
	var s ModelSize
	f64 := func(xs ...int) []int64 {
		out := make([]int64, len(xs))
		for i, x := range xs {
			out[i] = int64(x)
		}
		return out
	}
	v := f64(F, T, E, Phi, W, Q, avgFailed, k, avgPathLen)
	vF, vT, vE, vPhi, vW, vQ, vFail, vK, vLen := v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7], v[8]

	// Binary xi^{e,k,q}_{phi,w}: the paper's formulation indexes xi over
	// EVERY fiber and slot (constraint 24 zeroes off-path entries), which
	// is what makes Table 8 explode.
	s.BinaryVars = vQ * vFail * vK * vPhi * vW
	// Continuous: a_{f,t}, b_f, r_e^q, lambda_e^{k,q} (relaxable).
	s.ContinuousVars = vF*vT + vF + vQ*vFail + vQ*vFail*vK
	// Constraints 18-20: F + E + F; 21: F*Q; 22: failed*Q;
	// 23: Phi*W*Q; 24: failed*k*Phi*Q; 25: failed*k*W*(pathlen-1)*Q;
	// 26-27: 2*failed*Q.
	s.Constraints = vF + vE + vF + vF*vQ + vFail*vQ +
		vPhi*vW*vQ + vFail*vK*vPhi*vQ + vFail*vK*vW*maxI64(vLen-1, 0)*vQ + 2*vFail*vQ
	return s
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
