// Package mip solves small mixed-integer linear programs by LP-based branch
// and bound over the internal/lp simplex.
//
// ARROW needs integer programs in three places, all small by design: the
// exact Routing-and-Wavelength-Assignment ILP used to validate the LP
// relaxation (Appendix A.2), the binary LotteryTicket-selection TE
// formulation (Table 9) used as a ground-truth comparator for the two-phase
// LP, and the tiny joint IP/optical formulation (Table 7) whose purpose in
// the paper is to demonstrate intractability at scale.
package mip

import (
	"math"

	"github.com/arrow-te/arrow/internal/lp"
	"github.com/arrow-te/arrow/internal/obs"
)

// Options tunes the branch-and-bound search.
type Options struct {
	// MaxNodes is the node budget (default 200000). A search that spends it
	// without an integral solution returns StatusIterLimit and no X, not an
	// error; one that found an incumbent returns it, with Bound the best
	// bound still open.
	MaxNodes int
	// LP configures the node relaxations. Its Recorder also receives the
	// per-solve branch-and-bound metrics (nodes explored/pruned, incumbent
	// updates), which accumulate locally and flush once per Solve; a nil
	// Recorder costs nothing and never changes the search.
	LP *lp.Options
	// NoWarm disables warm-starting child node relaxations from the parent
	// node's final basis. Warm starts never change which solution is found
	// (the warm solver reaches the same optimum); the switch exists for A/B
	// pivot-count comparison.
	NoWarm bool
}

// intTol is the integrality tolerance: a relaxation value within it of an
// integer counts as integral.
const intTol = 1e-6

func (o *Options) withDefaults() Options {
	v := Options{MaxNodes: 200000}
	if o == nil {
		return v
	}
	// A non-positive node budget is explicitly clamped to the default: it is
	// treated as "unset", never as "zero budget".
	if o.MaxNodes > 0 {
		v.MaxNodes = o.MaxNodes
	}
	v.LP = o.LP
	v.NoWarm = o.NoWarm
	return v
}

// recorder is LP.Recorder, or nil without LP options.
func (o Options) recorder() obs.Recorder {
	if o.LP == nil {
		return nil
	}
	return o.LP.Recorder
}

// Solution is the result of a MILP solve.
type Solution struct {
	Status    lp.Status
	Objective float64
	X         []float64
	Nodes     int
	// Bound is the best proven dual bound; equal to Objective at optimality.
	Bound float64
	// Cert is the branch-and-bound optimality certificate: incumbent vs
	// proven bound plus the incumbent's feasibility residual. Populated
	// whenever an incumbent exists; the node LP relaxations additionally
	// carry their own lp.Certificate internally.
	Cert *lp.Certificate
}

// certify builds the MILP-level certificate for m's solution: Primal is the
// incumbent objective, Dual the best proven bound, Gap their relative
// difference (zero at proven optimality), and PrimalInf the incumbent's
// worst constraint/bound/integrality violation on the original model.
func certify(m *lp.Model, s *Solution) *lp.Certificate {
	c := &lp.Certificate{
		Primal: s.Objective,
		Dual:   s.Bound,
		Gap:    math.Abs(s.Objective-s.Bound) / (1 + math.Abs(s.Objective)),
	}
	c.PrimalInf = m.MaxViolation(s.X)
	for j := 0; j < m.NumVars(); j++ {
		if !m.IsInteger(lp.Var(j)) {
			continue
		}
		if v := math.Abs(s.X[j] - math.Round(s.X[j])); v > c.PrimalInf {
			c.PrimalInf = v
		}
	}
	return c
}

// node is one open subproblem: a set of tightened variable bounds, plus the
// parent relaxation's final basis used to warm-start this node's LP. All
// nodes solve against one shared model skeleton (`work`) whose bounds are
// re-patched per node, so a parent basis is always structurally valid for
// its children; only bound changes need repair.
type node struct {
	lb, ub map[lp.Var]float64
	bound  float64 // parent LP relaxation value (in solve sense: minimisation)
	basis  *lp.Basis
}

// Solve runs branch and bound on m. Variables added with AddIntVar or
// AddBinVar are forced integral; everything else stays continuous.
func Solve(m *lp.Model, opts *Options) (*Solution, error) {
	opt := opts.withDefaults()

	intVars := make([]lp.Var, 0)
	for j := 0; j < m.NumVars(); j++ {
		if m.IsInteger(lp.Var(j)) {
			intVars = append(intVars, lp.Var(j))
		}
	}
	rec := opt.recorder()
	if len(intVars) == 0 {
		sol, err := lp.Solve(m, opt.LP)
		if err != nil {
			return nil, err
		}
		obs.Add(rec, "mip.solves", 1)
		obs.Add(rec, "mip.nodes", 1)
		return &Solution{Status: sol.Status, Objective: sol.Objective, X: sol.X, Nodes: 1, Bound: sol.Objective, Cert: sol.Cert}, nil
	}

	// Internally minimise: flip sign for maximisation problems.
	sign := 1.0
	if m.Maximize() {
		sign = -1.0
	}

	work := m.Clone()
	setBounds := func(n *node) {
		for j := 0; j < m.NumVars(); j++ {
			l, u := m.Bounds(lp.Var(j))
			if v, ok := n.lb[lp.Var(j)]; ok && v > l {
				l = v
			}
			if v, ok := n.ub[lp.Var(j)]; ok && v < u {
				u = v
			}
			work.SetBounds(lp.Var(j), l, u)
		}
	}

	best := &Solution{Status: lp.StatusInfeasible}
	bestVal := math.Inf(1) // minimisation incumbent
	open := []*node{{lb: map[lp.Var]float64{}, ub: map[lp.Var]float64{}, bound: math.Inf(-1)}}
	nodes := 0
	sawIterLimit := false
	pruned, incumbents, unhealthy := 0, 0, 0
	defer func() {
		if rec != nil {
			rec.Add("mip.solves", 1)
			rec.Add("mip.nodes", int64(nodes))
			rec.Add("mip.pruned", int64(pruned))
			rec.Add("mip.incumbents", int64(incumbents))
			rec.Add("mip.unhealthy_nodes", int64(unhealthy))
			rec.Observe("mip.nodes_per_solve", float64(nodes))
		}
	}()

	for len(open) > 0 {
		if nodes >= opt.MaxNodes {
			break
		}
		// Best-first: pop the node with the smallest parent bound.
		bi := 0
		for i := 1; i < len(open); i++ {
			if open[i].bound < open[bi].bound {
				bi = i
			}
		}
		cur := open[bi]
		open[bi] = open[len(open)-1]
		open = open[:len(open)-1]
		nodes++

		if cur.bound >= bestVal-1e-12 && !math.IsInf(cur.bound, -1) {
			pruned++
			continue // dominated
		}

		setBounds(cur)
		// Skip nodes with crossed bounds.
		crossed := false
		for j := 0; j < work.NumVars(); j++ {
			if l, u := work.Bounds(lp.Var(j)); l > u {
				crossed = true
				break
			}
		}
		if crossed {
			pruned++
			continue
		}
		start := cur.basis // nil at the root node: cold
		if opt.NoWarm {
			start = nil
		}
		rel, err := lp.SolveWithBasis(work, start, opt.LP)
		if err != nil {
			return nil, err
		}
		if rel.Health != nil && len(rel.Health.Anomalies) > 0 {
			// Per-node tally on top of the lp.health.* counters the LP layer
			// already flushed: "how many B&B nodes had an unhealthy
			// relaxation" localises the search region that misbehaved.
			unhealthy++
		}
		switch rel.Status {
		case lp.StatusInfeasible:
			pruned++
			continue
		case lp.StatusUnbounded:
			if nodes == 1 {
				return &Solution{Status: lp.StatusUnbounded, Nodes: nodes}, nil
			}
			pruned++
			continue
		case lp.StatusIterLimit:
			sawIterLimit = true
			pruned++
			continue
		}
		relVal := sign * rel.Objective
		if relVal >= bestVal-float64(1e-9*(1+math.Abs(bestVal))) {
			pruned++
			continue // cannot improve
		}

		// Pick the most fractional integer variable.
		branch, fracDist := lp.Var(-1), -1.0
		for _, v := range intVars {
			x := rel.X[v]
			f := x - math.Floor(x)
			dist := math.Min(f, 1-f)
			if dist > intTol && dist > fracDist {
				branch, fracDist = v, dist
			}
		}
		if branch < 0 {
			// Integral: new incumbent. The reported objective is evaluated
			// at the *returned* point (integer values rounded exactly), not
			// the relaxation's value at the pre-rounding point, so the
			// certificate's Primal always describes the X handed back.
			if relVal < bestVal {
				bestVal = relVal
				incumbents++
				xr := roundInts(rel.X, intVars)
				best = &Solution{Status: lp.StatusOptimal, Objective: m.ObjValue(xr), X: xr, Nodes: nodes}
			}
			continue
		}

		x := rel.X[branch]
		down := &node{lb: cloneMap(cur.lb), ub: cloneMap(cur.ub), bound: relVal, basis: rel.Basis}
		down.ub[branch] = math.Floor(x)
		up := &node{lb: cloneMap(cur.lb), ub: cloneMap(cur.ub), bound: relVal, basis: rel.Basis}
		up.lb[branch] = math.Ceil(x)
		open = append(open, down, up)
	}

	if best.Status != lp.StatusOptimal {
		if nodes >= opt.MaxNodes || sawIterLimit {
			return &Solution{Status: lp.StatusIterLimit, Nodes: nodes}, nil
		}
		return &Solution{Status: lp.StatusInfeasible, Nodes: nodes}, nil
	}
	best.Nodes = nodes
	// The proven bound is the incumbent's LP relaxation value; with rounded
	// integer values the returned point's objective can differ from it by
	// O(intTol), which the certificate reports as a (tiny) gap.
	best.Bound = sign * bestVal
	if len(open) > 0 {
		// Search truncated: report the remaining bound honestly.
		rem := math.Inf(1)
		for _, n := range open {
			if n.bound < rem {
				rem = n.bound
			}
		}
		if rem < bestVal {
			best.Bound = sign * rem
		}
	}
	// Certify against the ORIGINAL model m, not the bound-tightened work
	// clone: branching bounds are search artifacts that only ever tighten
	// within m's bounds, so the incumbent is feasible for m and the
	// certificate must describe the problem the caller posed.
	best.Cert = certify(m, best)
	if rec != nil {
		rec.Observe("mip.gap", best.Cert.Gap)
	}
	return best, nil
}

func cloneMap(m map[lp.Var]float64) map[lp.Var]float64 {
	c := make(map[lp.Var]float64, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

func roundInts(x []float64, intVars []lp.Var) []float64 {
	out := append([]float64(nil), x...)
	for _, v := range intVars {
		out[v] = math.Round(out[v])
	}
	return out
}
