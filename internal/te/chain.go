package te

import (
	"fmt"
	"math"

	"github.com/arrow-te/arrow/internal/lp"
)

// checkScales reports a demand scale a chain cannot solve at: every scale
// must be positive and finite.
func checkScales(solver string, scales []float64) error {
	for _, s := range scales {
		if !(s > 0) || math.IsInf(s, 1) {
			return fmt.Errorf("te: %s: demand scale %g must be positive and finite", solver, s)
		}
	}
	return nil
}

// scaleChain solves m, a baseline's model built on base at demand scale 1,
// at every s of scales, in order, and hands read each scale's index, scale
// and solution. The model's capacity rows are consecutive from cap0, one
// per link some tunnel crosses, in link order. With every flow variable
// written as s times a scale-free one, the baseline at demand scale s is
// the model at scale 1 with each capacity row's right-hand side c_e/s, and
// nothing else moves: so each scale sets those right-hand sides and
// re-solves from the previous scale's optimal basis, which stays dual
// feasible, and read scales the solution back.
//
// The first scale solves from the all-slack basis. A warm re-solve may take
// at most as many pivots as that first solve; one that runs out of them or
// fails otherwise (solveModel: a solver error, a status but optimal, a
// certificate that does not pass) is solved again from the all-slack basis
// and counted in te.chain_restarts. The optimum is degenerate, so a warm
// re-solve may land on another optimal vertex than a solve of
// base.Scaled(s) from slack would; the objective is the same. A solution
// handed to read is reused two scales later. The model goes back to the
// pool once the chain is solved.
func (bl Baselines) scaleChain(base *Network, m *lp.Model, cap0 lp.Constr, scales []float64, read func(i int, s float64, sol *lp.Solution)) error {
	sols := [2]*lp.Solution{solutionPool.Get(), solutionPool.Get()}
	slack := basisPool.Get()
	defer func() {
		solutionPool.Put(sols[0])
		solutionPool.Put(sols[1])
		basisPool.Put(slack)
	}()
	var guard lp.Options // a warm re-solve's options: bl.LP's, with MaxIter
	if bl.LP != nil {
		guard = *bl.LP
	}
	for i, s := range scales {
		c := cap0
		for e, refs := range base.incidence() {
			if len(refs) > 0 {
				m.SetRHS(c, base.LinkCap[e]/s)
				c++
			}
		}
		dst := sols[i%2]
		var sol *lp.Solution
		var err error
		if i > 0 {
			sol, err = solveModel(dst, m, m.Name(), sols[(i-1)%2].Basis, &guard, nil)
			if err != nil && guard.Recorder != nil {
				guard.Recorder.Add("te.chain_restarts", 1)
			}
		}
		if sol == nil {
			slack.ResetSlack(m)
			if sol, err = solveModel(dst, m, m.Name(), slack, bl.LP, nil); err != nil {
				return err
			}
		}
		if i == 0 {
			guard.MaxIter = max(sol.Iterations, 1)
		}
		read(i, s, sol)
	}
	modelPool.Put(m)
	return nil
}
