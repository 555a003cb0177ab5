package rwa

import (
	"fmt"

	"github.com/arrow-te/arrow/internal/mip"
)

// SolveExact solves the wavelength-assignment problem of Appendix A.2 as an
// ILP (binary xi variables) instead of the LP relaxation, returning the
// true maximum number of restorable wavelengths per failed link. It shares
// the routing step with Solve.
//
// The ILP is NP-hard and only intended for small instances: it is the
// ground truth used to validate that (a) the LP relaxation upper-bounds it
// and (b) the greedy integral assignment achieves it on practical cases.
func SolveExact(req *Request, opts *mip.Options) (*Result, error) {
	// Reuse the routing and slot preparation from the relaxed solve.
	res, err := Solve(req)
	if err != nil {
		return nil, err
	}
	if len(res.Failed) == 0 {
		return res, nil
	}

	// The model is Solve's with xi binary; mip works on a clone, so the
	// scratch can go back as soon as the solve returns.
	sc := scratchPool.Get()
	defer scratchPool.Put(sc)
	links := make([]int, len(res.Failed))
	for i := range links {
		links[i] = i
	}
	m := sc.buildModel(res, links, "rwa-exact", true)
	if m.NumVars() == 0 {
		return res, nil
	}
	sol, err := mip.Solve(m, opts)
	if err != nil {
		return nil, fmt.Errorf("rwa exact: %w", err)
	}
	if err := sol.Status.Err(); err != nil {
		return nil, fmt.Errorf("rwa exact: %w", err)
	}
	out := &Result{
		Net: res.Net, AllowTuning: res.AllowTuning, Failed: res.Failed, OrigWaves: res.OrigWaves,
		GbpsPerWave: res.GbpsPerWave, Options: res.Options,
	}
	out.FracWaves = make([]float64, len(res.Failed))
	for li := range res.Failed {
		total := 0.0
		for _, x := range sol.X[sc.optBase[sc.linkOpt[li]]:sc.optBase[sc.linkOpt[li+1]]] {
			total += x
		}
		out.FracWaves[li] = total
		out.Objective += total
	}
	return out, nil
}
