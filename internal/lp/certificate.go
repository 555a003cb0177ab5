package lp

import (
	"fmt"
	"math"
)

// DefaultCertTol is the tolerance CheckCertificate applies when the caller
// passes 0: the relative duality gap and both infeasibility residuals must
// stay below it for a solve to count as certified. It sits an order of
// magnitude above the solver's own feasTol/optTol (1e-7), so a certificate
// failure means genuine numerical trouble, not tolerance jitter.
const DefaultCertTol = 1e-6

// Certificate is the per-solve optimality evidence attached to every
// optimal Solution: the primal and dual objective values, their relative
// gap, and the worst primal/dual feasibility residuals of the final basis.
// It turns "the simplex said optimal" into an independently checkable
// claim — weak duality bounds the true optimum between Primal and Dual, so
// a small gap plus small residuals certifies the solution without trusting
// the pivot sequence that produced it.
//
// All values are reported in the model's own optimisation sense.
type Certificate struct {
	// Primal is the objective value c·x of the returned solution.
	Primal float64 `json:"primal"`
	// Dual is the Lagrangian dual objective implied by the final basis
	// duals and reduced costs; by weak duality it bounds the optimum.
	Dual float64 `json:"dual"`
	// Gap is the relative duality gap |Primal-Dual| / (1 + |Primal|).
	Gap float64 `json:"gap"`
	// PrimalInf is the largest constraint or bound violation of the
	// internal solution point.
	PrimalInf float64 `json:"primal_inf"`
	// DualInf is the largest reduced-cost sign violation over the nonbasic
	// variables (and |d_j| over basic ones, which should price to zero).
	DualInf float64 `json:"dual_inf"`
}

// CheckCertificate verifies that c certifies an optimal solve under tol
// (0 selects DefaultCertTol): the relative duality gap and both residuals
// must be below tol. A nil certificate fails — an optimal solve without one
// is itself a defect.
func CheckCertificate(c *Certificate, tol float64) error {
	if tol <= 0 {
		tol = DefaultCertTol
	}
	if c == nil {
		return fmt.Errorf("lp: no certificate attached")
	}
	switch {
	case math.IsNaN(c.Gap) || c.Gap > tol:
		return fmt.Errorf("lp: duality gap %.3g exceeds tolerance %.3g (primal %.10g, dual %.10g)", c.Gap, tol, c.Primal, c.Dual)
	case math.IsNaN(c.PrimalInf) || c.PrimalInf > tol:
		return fmt.Errorf("lp: primal infeasibility %.3g exceeds tolerance %.3g", c.PrimalInf, tol)
	case math.IsNaN(c.DualInf) || c.DualInf > tol:
		return fmt.Errorf("lp: dual infeasibility %.3g exceeds tolerance %.3g", c.DualInf, tol)
	}
	return nil
}

// certificate computes the optimality certificate of the final basis off
// the duals finalDuals left in sx.y. It runs once per optimal solve, after
// the last pivot: one pass over the columns, and it never mutates solver
// state, so attaching it cannot change the pivot sequence or the returned
// solution.
func (sx *simplex) certificate() *Certificate {
	y := sx.y

	// Primal residual: equality rows A x = b over every column (artificials
	// included — they are pinned to zero after phase 1, so any leftover
	// value is itself a violation), plus bound violations.
	res := sx.rhs // the pivot loop is done with it
	copy(res, sx.b)
	for j := 0; j < sx.nTot; j++ {
		if v := sx.x[j]; v != 0 {
			c := &sx.cols[j]
			for i, r := range c.rows {
				res[r] -= float64(c.vals[i] * v)
			}
		}
	}
	pinf := 0.0
	for _, r := range res {
		if v := math.Abs(r); v > pinf {
			pinf = v
		}
	}
	for j := 0; j < sx.nStr+sx.nRow; j++ {
		if v := sx.lb[j] - sx.x[j]; v > pinf {
			pinf = v
		}
		if v := sx.x[j] - sx.ub[j]; v > pinf {
			pinf = v
		}
	}

	// Dual objective g = b·y + sum over nonbasic j of d_j x_j, and the
	// worst reduced-cost sign violation. Minimisation optimality wants
	// d_j >= 0 at a lower bound, d_j <= 0 at an upper bound, d_j = 0 for
	// basic and nonbasic-free variables. Variables pinned by lb == ub
	// (retired artificials, fixed vars) admit any sign.
	g := 0.0
	for i := range sx.b {
		g += float64(sx.b[i] * y[i])
	}
	primal := 0.0
	dinf := 0.0
	for j := 0; j < sx.nTot; j++ {
		dj := sx.cost[j]
		c := &sx.cols[j]
		for i, r := range c.rows {
			dj -= float64(y[r] * c.vals[i])
		}
		primal += float64(sx.cost[j] * sx.x[j])
		if sx.status[j] == basic {
			if v := math.Abs(dj); v > dinf {
				dinf = v
			}
			continue
		}
		g += float64(dj * sx.x[j])
		if sx.lb[j] == sx.ub[j] {
			continue
		}
		var v float64
		switch sx.status[j] {
		case atLower:
			v = -dj
		case atUpper:
			v = dj
		default: // nonbasic free: must price to zero
			v = math.Abs(dj)
		}
		if v > dinf {
			dinf = v
		}
	}

	cert := &Certificate{
		Gap:       math.Abs(primal-g) / (1 + math.Abs(primal)),
		PrimalInf: pinf,
		DualInf:   dinf,
	}
	// Convert the internal minimisation values back to the model's sense.
	if sx.m.maximize {
		cert.Primal, cert.Dual = -primal, -g
	} else {
		cert.Primal, cert.Dual = primal, g
	}
	return cert
}
