package te

import "github.com/arrow-te/arrow/internal/lp"

// CapRow locates one capacity row of a solved TE model: the healthy
// IP-link capacity rows cap_e (Scenario -1) and, for ARROW Phase II, the
// restored-ticket capacity rows p2cap_e_q (constraint (11)). Links whose
// tunnels never touch them get no row, so CapRows is sparse. Phase II
// writes a load once however many (link, scenario) pairs bound it, at the
// least of their bounds: its CapRow names the pair that first set that
// bound, and the row keeps the name of the pair that first wrote it.
type CapRow struct {
	Link     int       `json:"link"`
	Scenario int       `json:"scenario"` // -1 for healthy cap_e rows
	Constr   lp.Constr `json:"constr"`
}

// SensitivityHandle carries the artifacts of the final Phase II solve that
// post-solve availability attribution (internal/attr) consumes: the solved
// model, its optimal basis and duals, the capacity-row handles, and the
// variable layout needed to extract allocations from probe re-solves.
// Captured only when ArrowOptions.CaptureSensitivity is set; the pipeline
// itself never reads the model again, so attribution may transiently
// perturb row RHS values (SetRHS + SolveWithBasis) as long as it restores
// them. Capturing changes no solve behaviour: the handle only retains
// pointers the solve produced anyway.
type SensitivityHandle struct {
	Model     *lp.Model
	Basis     *lp.Basis
	Duals     []float64
	Objective float64
	CapRows   []CapRow
	// BVars / AVars mirror the baseModel variable layout (b_f and a_{f,t})
	// so probe solutions can be extracted into Allocations.
	BVars []lp.Var
	AVars [][]lp.Var
}

// ExtractAllocation converts a probe re-solve's primal point into B/A
// slices using the captured variable layout.
func (h *SensitivityHandle) ExtractAllocation(x []float64) (b []float64, a [][]float64) {
	b = make([]float64, len(h.BVars))
	a = make([][]float64, len(h.AVars))
	for f, v := range h.BVars {
		b[f] = x[v]
	}
	for f, vs := range h.AVars {
		a[f] = make([]float64, len(vs))
		for ti, v := range vs {
			a[f][ti] = x[v]
		}
	}
	return b, a
}
