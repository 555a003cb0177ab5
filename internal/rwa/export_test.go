package rwa

import (
	"fmt"

	"github.com/arrow-te/arrow/internal/lp"
)

// Scratch lets the external tests run a sequence of calls through one
// scratch of their choosing instead of whatever the pool hands out.
type Scratch struct{ sc scratch }

func (s *Scratch) Solve(req *Request) (*Result, error) { return s.sc.solve(req) }

func (s *Scratch) AssignIntegral(res *Result, target []int) (*Assignment, bool) {
	a := new(Assignment)
	return a, s.sc.assignInto(a, res, target)
}

// DropPooledScratches makes the next pooled call start from a new scratch.
func DropPooledScratches() {
	scratchPool.Drop()
}

// VarKey names an assignment variable across models: the failed link's ID,
// its surrogate path's fibers as fmt prints them ("[3 17 4]") and the slot.
type VarKey struct {
	Link int
	Path string
	Slot int
}

// OptimalBasis solves req's assignment LP block by block, as Solve does
// without a memo, and returns the status at its block's optimum of every
// variable not at its lower bound. req's recorder sees none of it.
func OptimalBasis(req *Request) (map[VarKey]lp.BasisStatus, error) {
	r := *req
	r.Recorder, r.Memo = nil, nil
	var sc scratch
	res, err := sc.solve(&r)
	if err != nil {
		return nil, err
	}
	out := map[VarKey]lp.BasisStatus{}
	for first := range res.Failed {
		links := sc.block(res, first)
		if links == nil {
			continue
		}
		if _, err := sc.solveBlock(&r, res, links); err != nil {
			return nil, err
		}
		v := 0
		for _, li := range links {
			for _, opt := range res.Options[li] {
				for _, s := range opt.Slots {
					if st := sc.sol.Basis.VarStatus[v]; st != lp.BasisAtLower {
						out[VarKey{res.Failed[li], fmt.Sprint(opt.Fibers), s}] = st
					}
					v++
				}
			}
		}
	}
	return out, nil
}
