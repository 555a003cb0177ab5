package rwa

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

// WithoutPathKeys is withoutPathKeys for the external tests.
var WithoutPathKeys = withoutPathKeys
