package te

import (
	"errors"
	"testing"

	"github.com/arrow-te/arrow/internal/lp"
)

// Every te LP is solved by solveModel, which wraps a non-optimal status with
// %w: one constructed LP per class, told apart by errors.Is.
func TestSolveModelWrapsStatusErrors(t *testing.T) {
	infeasible := lp.NewModel("infeasible")
	x := infeasible.AddVar(0, lp.Inf, 1, "x")
	infeasible.AddConstr(lp.Expr{}.Plus(1, x), lp.LE, 1, "")
	infeasible.AddConstr(lp.Expr{}.Plus(1, x), lp.GE, 2, "")

	unbounded := lp.NewModel("unbounded")
	unbounded.SetMaximize(true)
	x = unbounded.AddVar(0, lp.Inf, 1, "x")
	y := unbounded.AddVar(0, lp.Inf, 0, "y")
	unbounded.AddConstr(lp.Expr{}.Plus(1, x).Plus(-1, y), lp.LE, 1, "")

	// Two pivots to the optimum: x and y each enter once.
	twoPivots := lp.NewModel("two pivots")
	twoPivots.SetMaximize(true)
	x = twoPivots.AddVar(0, lp.Inf, 1, "x")
	y = twoPivots.AddVar(0, lp.Inf, 1, "y")
	twoPivots.AddConstr(lp.Expr{}.Plus(1, x), lp.LE, 1, "")
	twoPivots.AddConstr(lp.Expr{}.Plus(1, y), lp.LE, 1, "")

	for _, c := range []struct {
		m    *lp.Model
		opts *lp.Options
		want error
	}{
		{infeasible, nil, lp.ErrInfeasible},
		{unbounded, nil, lp.ErrUnbounded},
		{twoPivots, &lp.Options{MaxIter: 1}, lp.ErrIterLimit},
	} {
		_, err := solveModel(new(lp.Solution), c.m, c.m.Name(), nil, c.opts, nil)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: solveModel returned %v, want an error wrapping %v", c.m.Name(), err, c.want)
		}
		for _, other := range []error{lp.ErrInfeasible, lp.ErrUnbounded, lp.ErrIterLimit, lp.ErrSingular} {
			if other != c.want && errors.Is(err, other) {
				t.Errorf("%s: %v also matches %v", c.m.Name(), err, other)
			}
		}
	}
	if _, err := solveModel(new(lp.Solution), twoPivots, "two pivots", nil, nil, nil); err != nil {
		t.Errorf("two pivots without a limit: %v", err)
	}
}
