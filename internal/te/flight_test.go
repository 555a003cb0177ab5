package te

import (
	"fmt"
	"slices"
	"testing"

	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/lp"
)

// flightRecord is the ordered (kind, solver, status, round) sequence a
// ledger holds: the order in which the TE solves bracket their LPs.
func flightRecord(L *ledger.Ledger) []string {
	var out []string
	for _, ev := range L.Events() {
		out = append(out, fmt.Sprintf("%s %s %s %d", ev.Kind, ev.Solver, ev.Status, ev.Round))
	}
	return out
}

// TestArrowFlightRecord pins the ledger's event order for one Arrow solve
// (warm and cold) and one ArrowNaive solve on the Fig. 7 instance: every LP
// solve is solve_start, then warm_start (warm only), solve_end and the
// solver-health series, and the colgen master, its canonical pass and both
// Phase II solves come in the order Arrow makes them.
func TestArrowFlightRecord(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(*ArrowOptions) error
		opts ArrowOptions
		want []string
	}{
		{
			name: "arrow",
			run:  func(o *ArrowOptions) error { _, err := Arrow(parallelLinks(), fig7Scenario(), o); return err },
			want: []string{
				"solve_start arrow-phase1  0",
				"warm_start arrow-phase1 phase1_skipped 0",
				"solve_end arrow-phase1 optimal 0",
				"solver_health arrow-phase1  0",
				"pricing_round   0",
				"solve_start arrow-phase1-canon  0",
				"warm_start arrow-phase1-canon phase1_skipped 0",
				"solve_end arrow-phase1-canon optimal 0",
				"solver_health arrow-phase1-canon  0",
				"pricing_round   1",
				"solve_start arrow-phase2  0",
				"warm_start arrow-phase2 phase1_skipped 0",
				"solve_end arrow-phase2 optimal 0",
				"solver_health arrow-phase2  0",
				"solve_start arrow-phase2  0",
				"warm_start arrow-phase2 phase1_skipped 0",
				"solve_end arrow-phase2 optimal 0",
				"solver_health arrow-phase2  0",
				"winner   0",
				"unmet_demand   0",
			},
		},
		{
			name: "arrow-cold",
			run:  func(o *ArrowOptions) error { _, err := Arrow(parallelLinks(), fig7Scenario(), o); return err },
			opts: ArrowOptions{NoWarm: true},
			want: []string{
				"solve_start arrow-phase1  0",
				"solve_end arrow-phase1 optimal 0",
				"solver_health arrow-phase1  0",
				"solver_health arrow-phase1  0",
				"pricing_round   0",
				"solve_start arrow-phase1-canon  0",
				"solve_end arrow-phase1-canon optimal 0",
				"solver_health arrow-phase1-canon  0",
				"solver_health arrow-phase1-canon  0",
				"pricing_round   1",
				"solve_start arrow-phase2  0",
				"solve_end arrow-phase2 optimal 0",
				"solver_health arrow-phase2  0",
				"solve_start arrow-phase2  0",
				"solve_end arrow-phase2 optimal 0",
				"solver_health arrow-phase2  0",
				"winner   0",
				"unmet_demand   0",
			},
		},
		{
			name: "naive",
			run:  func(o *ArrowOptions) error { _, err := ArrowNaive(parallelLinks(), fig7Scenario(), o); return err },
			want: []string{
				"solve_start arrow-phase2  0",
				"warm_start arrow-phase2 phase1_skipped 0",
				"solve_end arrow-phase2 optimal 0",
				"solver_health arrow-phase2  0",
				"winner   0",
				"unmet_demand   0",
			},
		},
	} {
		L := ledger.New()
		opts := tc.opts
		opts.Ledger, opts.LP = L, &lp.Options{HealthEvery: 1}
		if err := tc.run(&opts); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := flightRecord(L); !slices.Equal(got, tc.want) {
			t.Errorf("%s: flight record\n%q\nwant\n%q", tc.name, got, tc.want)
		}
	}
}
