package te

import (
	"fmt"
	"slices"
	"testing"

	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/lp"
	"github.com/arrow-te/arrow/internal/ticket"
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

// pricedInstance is a Fig. 7 variant whose first pricing round appends a
// block the seeded master's optimum violates: three parallel links, three
// flows with a tunnel on a second link each, and the three two-link
// failures with three tickets each.
func pricedInstance() (*Network, []RestorableScenario) {
	n := &Network{
		LinkCap: []float64{400, 800, 600},
		Flows:   []Flow{{0, 1, 300}, {0, 1, 500}, {0, 1, 200}},
		Tunnels: [][]Tunnel{
			{{Links: []int{0}}, {Links: []int{2}}},
			{{Links: []int{1}}, {Links: []int{2}}},
			{{Links: []int{2}}, {Links: []int{0}}},
		},
	}
	gbps := [][][2]float64{
		{{300, 200}, {100, 0}, {200, 400}},
		{{100, 200}, {400, 200}, {100, 0}},
		{{100, 200}, {100, 300}, {400, 300}},
	}
	var scs []RestorableScenario
	for qi, failed := range [][]int{{0, 1}, {1, 2}, {0, 2}} {
		sc := RestorableScenario{FailureScenario: FailureScenario{Prob: 0.01, FailedLinks: failed}, TicketLinks: failed}
		for _, g := range gbps[qi] {
			sc.Tickets = append(sc.Tickets, ticket.Ticket{Waves: []int{int(g[0] / 100), int(g[1] / 100)}, Gbps: g[:]})
		}
		scs = append(scs, sc)
	}
	return n, scs
}

// TestArrowFlightRecord pins the ledger's event order for one Arrow solve
// (warm and cold) and one ArrowNaive solve on the Fig. 7 instance, and one
// Arrow solve on pricedInstance: every LP solve is solve_start, then
// warm_start (warm only), solve_end and the solver-health series, and the
// colgen master, its re-solves (by the dual simplex), its canonical pass and
// both Phase II solves come in the order Arrow makes them.
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
			name: "arrow-priced",
			run: func(o *ArrowOptions) error {
				n, scs := pricedInstance()
				_, err := Arrow(n, scs, o)
				return err
			},
			want: []string{
				"solve_start arrow-phase1  0",
				"warm_start arrow-phase1 phase1_skipped 0",
				"solve_end arrow-phase1 optimal 0",
				"solver_health arrow-phase1  0",
				"pricing_round   0",
				"solve_start arrow-phase1  0",
				"warm_start arrow-phase1 dual 0",
				"solve_end arrow-phase1 optimal 0",
				"solver_health arrow-phase1  0",
				"pricing_round   1",
				"solve_start arrow-phase1-canon  0",
				"warm_start arrow-phase1-canon phase1_skipped 0",
				"solve_end arrow-phase1-canon optimal 0",
				"solver_health arrow-phase1-canon  0",
				"pricing_round   2",
				"solve_start arrow-phase2  0",
				"warm_start arrow-phase2 phase1_skipped 0",
				"solve_end arrow-phase2 optimal 0",
				"solver_health arrow-phase2  0",
				"solve_start arrow-phase2  0",
				"warm_start arrow-phase2 phase1_skipped 0",
				"solve_end arrow-phase2 optimal 0",
				"solver_health arrow-phase2  0",
				"winner   0",
				"winner   0",
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
