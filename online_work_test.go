package arrow

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/race"
)

// onlineWorkCounters are the recorder counters of one online TE solve's
// work: its pivots, their work and how many were feasibility or dual
// pivots, the refactorisations, Phase I's pricing sweeps, and whether the
// all-ticket-0 Phase II was kept over Phase I's winners.
var onlineWorkCounters = []string{
	"lp.pivots", "lp.pivot_work", "lp.phase1_pivots", "lp.dual_pivots", "lp.refactorizations",
	"te.pricing_rounds", "te.fallback_kept",
}

// onlineWork solves each matrix of the online-te instance on a fresh copy of
// p at the given worker count and renders per matrix the work counters and
// the model sizes and pivots of both phases.
func onlineWork(t *testing.T, p *Planner, sets [][]Demand, workers int) string {
	t.Helper()
	var b strings.Builder
	for mi, ds := range sets {
		reg := obs.NewRegistry()
		q := freshPlanner(p, reg)
		q.teOpts.Parallelism = workers
		plan, err := q.Solve(ds, SolveOptions{})
		if err != nil {
			t.Fatalf("matrix %d (workers=%d): %v", mi, workers, err)
		}
		s := plan.alloc.Stats
		fmt.Fprintf(&b, "m%d phase1 rows %d pivots %d | phase2 rows %d pivots %d\n",
			mi, s.Phase1Rows, s.Phase1Iters, s.Phase2Rows, s.Phase2Iters)
		for _, name := range onlineWorkCounters {
			fmt.Fprintf(&b, "  %s %d\n", name, reg.Counter(name))
		}
	}
	return b.String()
}

// TestOnlineWorkGolden pins the work of the online-te workload's four TE
// solves (TestOnlinePlansGolden pins their answers), answer-free, against
// testdata/online_work.golden at 1 and 4 pricing workers. A change that
// moves only bytes, or work off the online path, leaves it as it is; one
// that moves the work on purpose rewrites it and quotes its diff:
//
//	go test -run TestOnlineWorkGolden -update-work .
func TestOnlineWorkGolden(t *testing.T) {
	if testing.Short() || race.Enabled {
		t.Skip("plans the Facebook network and runs eight TE solves")
	}
	_, p, sets := onlineInstance(t, context.Background())
	one, four := onlineWork(t, p, sets, 1), onlineWork(t, p, sets, 4)
	if one != four {
		t.Fatalf("1 and 4 workers do different work:\n%s\nvs\n%s", one, four)
	}
	golden := filepath.Join("testdata", "online_work.golden")
	if *updateWork {
		if err := os.WriteFile(golden, []byte(one), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-work): %v", err)
	}
	if one != string(want) {
		t.Errorf("the online solves' work drifted from %s (regenerate deliberately with -update-work):\n got:\n%s\nwant:\n%s",
			golden, one, want)
	}
}
