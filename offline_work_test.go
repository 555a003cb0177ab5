package arrow

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/race"
)

var updateWork = flag.Bool("update-work", false, "rewrite testdata/offline_work.golden and testdata/online_work.golden")

// offlineWorkCounters are the recorder counters of the offline stage's
// work: what it enumerated and pruned, the RWA solves, the blocks their LPs
// split into (solved, or answered by the plan's block memo), the LP solves
// and their pivots, and what ticket rounding drew, dropped and kept.
var offlineWorkCounters = []string{
	"scenario.enumerated", "scenario.pruned",
	"rwa.solves", "rwa.block_solves", "rwa.block_hits",
	"lp.solves", "lp.pivots", "lp.pivot_work", "lp.refactorizations",
	"ticket.rounding_attempts", "ticket.infeasible", "ticket.duplicates", "ticket.generated",
}

// offlineWorkSeeds are the plan seeds the golden records.
var offlineWorkSeeds = []int64{1, 2}

// offlineWorkTopo is the seed of the topology the golden plans: the
// repository benchmark's offline-plan instance, topo.B4(instanceSeed + 5).
const offlineWorkTopo = 6

// offlineWork plans net under the b4-srlg-k3 options once per seed at the given
// worker count and renders the work counters of each plan.
func offlineWork(t *testing.T, net *Network, in offlineInstance, workers int) string {
	t.Helper()
	var b strings.Builder
	for _, seed := range offlineWorkSeeds {
		reg := obs.NewRegistry()
		opts := in.planOptions(workers)
		opts.Seed = seed
		p, err := net.PlanContext(obs.WithRecorder(context.Background(), reg), opts)
		if err != nil {
			t.Fatalf("seed %d (workers=%d): %v", seed, workers, err)
		}
		fmt.Fprintf(&b, "seed %d scenarios %d\n", seed, p.NumScenarios())
		for _, name := range offlineWorkCounters {
			fmt.Fprintf(&b, "  %s %d\n", name, reg.Counter(name))
		}
	}
	return b.String()
}

// TestOfflineWorkGolden pins the work of the offline stage, answer-free,
// against testdata/offline_work.golden at 1 and 4 workers, on the
// repository benchmark's offline-plan instance: B4 with its conduit SRLGs,
// cut sets of up to three elements, drawn from topo.B4(6) (offlineWorkTopo,
// the benchmark's instance seed + 5), planned at two of the plan seeds the
// workload cycles. Each plan takes 44,842 pivots, the workload's own. A
// change that moves only bytes leaves it as it is; one that moves the work
// on purpose rewrites it and quotes its diff:
//
//	go test -run TestOfflineWorkGolden -update-work .
func TestOfflineWorkGolden(t *testing.T) {
	if testing.Short() || race.Enabled {
		t.Skip("plans the B4 + SRLG instance four times")
	}
	var in offlineInstance
	for _, c := range offlineInstances {
		if c.name == "b4-srlg-k3" {
			in = c
		}
	}
	tp, err := in.topo(offlineWorkTopo)
	if err != nil {
		t.Fatal(err)
	}
	net := rebuildThroughBuilder(t, tp)
	one, four := offlineWork(t, net, in, 1), offlineWork(t, net, in, 4)
	if one != four {
		t.Fatalf("1 and 4 workers do different work:\n%s\nvs\n%s", one, four)
	}
	golden := filepath.Join("testdata", "offline_work.golden")
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
		t.Errorf("the offline stage's work drifted from %s (regenerate deliberately with -update-work):\n got:\n%s\nwant:\n%s",
			golden, one, want)
	}
}
