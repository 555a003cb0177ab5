package arrow

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"testing"
)

var updateOnlinePlans = flag.Bool("update-online-plans", false, "rewrite testdata/online_plans.golden")

// TestOnlinePlansGolden pins the answers of the benchmark's online-te
// workload: the Facebook(6) planner with 12 tickets at cutoff 2e-4 (seed 1,
// one worker) solving each of the four diurnal traffic matrices of 120
// flows, every flow scaled to 3.75 % of the summed IP capacity. Each line
// holds a digest of the winning tickets, the throughput and the
// availability, at %.12g. The instance is rebuilt here the way
// benchmark/workloads.go builds it, without importing it. A solver change
// that takes other pivots to the same optima leaves the file alone;
// regenerate it (-update-online-plans) only for a change that means to move
// the answers.
func TestOnlinePlansGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("plans the Facebook network and runs four TE solves")
	}
	const golden = "testdata/online_plans.golden"
	_, p, sets := onlineInstance(t, context.Background())
	var got bytes.Buffer
	for mi, ds := range sets {
		plan, err := p.Solve(ds, SolveOptions{})
		if err != nil {
			t.Fatalf("matrix %d: %v", mi, err)
		}
		winners := sha256.Sum256([]byte(fmt.Sprint(plan.alloc.WinningTicket)))
		fmt.Fprintf(&got, "m%d winners=%x throughput=%.12g availability=%.12g\n",
			mi, winners[:8], plan.Throughput(), plan.Availability())
	}
	if *updateOnlinePlans {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("online answers moved:\n--- got\n%s--- want (%s)\n%s", got.Bytes(), golden, want)
	}
}
