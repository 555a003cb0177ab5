package arrow

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"testing"

	"github.com/arrow-te/arrow/internal/stats"
	"github.com/arrow-te/arrow/internal/topo"
	"github.com/arrow-te/arrow/internal/traffic"
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
	tp, err := topo.Facebook(6)
	if err != nil {
		t.Fatal(err)
	}
	net := rebuildThroughBuilder(t, tp)
	p, err := net.Plan(PlanOptions{Tickets: 12, Cutoff: 2e-4, Parallelism: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ms := traffic.Generate(traffic.Options{Sites: tp.NumRouters(), Count: 4, MaxFlows: 120, TotalGbps: 1, Seed: 8})
	capSum := stats.Sum(tp.LinkCaps())
	var got bytes.Buffer
	for mi, m := range ms {
		ds := make([]Demand, len(m.Flows))
		for i, f := range m.Flows {
			ds[i] = Demand{Src: int(tp.Routers[f.Src]), Dst: int(tp.Routers[f.Dst]), Gbps: f.Demand * (0.0375 * capSum)}
		}
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
