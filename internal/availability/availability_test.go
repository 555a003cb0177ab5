package availability

import (
	"math"
	"testing"

	"github.com/arrow-te/arrow/internal/te"
)

// twoTunnelNet: one flow, demand 100, two disjoint one-link tunnels of
// capacity 100 each, allocation 50/50, b = 100.
func twoTunnelNet() (*te.Network, *te.Allocation) {
	n := &te.Network{
		LinkCap: []float64{100, 100},
		Flows:   []te.Flow{{Src: 0, Dst: 1, Demand: 100}},
		Tunnels: [][]te.Tunnel{{{Links: []int{0}}, {Links: []int{1}}}},
	}
	al := &te.Allocation{B: []float64{100}, A: [][]float64{{50, 50}}}
	return n, al
}

func TestDeliveredHealthy(t *testing.T) {
	n, al := twoTunnelNet()
	ev := &Evaluator{Net: n, Alloc: al}
	if d := ev.Delivered(&ScenarioEval{}); math.Abs(d-1) > 1e-9 {
		t.Fatalf("healthy delivered %g", d)
	}
}

func TestDeliveredUnderFailureProportional(t *testing.T) {
	n, al := twoTunnelNet()
	ev := &Evaluator{Net: n, Alloc: al}
	// Link 0 dies: all 100 shifts to tunnel 1 (cap 100) -> fully delivered.
	d := ev.Delivered(&ScenarioEval{Failed: []int{0}})
	if math.Abs(d-1) > 1e-9 {
		t.Fatalf("delivered %g, want 1", d)
	}
	// Demand above surviving capacity: shed at the link.
	n.Flows[0].Demand = 150
	al.B[0] = 150
	al.A[0] = []float64{75, 75}
	d = ev.Delivered(&ScenarioEval{Failed: []int{0}})
	if math.Abs(d-100.0/150) > 1e-9 {
		t.Fatalf("delivered %g, want %g", d, 100.0/150)
	}
}

func TestDeliveredWithRestoration(t *testing.T) {
	n, al := twoTunnelNet()
	n.Flows[0].Demand = 150
	al.B[0] = 150
	al.A[0] = []float64{75, 75}
	ev := &Evaluator{Net: n, Alloc: al}
	// Link 0 fails but 40 Gbps restored: tunnel 0 stays active with cap 40.
	d := ev.Delivered(&ScenarioEval{Failed: []int{0}, Restored: restoring(0, 40)})
	// Sends 75/75; link 0 sheds to 40 -> delivered 40 + 75 = 115.
	if math.Abs(d-115.0/150) > 1e-9 {
		t.Fatalf("delivered %g, want %g", d, 115.0/150)
	}
}

func TestDeliveredECMPRebalance(t *testing.T) {
	n, al := twoTunnelNet()
	al.A[0] = []float64{100, 0} // proportional would send all on tunnel 0
	ev := &Evaluator{Net: n, Alloc: al, ECMPRebalance: true}
	d := ev.Delivered(&ScenarioEval{})
	if math.Abs(d-1) > 1e-9 { // 50/50 fits both links
		t.Fatalf("delivered %g", d)
	}
	// With rebalance off and asymmetric allocation, link 0 overloads at
	// demand 150.
	n.Flows[0].Demand = 150
	al.B[0] = 150
	ev2 := &Evaluator{Net: n, Alloc: al}
	d2 := ev2.Delivered(&ScenarioEval{})
	if math.Abs(d2-100.0/150) > 1e-9 {
		t.Fatalf("proportional delivered %g, want %g", d2, 100.0/150)
	}
}

func TestDeliveredTotalLossWhenNoTunnel(t *testing.T) {
	n, al := twoTunnelNet()
	ev := &Evaluator{Net: n, Alloc: al}
	d := ev.Delivered(&ScenarioEval{Failed: []int{0, 1}})
	if d != 0 {
		t.Fatalf("delivered %g, want 0", d)
	}
	// Restoring one link partially revives delivery.
	d = ev.Delivered(&ScenarioEval{Failed: []int{0, 1}, Restored: restoring(1, 30)})
	if math.Abs(d-0.3) > 1e-9 {
		t.Fatalf("delivered %g, want 0.3", d)
	}
}

func TestAvailabilityWeighting(t *testing.T) {
	n, al := twoTunnelNet()
	n.Flows[0].Demand = 150
	al.B[0] = 150
	al.A[0] = []float64{75, 75}
	ev := &Evaluator{Net: n, Alloc: al}
	scs := []ScenarioEval{
		{Prob: 0.1, Failed: []int{0}},    // delivers 2/3
		{Prob: 0.1, Failed: []int{0, 1}}, // delivers 0
	}
	// Healthy (p=0.8) delivers 1.
	want := (0.8*1 + 0.1*(100.0/150) + 0.1*0) / 1.0
	got := ev.Availability(scs)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("availability %g, want %g", got, want)
	}
}

func TestGuaranteedThroughput(t *testing.T) {
	n, al := twoTunnelNet()
	n.Flows[0].Demand = 150
	al.B[0] = 150
	al.A[0] = []float64{75, 75}
	ev := &Evaluator{Net: n, Alloc: al}
	scs := []ScenarioEval{
		{Prob: 0.05, Failed: []int{0}},    // 2/3
		{Prob: 0.01, Failed: []int{0, 1}}, // 0
	}
	// Cumulative sorted descending: healthy 0.94 @1, then 0.05 @2/3, then 0.01 @0.
	if g := ev.GuaranteedThroughput(scs, 0.9); math.Abs(g-1) > 1e-9 {
		t.Fatalf("beta=0.9: %g", g)
	}
	if g := ev.GuaranteedThroughput(scs, 0.97); math.Abs(g-100.0/150) > 1e-9 {
		t.Fatalf("beta=0.97: %g", g)
	}
	if g := ev.GuaranteedThroughput(scs, 0.9999); g != 0 {
		t.Fatalf("beta=0.9999: %g", g)
	}
}

func TestRequiredCapacity(t *testing.T) {
	n, al := twoTunnelNet()
	ev := &Evaluator{Net: n, Alloc: al}
	scs := []ScenarioEval{{Prob: 0.01, Failed: []int{0}}}
	// Worst case per link: link 0 carries 50 healthy; link 1 carries 100
	// under failure. CAP = 150. Guaranteed throughput at 0.99 = 1.
	got := ev.RequiredCapacity(scs, 0.99)
	if math.Abs(got-150) > 1e-9 {
		t.Fatalf("required capacity %g, want 150", got)
	}
}

func TestPerFlowAvailability(t *testing.T) {
	// Two flows: flow 0 rides link 0 only; flow 1 rides link 1 only.
	n := &te.Network{
		LinkCap: []float64{100, 100},
		Flows:   []te.Flow{{Src: 0, Dst: 1, Demand: 80}, {Src: 0, Dst: 2, Demand: 80}},
		Tunnels: [][]te.Tunnel{{{Links: []int{0}}}, {{Links: []int{1}}}},
	}
	al := &te.Allocation{B: []float64{80, 80}, A: [][]float64{{80}, {80}}}
	ev := &Evaluator{Net: n, Alloc: al}
	// Link 0 fails with probability 0.2, no restoration: flow 0 fully
	// down in that scenario, flow 1 untouched.
	scs := []ScenarioEval{{Prob: 0.2, Failed: []int{0}}}
	per := ev.PerFlowAvailability(scs)
	if math.Abs(per[0]-0.8) > 1e-9 {
		t.Fatalf("flow 0 availability %g, want 0.8", per[0])
	}
	if math.Abs(per[1]-1.0) > 1e-9 {
		t.Fatalf("flow 1 availability %g, want 1.0", per[1])
	}
	// Weighted mean of per-flow equals the aggregate (equal demands).
	agg := ev.Availability(scs)
	if math.Abs((per[0]+per[1])/2-agg) > 1e-9 {
		t.Fatalf("per-flow mean %g vs aggregate %g", (per[0]+per[1])/2, agg)
	}
	// Restoration lifts the unlucky flow.
	scs[0].Restored = restoring(0, 40)
	per = ev.PerFlowAvailability(scs)
	if math.Abs(per[0]-(0.8+0.2*0.5)) > 1e-9 {
		t.Fatalf("flow 0 availability with restoration %g", per[0])
	}
}
