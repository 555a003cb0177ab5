package availability

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/arrow-te/arrow/internal/race"
	"github.com/arrow-te/arrow/internal/te"
)

// The evaluator as it was before one pass served every scenario: each
// scenario's capacities in a map of its own, its loads and sends in new
// slices. Kept as the oracle the pass is held to.

func refCapOf(ev *Evaluator, sc *ScenarioEval) func(e int) float64 {
	restored := map[int]float64{} // a link's first entry in the plan
	for i, e := range sc.Restored.Links {
		if _, ok := restored[e]; !ok {
			restored[e] = sc.Restored.Gbps[i]
		}
	}
	capOf := make(map[int]float64, len(sc.Failed))
	for _, e := range sc.Failed {
		capOf[e] = restored[e]
	}
	return func(e int) float64 {
		if c, ok := capOf[e]; ok {
			return c
		}
		return ev.Net.LinkCap[e]
	}
}

// refRoute returns every tunnel's send, flow by flow, and the links' loads
// before shedding.
func refRoute(ev *Evaluator, linkCap func(int) float64) (sends [][]float64, load []float64) {
	n := ev.Net
	load = make([]float64, len(n.LinkCap))
	for f := range n.Flows {
		send := make([]float64, len(n.Tunnels[f]))
		sends = append(sends, send)
		var active []int
		for ti, t := range n.Tunnels[f] {
			ok := true
			for _, e := range t.Links {
				if linkCap(e) <= 0 {
					ok = false
					break
				}
			}
			if ok {
				active = append(active, ti)
			}
		}
		if len(active) == 0 {
			continue
		}
		b := ev.Alloc.B[f]
		wsum := 0.0
		if !ev.ECMPRebalance {
			for _, ti := range active {
				wsum += ev.Alloc.A[f][ti]
			}
		}
		for _, ti := range active {
			if ev.ECMPRebalance || wsum <= 0 {
				send[ti] = b / float64(len(active))
			} else {
				send[ti] = b * ev.Alloc.A[f][ti] / wsum
			}
			for _, e := range n.Tunnels[f][ti].Links {
				load[e] += send[ti]
			}
		}
	}
	return sends, load
}

func refLinkLoads(ev *Evaluator, sc *ScenarioEval) []float64 {
	linkCap := refCapOf(ev, sc)
	_, load := refRoute(ev, linkCap)
	for e := range load {
		if c := linkCap(e); load[e] > c {
			load[e] = c
		}
	}
	return load
}

func refDeliveredPerFlow(ev *Evaluator, sc *ScenarioEval) []float64 {
	n := ev.Net
	linkCap := refCapOf(ev, sc)
	sends, load := refRoute(ev, linkCap)
	shed := make([]float64, len(load))
	for e := range shed {
		c := linkCap(e)
		if load[e] <= c || load[e] <= 0 {
			shed[e] = 1
		} else {
			shed[e] = c / load[e]
		}
	}
	out := make([]float64, len(n.Flows))
	for f := range n.Flows {
		df := 0.0
		for ti, send := range sends[f] {
			if send <= 0 {
				continue
			}
			factor := 1.0
			for _, e := range n.Tunnels[f][ti].Links {
				if shed[e] < factor {
					factor = shed[e]
				}
			}
			df += send * factor
		}
		out[f] = math.Min(df, n.Flows[f].Demand)
	}
	return out
}

func refDelivered(ev *Evaluator, sc *ScenarioEval) float64 {
	total := ev.Net.TotalDemand()
	if total <= 0 {
		return 1
	}
	delivered := 0.0
	for _, d := range refDeliveredPerFlow(ev, sc) {
		delivered += d
	}
	return delivered / total
}

// randomEval draws a network, an allocation and scenarios whose failed
// links include links outside the network and links listed twice, with
// restorations that are missing, zero or positive.
func randomEval(rng *rand.Rand) (*Evaluator, []ScenarioEval) {
	links := 2 + rng.Intn(10)
	n := &te.Network{LinkCap: make([]float64, links)}
	for e := range n.LinkCap {
		n.LinkCap[e] = float64(rng.Intn(4)) * 50
	}
	al := &te.Allocation{}
	for f := 0; f < 1+rng.Intn(8); f++ {
		n.Flows = append(n.Flows, te.Flow{Demand: float64(rng.Intn(200))})
		var ts []te.Tunnel
		var a []float64
		for ti := 0; ti < 1+rng.Intn(4); ti++ {
			var path []int
			for k := 0; k < 1+rng.Intn(4); k++ {
				path = append(path, rng.Intn(links))
			}
			ts = append(ts, te.Tunnel{Links: path})
			a = append(a, float64(rng.Intn(3))*rng.Float64()*80)
		}
		n.Tunnels = append(n.Tunnels, ts)
		al.A = append(al.A, a)
		al.B = append(al.B, rng.Float64()*n.Flows[f].Demand)
	}
	scs := make([]ScenarioEval, 1+rng.Intn(6))
	for i := range scs {
		scs[i].Prob = rng.Float64() / float64(2*len(scs))
		for k := 0; k < rng.Intn(4); k++ {
			scs[i].Failed = append(scs[i].Failed, rng.Intn(links+4)-2)
		}
		if len(scs[i].Failed) > 0 {
			scs[i].Failed = append(scs[i].Failed, scs[i].Failed[0])
		}
		if rng.Intn(3) > 0 {
			for _, e := range scs[i].Failed {
				if rng.Intn(2) == 0 {
					scs[i].Restored.Links = append(scs[i].Restored.Links, e)
					scs[i].Restored.Gbps = append(scs[i].Restored.Gbps, float64(rng.Intn(3))*40)
				}
			}
		}
	}
	return &Evaluator{Net: n, Alloc: al, ECMPRebalance: rng.Intn(3) == 0}, scs
}

// refMetrics computes Availability, GuaranteedThroughput at beta and
// RequiredCapacity at beta from the oracle, in the evaluator's order.
func refMetrics(ev *Evaluator, scs []ScenarioEval, beta float64) (avail, gt, capacity float64) {
	healthyProb := 1.0
	for _, sc := range scs {
		healthyProb -= sc.Prob
	}
	healthyProb = math.Max(healthyProb, 0)
	type point struct{ delivered, prob float64 }
	d := refDelivered(ev, &ScenarioEval{})
	avail, mass := healthyProb*d, healthyProb
	pts := []point{{d, healthyProb}}
	worst := refLinkLoads(ev, &ScenarioEval{})
	for i := range scs {
		d := refDelivered(ev, &scs[i])
		avail += scs[i].Prob * d
		mass += scs[i].Prob
		pts = append(pts, point{d, scs[i].Prob})
		for e, l := range refLinkLoads(ev, &scs[i]) {
			worst[e] = math.Max(worst[e], l)
		}
	}
	if mass <= 0 {
		avail = 1
	} else {
		avail /= mass
	}
	sort.SliceStable(pts, func(a, b int) bool { return pts[a].delivered > pts[b].delivered })
	gt = pts[len(pts)-1].delivered
	cum := 0.0
	for _, p := range pts {
		if cum += p.prob; cum >= beta*mass {
			gt = p.delivered
			break
		}
	}
	for _, w := range worst {
		capacity += w
	}
	if gt <= 0 {
		return avail, gt, math.Inf(1)
	}
	return avail, gt, capacity / gt
}

// TestPassMatchesMapOracle holds Delivered, DeliveredPerFlow, Availability,
// GuaranteedThroughput and RequiredCapacity to the map oracle bit for bit.
func TestPassMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		ev, scs := randomEval(rng)
		for i := -1; i < len(scs); i++ {
			sc := &ScenarioEval{}
			if i >= 0 {
				sc = &scs[i]
			}
			if got, want := ev.Delivered(sc), refDelivered(ev, sc); got != want {
				t.Fatalf("trial %d scenario %d: delivered %v, oracle %v", trial, i, got, want)
			}
			if got, want := ev.DeliveredPerFlow(sc), refDeliveredPerFlow(ev, sc); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d scenario %d: per flow %v, oracle %v", trial, i, got, want)
			}
		}
		avail, gt, capacity := refMetrics(ev, scs, 0.9)
		if got := ev.Availability(scs); got != avail {
			t.Fatalf("trial %d: availability %v, oracle %v", trial, got, avail)
		}
		if got := ev.GuaranteedThroughput(scs, 0.9); got != gt {
			t.Fatalf("trial %d: guaranteed throughput %v, oracle %v", trial, got, gt)
		}
		if got := ev.RequiredCapacity(scs, 0.9); got != capacity {
			t.Fatalf("trial %d: required capacity %v, oracle %v", trial, got, capacity)
		}
	}
}

// TestAvailabilityAllocationsIndependentOfScenarios: one pass serves all of
// an evaluation's scenarios, so the allocation count of Availability,
// GuaranteedThroughput and RequiredCapacity does not grow with them.
func TestAvailabilityAllocationsIndependentOfScenarios(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's shadow allocations distort the count")
	}
	rng := rand.New(rand.NewSource(9))
	ev, _ := randomEval(rng)
	scenarios := func(k int) []ScenarioEval {
		scs := make([]ScenarioEval, k)
		for i := range scs {
			e := i % len(ev.Net.LinkCap)
			scs[i] = ScenarioEval{Prob: 1e-4, Failed: []int{e, -1, e}, Restored: restoring(e, 10)}
		}
		return scs
	}
	for _, c := range []struct {
		name string
		run  func([]ScenarioEval)
	}{
		{"Availability", func(scs []ScenarioEval) { ev.Availability(scs) }},
		{"GuaranteedThroughput", func(scs []ScenarioEval) { ev.GuaranteedThroughput(scs, 0.99) }},
		{"RequiredCapacity", func(scs []ScenarioEval) { ev.RequiredCapacity(scs, 0.99) }},
	} {
		few, many := scenarios(10), scenarios(200)
		a := testing.AllocsPerRun(20, func() { c.run(few) })
		b := testing.AllocsPerRun(20, func() { c.run(many) })
		if a != b {
			t.Errorf("%s: %.0f allocations at 10 scenarios, %.0f at 200", c.name, a, b)
		}
	}
}

// restoring is a plan that restores gbps on link alone.
func restoring(link int, gbps float64) te.Restoration {
	return te.Restoration{Links: []int{link}, Gbps: []float64{gbps}}
}
