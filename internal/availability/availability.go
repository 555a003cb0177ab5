// Package availability implements the evaluation metrics of §6 of the
// ARROW paper: per-scenario demand satisfaction under a solved TE
// allocation, the probability-weighted availability metric (§6.1), the
// availability-guaranteed throughput at a target beta (§6.3), and the
// router-port cost proxy CAP (Fig. 16).
package availability

import (
	"math"
	"sort"

	"github.com/arrow-te/arrow/internal/te"
)

// ScenarioEval is one failure scenario prepared for evaluation.
type ScenarioEval struct {
	Prob   float64
	Failed []int
	// Restored maps failed IP link -> restored capacity in Gbps (nil or
	// missing entries mean the link stays dark). For ARROW this comes from
	// the winning LotteryTicket; for other TEs it is nil.
	Restored map[int]float64
}

// Evaluator computes delivered traffic for a fixed TE allocation.
type Evaluator struct {
	Net   *te.Network
	Alloc *te.Allocation
	// ECMPRebalance redistributes a failed flow's traffic equally over its
	// surviving tunnels (hash-rebalance semantics) instead of
	// proportionally to the TE allocation.
	ECMPRebalance bool
}

// Delivered returns the fraction of total demand delivered under the given
// scenario: flows send b_f over their active tunnels (surviving plus
// restored), link overloads shed traffic proportionally, and a tunnel's
// delivery is limited by its most-congested link.
func (ev *Evaluator) Delivered(sc *ScenarioEval) float64 {
	totalDemand := ev.Net.TotalDemand()
	if totalDemand <= 0 {
		return 1
	}
	delivered := 0.0
	for _, d := range ev.deliveredPerFlow(sc) {
		delivered += d
	}
	return delivered / totalDemand
}

// Availability computes the §6.1 metric: the probability-weighted average
// demand satisfaction over the healthy state and all enumerated scenarios,
// normalised by the covered probability mass.
func (ev *Evaluator) Availability(scs []ScenarioEval) float64 {
	healthyProb := 1.0
	for _, sc := range scs {
		healthyProb -= sc.Prob
	}
	if healthyProb < 0 {
		healthyProb = 0
	}
	total := healthyProb * ev.Delivered(&ScenarioEval{})
	mass := healthyProb
	for i := range scs {
		total += scs[i].Prob * ev.Delivered(&scs[i])
		mass += scs[i].Prob
	}
	if mass <= 0 {
		return 1
	}
	return total / mass
}

// GuaranteedThroughput computes the §6.3 availability-guaranteed
// throughput: scenarios (including the healthy state) are sorted by
// delivered fraction descending; the delivered fraction at the
// beta-percentile of cumulative probability is the throughput guaranteed
// for beta of the time.
func (ev *Evaluator) GuaranteedThroughput(scs []ScenarioEval, beta float64) float64 {
	type point struct {
		delivered float64
		prob      float64
	}
	healthyProb := 1.0
	for _, sc := range scs {
		healthyProb -= sc.Prob
	}
	if healthyProb < 0 {
		healthyProb = 0
	}
	pts := []point{{ev.Delivered(&ScenarioEval{}), healthyProb}}
	mass := healthyProb
	for i := range scs {
		pts = append(pts, point{ev.Delivered(&scs[i]), scs[i].Prob})
		mass += scs[i].Prob
	}
	sort.SliceStable(pts, func(a, b int) bool { return pts[a].delivered > pts[b].delivered })
	cum := 0.0
	for _, p := range pts {
		cum += p.prob
		if cum >= beta*mass {
			return p.delivered
		}
	}
	return pts[len(pts)-1].delivered
}

// RequiredCapacity computes the Fig. 16 cost proxy: CAP_e is the worst-case
// traffic carried by link e across the healthy state and all scenarios;
// CAP = sum_e CAP_e is a proxy for the router ports the TE needs. The
// returned value is CAP normalised by the availability-guaranteed
// throughput at beta (so schemes are compared at equal delivered service).
func (ev *Evaluator) RequiredCapacity(scs []ScenarioEval, beta float64) float64 {
	n := ev.Net
	worst := make([]float64, len(n.LinkCap))
	measure := func(sc *ScenarioEval) {
		loads := ev.linkLoads(sc)
		for e, l := range loads {
			if l > worst[e] {
				worst[e] = l
			}
		}
	}
	measure(&ScenarioEval{})
	for i := range scs {
		measure(&scs[i])
	}
	cap := 0.0
	for _, w := range worst {
		cap += w
	}
	gt := ev.GuaranteedThroughput(scs, beta)
	if gt <= 0 {
		return math.Inf(1)
	}
	return cap / gt
}

// linkLoads returns the post-shedding traffic on each link under sc.
func (ev *Evaluator) linkLoads(sc *ScenarioEval) []float64 {
	n := ev.Net
	capOf := make(map[int]float64, len(sc.Failed))
	for _, e := range sc.Failed {
		capOf[e] = 0
		if sc.Restored != nil {
			capOf[e] = sc.Restored[e]
		}
	}
	linkCap := func(e int) float64 {
		if c, ok := capOf[e]; ok {
			return c
		}
		return n.LinkCap[e]
	}
	load := make([]float64, len(n.LinkCap))
	for f := range n.Flows {
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
			var send float64
			if ev.ECMPRebalance || wsum <= 0 {
				send = b / float64(len(active))
			} else {
				send = b * ev.Alloc.A[f][ti] / wsum
			}
			for _, e := range n.Tunnels[f][ti].Links {
				load[e] += send
			}
		}
	}
	// Clamp at capacity: shed traffic does not occupy ports.
	for e := range load {
		if c := linkCap(e); load[e] > c {
			load[e] = c
		}
	}
	return load
}

// PerFlowAvailability computes each flow's probability-weighted delivered
// fraction (its individual SLA view): delivered_f / d_f averaged over the
// healthy state and all scenarios, weighted by probability. Flows with zero
// demand report 1.
func (ev *Evaluator) PerFlowAvailability(scs []ScenarioEval) []float64 {
	n := ev.Net
	out := make([]float64, len(n.Flows))
	healthyProb := 1.0
	for _, sc := range scs {
		healthyProb -= sc.Prob
	}
	if healthyProb < 0 {
		healthyProb = 0
	}
	mass := healthyProb
	for _, sc := range scs {
		mass += sc.Prob
	}
	if mass <= 0 {
		for f := range out {
			out[f] = 1
		}
		return out
	}
	accumulate := func(sc *ScenarioEval, prob float64) {
		per := ev.deliveredPerFlow(sc)
		for f := range out {
			if d := n.Flows[f].Demand; d > 0 {
				out[f] += prob / mass * math.Min(1, per[f]/d)
			} else {
				out[f] += prob / mass
			}
		}
	}
	accumulate(&ScenarioEval{}, healthyProb)
	for i := range scs {
		accumulate(&scs[i], scs[i].Prob)
	}
	return out
}

// DeliveredPerFlow returns the absolute delivered Gbps of every flow under
// sc — the per-flow breakdown of Delivered, for availability-loss
// attribution (internal/attr).
func (ev *Evaluator) DeliveredPerFlow(sc *ScenarioEval) []float64 {
	return ev.deliveredPerFlow(sc)
}

// deliveredPerFlow mirrors Delivered but returns absolute Gbps per flow.
func (ev *Evaluator) deliveredPerFlow(sc *ScenarioEval) []float64 {
	n := ev.Net
	capOf := make(map[int]float64, len(sc.Failed))
	for _, e := range sc.Failed {
		capOf[e] = 0
		if sc.Restored != nil {
			capOf[e] = sc.Restored[e]
		}
	}
	linkCap := func(e int) float64 {
		if c, ok := capOf[e]; ok {
			return c
		}
		return n.LinkCap[e]
	}
	tunnels := 0
	for f := range n.Flows {
		tunnels += len(n.Tunnels[f])
	}
	sends := make([]float64, tunnels) // flow by flow, one entry per tunnel
	load := make([]float64, len(n.LinkCap))
	var active []int
	off := 0
	for f := range n.Flows {
		send := sends[off : off+len(n.Tunnels[f])]
		off += len(send)
		active = active[:0]
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
	shed := load // each link's load gives way to the share of it that gets through
	for e := range shed {
		c := linkCap(e)
		if load[e] <= c || load[e] <= 0 {
			shed[e] = 1
		} else {
			shed[e] = c / load[e]
		}
	}
	out := make([]float64, len(n.Flows))
	off = 0
	for f := range n.Flows {
		df := 0.0
		for ti, send := range sends[off : off+len(n.Tunnels[f])] {
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
		off += len(n.Tunnels[f])
		out[f] = math.Min(df, n.Flows[f].Demand)
	}
	return out
}
