// Package availability implements the evaluation metrics of §6 of the
// ARROW paper: per-scenario demand satisfaction under a solved TE
// allocation, the probability-weighted availability metric (§6.1), the
// availability-guaranteed throughput at a target beta (§6.3), and the
// router-port cost proxy CAP (Fig. 16).
package availability

import (
	"math"
	"slices"
	"sort"

	"github.com/arrow-te/arrow/internal/pool"
	"github.com/arrow-te/arrow/internal/te"
)

// ScenarioEval is one failure scenario prepared for evaluation.
type ScenarioEval struct {
	Prob   float64
	Failed []int
	// Restored is the capacity the plan restores on the failed links (a
	// link it does not list stays dark). For ARROW it is the winning
	// LotteryTicket's, read off the ticket without a copy; for other TEs it
	// is empty.
	Restored te.Restoration
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
	p := ev.newPass()
	defer p.release()
	return p.fraction(sc)
}

// Availability computes the §6.1 metric: the probability-weighted average
// demand satisfaction over the healthy state and all enumerated scenarios,
// normalised by the covered probability mass.
func (ev *Evaluator) Availability(scs []ScenarioEval) float64 {
	return ev.AvailabilityOf(len(scs), func(i int) ScenarioEval { return scs[i] })
}

// AvailabilityOf is Availability over k scenarios, the i-th of them at(i):
// a caller that holds its scenarios in another form reads them through at,
// twice each, and builds no list.
func (ev *Evaluator) AvailabilityOf(k int, at func(i int) ScenarioEval) float64 {
	healthyProb := 1.0 // as healthy computes it
	for i := range k {
		healthyProb -= at(i).Prob
	}
	healthyProb = max(healthyProb, 0)
	p := ev.newPass()
	defer p.release()
	total := healthyProb * p.fraction(&ScenarioEval{})
	mass := healthyProb
	for i := range k {
		sc := at(i)
		total += float64(sc.Prob * p.fraction(&sc))
		mass += sc.Prob
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
	healthyProb := healthy(scs)
	p := ev.newPass()
	defer p.release()
	pts := make([]point, 1, 1+len(scs))
	pts[0] = point{p.fraction(&ScenarioEval{}), healthyProb}
	mass := healthyProb
	for i := range scs {
		pts = append(pts, point{p.fraction(&scs[i]), scs[i].Prob})
		mass += scs[i].Prob
	}
	sort.SliceStable(pts, func(a, b int) bool { return pts[a].delivered > pts[b].delivered })
	cum := 0.0
	for _, pt := range pts {
		cum += pt.prob
		if cum >= beta*mass {
			return pt.delivered
		}
	}
	return pts[len(pts)-1].delivered
}

// healthy is the probability of the healthy state: what scs leave of 1, or 0.
func healthy(scs []ScenarioEval) float64 {
	p := 1.0
	for _, sc := range scs {
		p -= sc.Prob
	}
	return max(p, 0)
}

// RequiredCapacity computes the Fig. 16 cost proxy: CAP_e is the worst-case
// traffic carried by link e across the healthy state and all scenarios;
// CAP = sum_e CAP_e is a proxy for the router ports the TE needs. The
// returned value is CAP normalised by the availability-guaranteed
// throughput at beta (so schemes are compared at equal delivered service).
func (ev *Evaluator) RequiredCapacity(scs []ScenarioEval, beta float64) float64 {
	worst := make([]float64, len(ev.Net.LinkCap))
	p := ev.newPass()
	defer p.release()
	measure := func(sc *ScenarioEval) {
		p.route(sc)
		for e, l := range p.load {
			if c := p.linkCap[e]; l > c {
				l = c // shed traffic does not occupy ports
			}
			if l > worst[e] {
				worst[e] = l
			}
		}
		p.done(sc)
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

// PerFlowAvailability computes each flow's probability-weighted delivered
// fraction (its individual SLA view): delivered_f / d_f averaged over the
// healthy state and all scenarios, weighted by probability. Flows with zero
// demand report 1.
func (ev *Evaluator) PerFlowAvailability(scs []ScenarioEval) []float64 {
	n := ev.Net
	out := make([]float64, len(n.Flows))
	healthyProb := healthy(scs)
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
	p := ev.newPass()
	defer p.release()
	accumulate := func(sc *ScenarioEval, prob float64) {
		per := p.deliveredPerFlow(sc)
		for f := range out {
			if d := n.Flows[f].Demand; d > 0 {
				out[f] += float64(prob / mass * math.Min(1, per[f]/d))
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
	p := ev.newPass()
	defer p.release()
	return slices.Clone(p.deliveredPerFlow(sc))
}

// pass is an evaluation's working memory, sized for the network once and
// carried over all of the evaluation's scenarios. Passes come from passes
// and go back to it when the evaluation is done (release): a pass is sized
// to the network of the evaluation that draws it, on the arrays the last
// one left.
type pass struct {
	ev      *Evaluator
	linkCap []float64 // the network's, the scenario's failed links patched in
	sends   []float64 // flow by flow, one entry per tunnel
	load    []float64 // per link
	out     []float64 // per flow
	active  []int
}

var passes pool.Free[pass]

func (ev *Evaluator) newPass() *pass {
	n := ev.Net
	tunnels := 0
	for f := range n.Flows {
		tunnels += len(n.Tunnels[f])
	}
	p := passes.Get()
	p.ev, p.linkCap = ev, append(p.linkCap[:0], n.LinkCap...)
	p.sends, p.load, p.out = grow(p.sends, tunnels), grow(p.load, len(n.LinkCap)), grow(p.out, len(n.Flows))
	return p
}

// grow is xs at length n, on its array where that is large enough. route
// writes every element before any is read.
func grow(xs []float64, n int) []float64 { return slices.Grow(xs[:0], n)[:n] }

// release hands p back for the next evaluation. Nothing may read p, or a
// slice of it, after.
func (p *pass) release() {
	p.ev = nil
	passes.Put(p)
}

// route is the one scenario pass behind every metric: it patches sc's failed
// links into p.linkCap (the plan's restored capacity, 0 where it restores
// none; a link outside the network changes nothing), and sends every flow's
// b_f over its active tunnels — those with capacity left on every link —
// into p.sends and, before any shedding, p.load. done undoes the patch.
func (p *pass) route(sc *ScenarioEval) {
	n, al := p.ev.Net, p.ev.Alloc
	for _, e := range sc.Failed {
		if e >= 0 && e < len(p.linkCap) {
			p.linkCap[e] = sc.Restored.On(e)
		}
	}
	clear(p.sends)
	clear(p.load)
	off := 0
	for f := range n.Flows {
		send := p.sends[off : off+len(n.Tunnels[f])]
		off += len(send)
		p.active = p.active[:0]
		for ti, t := range n.Tunnels[f] {
			if !slices.ContainsFunc(t.Links, func(e int) bool { return p.linkCap[e] <= 0 }) {
				p.active = append(p.active, ti)
			}
		}
		if len(p.active) == 0 {
			continue
		}
		b := al.B[f]
		wsum := 0.0
		if !p.ev.ECMPRebalance {
			for _, ti := range p.active {
				wsum += al.A[f][ti]
			}
		}
		for _, ti := range p.active {
			if p.ev.ECMPRebalance || wsum <= 0 {
				send[ti] = b / float64(len(p.active))
			} else {
				send[ti] = b * al.A[f][ti] / wsum
			}
			for _, e := range n.Tunnels[f][ti].Links {
				p.load[e] += send[ti]
			}
		}
	}
}

func (p *pass) done(sc *ScenarioEval) {
	for _, e := range sc.Failed {
		if e >= 0 && e < len(p.linkCap) {
			p.linkCap[e] = p.ev.Net.LinkCap[e]
		}
	}
}

// fraction is Delivered on p.
func (p *pass) fraction(sc *ScenarioEval) float64 {
	totalDemand := p.ev.Net.TotalDemand()
	if totalDemand <= 0 {
		return 1
	}
	delivered := 0.0
	for _, d := range p.deliveredPerFlow(sc) {
		delivered += d
	}
	return delivered / totalDemand
}

// deliveredPerFlow returns the absolute Gbps every flow gets through under
// sc, in p's memory.
func (p *pass) deliveredPerFlow(sc *ScenarioEval) []float64 {
	n := p.ev.Net
	p.route(sc)
	shed := p.load // each link's load gives way to the share of it that gets through
	for e, l := range p.load {
		if c := p.linkCap[e]; l <= c || l <= 0 {
			shed[e] = 1
		} else {
			shed[e] = c / l
		}
	}
	off := 0
	for f := range n.Flows {
		df := 0.0
		for ti, send := range p.sends[off : off+len(n.Tunnels[f])] {
			if send <= 0 {
				continue
			}
			factor := 1.0
			for _, e := range n.Tunnels[f][ti].Links {
				if shed[e] < factor {
					factor = shed[e]
				}
			}
			df += float64(send * factor)
		}
		off += len(n.Tunnels[f])
		p.out[f] = math.Min(df, n.Flows[f].Demand)
	}
	p.done(sc)
	return p.out
}
