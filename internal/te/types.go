// Package te implements ARROW's restoration-aware traffic engineering
// (§3.3 of the paper) and every TE scheme it is evaluated against:
//
//   - Arrow: the two-phase LP of Tables 2 and 3 (Phase I selects the
//     winning LotteryTicket per failure scenario via slack minimisation;
//     Phase II computes tunnel allocations using the winners).
//   - ArrowNaive: Phase II only, with a single restoration candidate from
//     the optical-layer RWA (no demand awareness); ArrowAndNaive reads it
//     off an Arrow solve.
//   - FFC-k [63]: proactive guarantees for all <=k fiber-cut scenarios.
//   - TeaVaR [17]: CVaR-based probabilistic TE at availability target beta.
//     FFCScales and TeaVaRScales solve either along a chain of demand
//     scales, one model re-solved warm.
//   - ECMP [21]: equal splitting, failure-oblivious.
//   - MaxThroughput: plain multi-commodity flow; also the hypothetical
//     "Fully Restorable TE" baseline of Fig. 16.
//   - BinaryILP (Table 9) and the joint IP/optical formulation (Table 7)
//     for small ground-truth instances, plus the Table 8 size counter.
//
// All schemes share the notation of FFC: flows f with demand d_f, tunnels
// T_f over IP links e with capacity c_e, failure scenarios q, allocations
// a_{f,t} and admitted bandwidth b_f.
package te

import (
	"fmt"
	"math"
	"slices"

	"github.com/arrow-te/arrow/internal/lp"
	"github.com/arrow-te/arrow/internal/ticket"
)

// Flow is one aggregated ingress-egress demand pair.
type Flow struct {
	Src, Dst int
	Demand   float64 // d_f in Gbps
}

// Tunnel is one routing path of a flow: the IP links it traverses.
type Tunnel struct {
	Links []int
}

// Network is the standard TE input (Table 1): IP links with capacities,
// flows with demands, and each flow's tunnel set. Its tunnels and its number
// of links are read-only once it has been solved: a network built by
// NewNetwork keeps what its solves build from them (the tunnel–link
// incidence and the residual classes of each scenario list) and shares it
// with its Scaled copies. Demands and capacities may change between solves.
type Network struct {
	LinkCap []float64  // c_e, by IP link ID
	Flows   []Flow     // F
	Tunnels [][]Tunnel // T_f, indexed by flow
	half    *tunnelHalf
}

// Validate checks referential integrity of the instance and that every
// capacity and demand is a finite, non-negative number.
func (n *Network) Validate() error {
	if len(n.Flows) != len(n.Tunnels) {
		return fmt.Errorf("te: %d flows but %d tunnel sets", len(n.Flows), len(n.Tunnels))
	}
	for e, c := range n.LinkCap {
		if !(c >= 0) || math.IsInf(c, 1) {
			return fmt.Errorf("te: link %d has invalid capacity %v", e, c)
		}
	}
	for f, fl := range n.Flows {
		if !(fl.Demand >= 0) || math.IsInf(fl.Demand, 1) {
			return fmt.Errorf("te: flow %d has invalid demand %v", f, fl.Demand)
		}
	}
	for f, ts := range n.Tunnels {
		if len(ts) == 0 {
			return fmt.Errorf("te: flow %d has no tunnels", f)
		}
		for ti, t := range ts {
			if len(t.Links) == 0 {
				return fmt.Errorf("te: flow %d tunnel %d is empty", f, ti)
			}
			for _, e := range t.Links {
				if e < 0 || e >= len(n.LinkCap) {
					return fmt.Errorf("te: flow %d tunnel %d references unknown link %d", f, ti, e)
				}
			}
		}
	}
	return nil
}

// TotalDemand returns sum of d_f.
func (n *Network) TotalDemand() float64 {
	s := 0.0
	for _, f := range n.Flows {
		s += f.Demand
	}
	return s
}

// Scaled returns a copy of the network with all demands multiplied by s. The
// copy shares n's links, tunnels and demand-independent half.
func (n *Network) Scaled(s float64) *Network {
	c := &Network{LinkCap: n.LinkCap, Tunnels: n.Tunnels, Flows: make([]Flow, len(n.Flows)), half: n.half}
	copy(c.Flows, n.Flows)
	for i := range c.Flows {
		c.Flows[i].Demand *= s
	}
	return c
}

// FailureScenario is one fiber-cut scenario projected onto the IP layer.
type FailureScenario struct {
	// Prob is the scenario probability (0 for FFC's absolute scenarios).
	Prob float64
	// FailedLinks are the IP link IDs that go down.
	FailedLinks []int
}

// RestorableScenario couples a failure scenario with its LotteryTickets.
type RestorableScenario struct {
	FailureScenario
	// TicketLinks gives the order of failed links inside each ticket's
	// vectors (the rwa.Result.Failed order).
	TicketLinks []int
	// Tickets is the candidate set Z^q for this scenario.
	Tickets []ticket.Ticket
	// Seeds is the number of leading tickets the column-generation master
	// installs up front (<=1 means the conventional single RWA-derived seed,
	// ticket 0). Compositional pipelines put composed-from-singles candidate
	// tickets ahead of the generated pool and raise Seeds so the restricted
	// master starts from the composed plan instead of pricing it in.
	Seeds int
}

// seedCount clamps Seeds to [1, len(Tickets)].
func (rs *RestorableScenario) seedCount() int {
	s := rs.Seeds
	if s < 1 {
		s = 1
	}
	if s > len(rs.Tickets) {
		s = len(rs.Tickets)
	}
	return s
}

// TicketGbps returns ticket z's restored capacity for IP link e (0 when the
// link is not in the ticket).
func (rs *RestorableScenario) TicketGbps(z int, link int) float64 {
	return rs.Restoration(z).On(link)
}

// Restoration is ticket z's restored capacity: the scenario's TicketLinks
// and the ticket's Gbps, shared, not copied.
func (rs *RestorableScenario) Restoration(z int) Restoration {
	return Restoration{Links: rs.TicketLinks, Gbps: rs.Tickets[z].Gbps}
}

// restored is the capacity ticket z restores over the scenario's distinct
// failed links, summed in their order.
func (rs *RestorableScenario) restored(z int) float64 {
	r, t := rs.Restoration(z), 0.0
	for i, link := range rs.FailedLinks {
		if !slices.Contains(rs.FailedLinks[:i], link) {
			t += r.On(link)
		}
	}
	return t
}

// Restoration is the capacity a restoration plan revives under one
// scenario: Gbps[i] on IP link Links[i]. It is a view of the winning
// ticket (RestorableScenario.Restoration): both slices belong to the
// scenario and must not be written through it.
type Restoration struct {
	Links []int
	Gbps  []float64
}

// On returns the capacity r restores on link: its first entry's, or 0 when
// r does not list the link (it stays dark).
func (r Restoration) On(link int) float64 {
	for i, l := range r.Links {
		if l == link {
			return r.Gbps[i]
		}
	}
	return 0
}

// Restorations is the restoration of each scenario under its winning
// ticket, or nil without winners (a scheme that restores nothing).
func Restorations(scs []RestorableScenario, winners []int) []Restoration {
	if winners == nil {
		return nil
	}
	out := make([]Restoration, len(scs))
	for qi := range scs {
		out[qi] = scs[qi].Restoration(winners[qi])
	}
	return out
}

// Allocation is the output of a TE solve: admitted bandwidth per flow and
// its distribution over tunnels.
type Allocation struct {
	B []float64   // b_f
	A [][]float64 // a_{f,t}, indexed [flow][tunnel]
	// WinningTicket[qi] is the index into scenario qi's ticket set chosen by
	// Phase I (Arrow and ArrowNaive; nil otherwise). The plan restores
	// scenario qi's Restoration(WinningTicket[qi]).
	WinningTicket []int
	// Objective is the solver's total throughput sum(b_f).
	Objective float64
	// Stats describes the LP(s) behind this allocation (filled by the
	// ARROW solvers; zero for baselines).
	Stats SolveStats
	// Cert is the optimality certificate of the LP that produced this
	// allocation (the Phase II solve for Arrow/ArrowNaive).
	Cert *lp.Certificate
	// Sens carries the final Phase II model, basis, duals and capacity-row
	// handles for post-solve availability attribution. Nil unless the solve
	// ran with ArrowOptions.CaptureSensitivity; the numeric allocation is
	// identical either way.
	Sens *SensitivityHandle
}

// SolveStats records model sizes and simplex effort for observability
// (the Fig. 15 runtime analysis reports these alongside wall-clock).
type SolveStats struct {
	Phase1Vars, Phase1Rows, Phase1Iters int
	Phase2Vars, Phase2Rows, Phase2Iters int
}

// Throughput returns sum(b_f) / sum(d_f), the paper's throughput metric.
func (a *Allocation) Throughput(n *Network) float64 {
	total := n.TotalDemand()
	if total == 0 {
		return 1
	}
	s := 0.0
	for _, b := range a.B {
		s += b
	}
	return s / total
}

// SplitRatios returns omega_{f,t} = a_{f,t} / sum_t a_{f,t} (§3.3), every
// flow's cut from one array. Flows with no allocation split uniformly.
func (a *Allocation) SplitRatios() [][]float64 {
	tunnels := 0
	for _, as := range a.A {
		tunnels += len(as)
	}
	out, flat := make([][]float64, len(a.A)), make([]float64, tunnels)
	for f, as := range a.A {
		out[f], flat = flat[:len(as):len(as)], flat[len(as):]
		sum := 0.0
		for _, v := range as {
			sum += v
		}
		if sum <= 0 {
			for t := range as {
				out[f][t] = 1 / float64(len(as))
			}
			continue
		}
		for t, v := range as {
			out[f][t] = v / sum
		}
	}
	return out
}

// residualTunnels returns the indices of flow f's tunnels that avoid every
// failed link (T_f^q). failed is a failedSet mask.
func residualTunnels(n *Network, f int, failed []bool) []int {
	var out []int
	for ti, t := range n.Tunnels[f] {
		ok := true
		for _, e := range t.Links {
			if failed[e] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, ti)
		}
	}
	return out
}

// restorableTunnels returns Y_f^{z,q}: tunnels of f that cross at least one
// failed link and whose every failed link has positive restored capacity
// under the given per-link restoration (§3.3: "if every failed link e that
// tunnel t traverses is available after restoration ... this tunnel is
// restorable").
func restorableTunnels(n *Network, f int, failed []bool, restored func(link int) float64) []int {
	var out []int
	for ti, t := range n.Tunnels[f] {
		if restorable(t, failed, restored) {
			out = append(out, ti)
		}
	}
	return out
}

// restorable reports whether t is in Y^{z,q}: it crosses a failed link and
// every failed link it crosses has positive restored capacity.
func restorable(t Tunnel, failed []bool, restored func(link int) float64) bool {
	crosses := false
	for _, e := range t.Links {
		if failed[e] && restored(e) <= 0 {
			return false
		}
		crosses = crosses || failed[e]
	}
	return crosses
}

// failedSet returns the given failed links as a mask over n's link indices
// (tunnels index the same space). A link outside it is one no tunnel can
// cross and is ignored.
func failedSet(n *Network, links []int) []bool { return failedInto(nil, n, links) }

// failedInto is failedSet written over dst's memory.
func failedInto(dst []bool, n *Network, links []int) []bool {
	m := append(dst[:0], make([]bool, len(n.LinkCap))...)
	for _, e := range links {
		if e >= 0 && e < len(m) {
			m[e] = true
		}
	}
	return m
}
