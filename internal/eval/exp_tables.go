package eval

import (
	"fmt"
	"math"

	"github.com/arrow-te/arrow/internal/spectrum"
	"github.com/arrow-te/arrow/internal/te"
	"github.com/arrow-te/arrow/internal/ticket"
	"github.com/arrow-te/arrow/internal/topo"
)

func init() {
	register(Experiment{
		ID:         "table4",
		Title:      "Network topologies used in simulations",
		PaperClaim: "Facebook 34/84/156/262, IBM 17/17/23/85, B4 12/12/19/52 (routers/ROADMs/fibers/IP links)",
		Run:        runTable4,
	})
	register(Experiment{
		ID:         "table6",
		Title:      "Terrestrial long-haul transponder specification",
		PaperClaim: "100G@5000km, 200G@3000km, 300G@1500km, 400G@1000km",
		Run:        runTable6,
	})
	register(Experiment{
		ID:         "table8",
		Title:      "Size of the joint IP/optical TE formulation",
		PaperClaim: "joint ILP needs billions of binary variables at Facebook scale; intractable",
		Run:        runTable8,
	})
	register(Experiment{
		ID:         "table9",
		Title:      "Two-phase LP vs binary ILP ticket selection",
		PaperClaim: "the binary ILP is exact but exponential; ARROW's two-phase LP matches it when the optimal ticket is in Z",
		Run:        runTable9,
	})
}

func runTable4(cfg Config) (*Result, error) {
	r := &Result{ID: "table4", Title: "Topology inventory",
		Header: []string{"topology", "routers", "ROADMs", "fibers", "IP links", "wavelengths", "capacity (Tbps)"}}
	names := []string{"B4", "IBM"}
	if !cfg.Fast {
		names = append(names, "Facebook")
	} else {
		names = append(names, "Facebook")
	}
	for _, name := range names {
		tp, err := topo.ByName(name, cfg.Seed+5)
		if err != nil {
			return nil, err
		}
		s := tp.Stats()
		r.AddRow(name, fi(s.Routers), fi(s.ROADMs), fi(s.Fibers), fi(s.IPLinks), fi(s.Wavelengths), f1(s.TotalCapacityGbps/1000))
	}
	r.AddNote("paper (Table 4): Facebook 34/84 ROADMs, 156 fibers, 262 IP links; IBM 17, 23, 85; B4 12, 19, 52")
	return r, nil
}

func runTable6(Config) (*Result, error) {
	r := &Result{ID: "table6", Title: "Modulation datarate vs reach",
		Header: []string{"datarate (Gbps)", "reach (km)"}}
	for _, m := range spectrum.Table6 {
		r.AddRow(f1(m.GbpsPerWavelength), f1(m.ReachKm))
	}
	return r, nil
}

func runTable8(cfg Config) (*Result, error) {
	r := &Result{ID: "table8", Title: "Joint IP/optical formulation size",
		Header: []string{"topology", "binary vars", "continuous vars", "constraints"}}
	// Parameters per topology: flows (all pairs), tunnels, IP links,
	// fibers, 96 slots, enumerated scenarios, avg failed links/scenario,
	// k=3 surrogate paths, avg path length.
	cases := []struct {
		name                                 string
		F, T, E, Phi, W, Q, fail, k, pathLen int
	}{
		{"Facebook", 34 * 33, 16, 262, 156, 96, 30, 5, 3, 5},
		{"IBM", 17 * 16, 12, 85, 23, 96, 30, 4, 3, 4},
		{"B4", 12 * 11, 8, 52, 19, 96, 30, 3, 3, 4},
	}
	for _, c := range cases {
		s := te.JointModelStats(c.F, c.T, c.E, c.Phi, c.W, c.Q, c.fail, c.k, c.pathLen)
		r.AddRow(c.name, humanCount(s.BinaryVars), humanCount(s.ContinuousVars), humanCount(s.Constraints))
	}
	r.AddNote("paper (Table 8): Facebook 12,280M binary vars (memory overflow); IBM 81M; B4 52M — same orders of magnitude of blow-up")
	return r, nil
}

func humanCount(v int64) string {
	switch {
	case v >= 1_000_000_000:
		return fmt.Sprintf("%.1fB", float64(v)/1e9)
	case v >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(v)/1e6)
	case v >= 1_000:
		return fmt.Sprintf("%.1fk", float64(v)/1e3)
	}
	return fmt.Sprintf("%d", v)
}

func runTable9(cfg Config) (*Result, error) {
	// Small instance where the exact binary ILP is tractable: compare its
	// objective and winner with the two-phase LP across several ticket
	// sets.
	r := &Result{ID: "table9", Title: "Two-phase LP vs binary ILP",
		Header: []string{"case", "two-phase obj", "binary ILP obj", "gap", "same winner"}}

	n := &te.Network{
		LinkCap: []float64{400, 800, 600},
		Flows: []te.Flow{
			{Src: 0, Dst: 1, Demand: 100},
			{Src: 0, Dst: 1, Demand: 400},
			{Src: 0, Dst: 1, Demand: 250},
		},
		Tunnels: [][]te.Tunnel{
			{{Links: []int{0}}, {Links: []int{2}}},
			{{Links: []int{1}}, {Links: []int{2}}},
			{{Links: []int{2}}, {Links: []int{0}}},
		},
	}
	cases := []struct {
		name    string
		tickets []ticket.Ticket
	}{
		{"fig7-style", []ticket.Ticket{
			{Waves: []int{2, 3, 1}, Gbps: []float64{200, 300, 100}},
			{Waves: []int{1, 4, 1}, Gbps: []float64{100, 400, 100}},
			{Waves: []int{3, 2, 1}, Gbps: []float64{300, 200, 100}},
		}},
		{"skewed", []ticket.Ticket{
			{Waves: []int{0, 5, 1}, Gbps: []float64{0, 500, 100}},
			{Waves: []int{5, 0, 1}, Gbps: []float64{500, 0, 100}},
		}},
		{"uniform", []ticket.Ticket{
			{Waves: []int{2, 2, 2}, Gbps: []float64{200, 200, 200}},
		}},
	}
	opts := te.SessionOptions(cfg.ctx(), cfg.NoWarm)
	for _, c := range cases {
		scs := []te.RestorableScenario{{
			FailureScenario: te.FailureScenario{Prob: 0.01, FailedLinks: []int{0, 1, 2}},
			TicketLinks:     []int{0, 1, 2},
			Tickets:         c.tickets,
		}}
		lpAl, err := te.Arrow(n, scs, &opts)
		if err != nil {
			return nil, err
		}
		ilpAl, winners, err := te.BinaryILP(n, scs, nil)
		if err != nil {
			return nil, err
		}
		gap := math.Abs(lpAl.Objective - ilpAl.Objective)
		r.AddRow(c.name, f1(lpAl.Objective), f1(ilpAl.Objective), f2(gap),
			fmt.Sprint(lpAl.WinningTicket[0] == winners[0]))
	}
	r.AddNote("the two-phase LP reaches the ILP objective whenever the winning ticket is selected identically (Theorem 3.1 premise)")
	return r, nil
}
