// Package attr is ARROW's availability-attribution engine: it explains the
// headline §6.1 availability number instead of just computing it. Three
// passes run after the TE solve, strictly sequentially and read-only on the
// pipeline's artifacts:
//
//   - Loss decomposition splits total availability loss exactly into
//     per-scenario contributions (probability weight x unrestored fraction)
//     and, within a scenario, per-flow unmet demand. The decomposition is
//     an identity, not an estimate: contributions sum to 1 - availability
//     within float rounding, and the attr.identity_violations counter trips
//     whenever the residual exceeds 1e-9.
//   - Shadow-price sensitivities harvest the duals of the final Phase II
//     basis (te.SensitivityHandle): the marginal objective value, in Gbps
//     of admitted throughput per Gbps of capacity, of each healthy IP-link
//     capacity row (cap_e) and each restored-ticket capacity row
//     (p2cap_e_q, constraint (11)). Each reported dual is validated against
//     two one-sided finite-difference warm re-solves (SetRHS +
//     SolveWithBasis on the same basis): the optimal value of an LP is
//     concave in a LE row's right-hand side, so any optimal dual must lie
//     between the right and left difference quotients.
//   - What-if probes warm-re-solve bounded top-k perturbations ("+1
//     wavelength on link e over fiber f") and score analytic ones ("drop
//     scenario q"), ranking them by availability gained.
//
// Determinism contract (PR 2/3/7): attribution never changes pipeline
// results. It runs after the solve on one goroutine, iterates in index
// order only, restores every RHS it perturbs, and the solved model is
// never reused by the pipeline. Results are byte-identical with
// attribution on or off at any worker count.
package attr

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"github.com/arrow-te/arrow/internal/availability"
	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/lp"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/te"
)

// SchemaVersion identifies the attribution report JSON layout.
const SchemaVersion = 1

// IdentityTol is the decomposition-identity tolerance: residuals above it
// count as attr.identity_violations. Float rounding across a few hundred
// contributions stays many orders of magnitude below it.
const IdentityTol = 1e-9

// The passes' bounds: the flow-level contributions retained per scenario in
// the report and ledger (the identity is always checked over the full
// per-flow sum before truncation); the capacity rows harvested, FD-validated
// and reported, ranked by |dual| (ties broken by row order); the "+1
// wavelength" warm re-solve probes (the analytic drop-scenario probes are
// cheap and always evaluated); and the slack allowed when checking a dual
// against its finite-difference bracket.
const (
	topFlows         = 5
	topSensitivities = 8
	topProbes        = 4
	fdTol            = 1e-6
)

// Options gives the attribution passes the topology's data. The zero value
// is usable.
type Options struct {
	// LinkFibers maps IP link -> underlying fiber IDs (topo.LinkFibers);
	// optional. With it, sensitivities aggregate into per-fiber shadow
	// prices and probes name the fiber a wavelength would ride.
	LinkFibers [][]int
	// WaveGbps is the per-link "+1 wavelength" capacity granularity for
	// probes; optional. Links without an entry (or without the slice) probe
	// at 1 Gbps.
	WaveGbps []float64
}

// Input is the pipeline state one attribution pass reads.
type Input struct {
	Net       *te.Network
	Alloc     *te.Allocation
	Scenarios []availability.ScenarioEval
}

// FlowLoss is one flow's contribution to a scenario's availability loss.
type FlowLoss struct {
	Flow          int     `json:"flow"`
	DemandGbps    float64 `json:"demand_gbps"`
	DeliveredGbps float64 `json:"delivered_gbps"`
	UnmetGbps     float64 `json:"unmet_gbps"`
	// Loss is this flow's share of total availability loss:
	// weight * unmet / totalDemand.
	Loss float64 `json:"loss"`
}

// ScenarioLoss is one scenario's exact contribution to availability loss.
type ScenarioLoss struct {
	// Scenario is the pipeline scenario index (-1 for the healthy state).
	Scenario int     `json:"scenario"`
	Prob     float64 `json:"prob"`
	// Weight is the scenario's share of the covered probability mass.
	Weight    float64 `json:"weight"`
	Delivered float64 `json:"delivered"` // delivered demand fraction
	UnmetGbps float64 `json:"unmet_gbps"`
	// Loss = Weight * (1 - Delivered): this scenario's availability regret.
	Loss float64 `json:"loss"`
	// FlowLossSum is the untruncated per-flow loss total (the inner
	// identity checks it against Loss); Flows retains only the topFlows
	// largest contributors.
	FlowLossSum float64    `json:"flow_loss_sum"`
	Flows       []FlowLoss `json:"flows,omitempty"`
}

// Sensitivity is one capacity row's shadow price with its FD validation.
type Sensitivity struct {
	Row  string `json:"row"`
	Link int    `json:"link"`
	// Scenario is -1 for healthy cap_e rows, else the restored-ticket row's
	// scenario.
	Scenario int `json:"scenario"`
	// Fiber is the first underlying fiber of the link (-1 without a
	// LinkFibers mapping).
	Fiber int     `json:"fiber"`
	RHS   float64 `json:"rhs"`
	// Dual is the marginal objective value: Gbps of admitted throughput per
	// extra Gbps of capacity on this row.
	Dual float64 `json:"dual"`
	// FDLow / FDHigh bracket the dual: the right and left one-sided
	// difference quotients of the optimal value in the row's RHS. FDHigh is
	// +Inf when the RHS is 0 (no feasible left step).
	FDLow     float64 `json:"fd_low"`
	FDHigh    float64 `json:"fd_high"`
	Validated bool    `json:"validated"`
}

// MarshalJSON writes an infinite FDHigh as 0, the ledger's convention for
// "no feasible left step": JSON has no infinity, and one such row would
// otherwise fail the whole report (the run bundle's attribution section,
// /attribution).
func (s Sensitivity) MarshalJSON() ([]byte, error) {
	type plain Sensitivity
	p := plain(s)
	if math.IsInf(p.FDHigh, 1) {
		p.FDHigh = 0
	}
	return json.Marshal(p)
}

// FiberPrice aggregates healthy-link shadow prices over one fiber span:
// the marginal value of capacity added to every IP link riding the fiber.
type FiberPrice struct {
	Fiber int     `json:"fiber"`
	Links []int   `json:"links"`
	Price float64 `json:"price"`
}

// Probe is one evaluated what-if perturbation.
type Probe struct {
	// Kind is "add_capacity" (+WaveGbps on one link, warm re-solved) or
	// "drop_scenario" (scenario hardened away, analytic).
	Kind  string `json:"kind"`
	Label string `json:"label"`
	Link  int    `json:"link"`     // -1 for drop_scenario
	Fiber int    `json:"fiber"`    // -1 when unmapped
	Scen  int    `json:"scenario"` // -1 for add_capacity
	// CapacityGbps is the capacity the probe spends (0 for analytic drops).
	CapacityGbps     float64 `json:"capacity_gbps"`
	AvailabilityGain float64 `json:"availability_gain"`
	// GainPerGbps is AvailabilityGain / CapacityGbps for capacity probes
	// and equals AvailabilityGain for zero-capacity drops.
	GainPerGbps float64 `json:"gain_per_gbps"`
}

// Report is one attribution pass's full output (the /attribution endpoint
// payload and the arrow-report section source).
type Report struct {
	SchemaVersion   int     `json:"schema_version"`
	Availability    float64 `json:"availability"`
	Loss            float64 `json:"loss"`
	Mass            float64 `json:"mass"`
	TotalDemandGbps float64 `json:"total_demand_gbps"`
	// Healthy is the healthy state's contribution (unmet demand the TE
	// never admitted); Scenarios are the enumerated cuts in pipeline order.
	Healthy   ScenarioLoss   `json:"healthy"`
	Scenarios []ScenarioLoss `json:"scenarios"`
	// IdentityGap is the worst decomposition residual observed (outer:
	// scenario contributions vs total loss; inner: flow sums vs scenario
	// contributions). IdentityViolations counts residuals above 1e-9.
	IdentityGap        float64 `json:"identity_gap"`
	IdentityViolations int     `json:"identity_violations"`

	Sensitivities []Sensitivity `json:"sensitivities,omitempty"`
	FiberPrices   []FiberPrice  `json:"fiber_prices,omitempty"`
	Probes        []Probe       `json:"probes,omitempty"`
}

// Run executes the attribution passes over one solved pipeline state.
// Sensitivities and probes require in.Alloc.Sens (a Phase II solved with
// te.ArrowOptions.CaptureSensitivity); without it only the decomposition
// runs. The finished report is published to ctx's recorder (the attr.*
// counters, obs.FromContext) and ledger (attribution/sensitivity/whatif
// events, ledger.FromContext); either may be absent.
func Run(ctx context.Context, in Input, opts *Options) (*Report, error) {
	if in.Net == nil || in.Alloc == nil {
		return nil, fmt.Errorf("attr: nil network or allocation")
	}
	rep := &Report{SchemaVersion: SchemaVersion}
	decompose(in, rep)
	if h := in.Alloc.Sens; h != nil && h.Basis != nil && len(h.Duals) > 0 {
		if err := sensitivities(in, h, opts, rep); err != nil {
			return nil, err
		}
		if err := probes(in, h, opts, rep); err != nil {
			return nil, err
		}
	}
	emit(obs.FromContext(ctx), ledger.FromContext(ctx), rep)
	return rep, nil
}

// decompose splits 1 - availability into per-scenario and per-flow
// contributions, mirroring availability.Evaluator.Availability term by
// term so the identity holds to float rounding.
func decompose(in Input, rep *Report) {
	ev := &availability.Evaluator{Net: in.Net, Alloc: in.Alloc}
	scs := in.Scenarios
	totalDemand := in.Net.TotalDemand()
	healthyProb := 1.0
	for i := range scs {
		healthyProb -= scs[i].Prob
	}
	if healthyProb < 0 {
		healthyProb = 0
	}
	mass := healthyProb
	for i := range scs {
		mass += scs[i].Prob
	}
	rep.Mass = mass
	rep.TotalDemandGbps = totalDemand
	rep.Availability = ev.Availability(scs)
	rep.Loss = 1 - rep.Availability
	if mass <= 0 || totalDemand <= 0 {
		// Availability degenerates to 1: nothing to attribute.
		rep.Healthy = ScenarioLoss{Scenario: -1, Prob: healthyProb}
		return
	}

	one := func(idx int, prob float64, sc *availability.ScenarioEval) ScenarioLoss {
		per := ev.DeliveredPerFlow(sc)
		deliveredGbps := 0.0
		for _, d := range per {
			deliveredGbps += d
		}
		weight := prob / mass
		sl := ScenarioLoss{
			Scenario:  idx,
			Prob:      prob,
			Weight:    weight,
			Delivered: deliveredGbps / totalDemand,
			UnmetGbps: totalDemand - deliveredGbps,
		}
		sl.Loss = weight * (1 - sl.Delivered)
		flows := make([]FlowLoss, 0, len(per))
		for f, d := range per {
			demand := in.Net.Flows[f].Demand
			fl := FlowLoss{
				Flow: f, DemandGbps: demand, DeliveredGbps: d,
				UnmetGbps: demand - d,
				Loss:      weight * (demand - d) / totalDemand,
			}
			sl.FlowLossSum += fl.Loss
			if fl.UnmetGbps > 0 {
				flows = append(flows, fl)
			}
		}
		sort.SliceStable(flows, func(a, b int) bool { return flows[a].UnmetGbps > flows[b].UnmetGbps })
		if len(flows) > topFlows {
			flows = flows[:topFlows]
		}
		sl.Flows = flows
		return sl
	}

	rep.Healthy = one(-1, healthyProb, &availability.ScenarioEval{})
	rep.Scenarios = make([]ScenarioLoss, len(scs))
	lossSum := rep.Healthy.Loss
	for i := range scs {
		rep.Scenarios[i] = one(i, scs[i].Prob, &scs[i])
		lossSum += rep.Scenarios[i].Loss
	}

	// Identity audit: outer (scenarios vs headline) and inner (flows vs
	// scenario) residuals.
	gap := math.Abs(rep.Loss - lossSum)
	check := func(sl *ScenarioLoss) {
		if g := math.Abs(sl.Loss - sl.FlowLossSum); g > gap {
			gap = g
		}
	}
	check(&rep.Healthy)
	for i := range rep.Scenarios {
		check(&rep.Scenarios[i])
	}
	rep.IdentityGap = gap
	if gap > IdentityTol {
		rep.IdentityViolations++
	}
}

// sensitivities harvests the top capacity-row duals of the final Phase II
// basis and validates each against its finite-difference bracket.
func sensitivities(in Input, h *te.SensitivityHandle, opts *Options, rep *Report) error {
	type cand struct {
		row  te.CapRow
		dual float64
	}
	cands := make([]cand, 0, len(h.CapRows))
	for _, cr := range h.CapRows {
		if int(cr.Constr) >= len(h.Duals) {
			continue
		}
		cands = append(cands, cand{row: cr, dual: h.Duals[cr.Constr]})
	}
	// Rank by |dual| descending; ties keep row-build order (healthy links
	// ascending, then scenario/link ascending) — fully deterministic.
	sort.SliceStable(cands, func(a, b int) bool {
		return math.Abs(cands[a].dual) > math.Abs(cands[b].dual)
	})
	if len(cands) > topSensitivities {
		cands = cands[:topSensitivities]
	}

	fiberOf := func(link int) int {
		if opts == nil || link < 0 || link >= len(opts.LinkFibers) || len(opts.LinkFibers[link]) == 0 {
			return -1
		}
		return opts.LinkFibers[link][0]
	}

	for _, c := range cands {
		m, con := h.Model, c.row.Constr
		rhs := m.RHS(con)
		eps := 1e-4 * math.Max(1, math.Abs(rhs))
		s := Sensitivity{
			Row: m.ConstrName(con), Link: c.row.Link, Scenario: c.row.Scenario,
			Fiber: fiberOf(c.row.Link), RHS: rhs, Dual: c.dual,
		}
		// Right derivative: relax the row by eps. The optimal value is
		// concave in a LE row's RHS (max problem), so fdRight <= dual.
		up, err := resolveAt(m, con, rhs+eps, h.Basis)
		if err != nil {
			return err
		}
		s.FDLow = (up - h.Objective) / eps
		// Left derivative: tighten by eps, staying feasible (RHS >= 0 keeps
		// the all-zero point feasible). fdLeft >= dual; a zero RHS has no
		// feasible left step, so only the right side brackets.
		s.FDHigh = math.Inf(1)
		if rhs > 0 {
			leps := math.Min(eps, rhs)
			down, err := resolveAt(m, con, rhs-leps, h.Basis)
			if err != nil {
				return err
			}
			s.FDHigh = (h.Objective - down) / leps
		}
		s.Validated = s.Dual >= s.FDLow-fdTol && s.Dual <= s.FDHigh+fdTol
		rep.Sensitivities = append(rep.Sensitivities, s)
	}

	// Per-fiber shadow prices: aggregate HEALTHY link duals over each
	// fiber's riding links (extra capacity on the span lifts them all).
	if opts != nil && len(opts.LinkFibers) > 0 {
		agg := map[int]*FiberPrice{}
		for _, cr := range h.CapRows {
			if cr.Scenario != -1 || int(cr.Constr) >= len(h.Duals) {
				continue
			}
			d := h.Duals[cr.Constr]
			if d == 0 || cr.Link >= len(opts.LinkFibers) {
				continue
			}
			for _, f := range opts.LinkFibers[cr.Link] {
				fp := agg[f]
				if fp == nil {
					fp = &FiberPrice{Fiber: f}
					agg[f] = fp
				}
				fp.Links = append(fp.Links, cr.Link)
				fp.Price += d
			}
		}
		fibers := make([]int, 0, len(agg))
		for f := range agg {
			fibers = append(fibers, f)
		}
		sort.Ints(fibers)
		for _, f := range fibers {
			rep.FiberPrices = append(rep.FiberPrices, *agg[f])
		}
		sort.SliceStable(rep.FiberPrices, func(a, b int) bool {
			return rep.FiberPrices[a].Price > rep.FiberPrices[b].Price
		})
	}
	return nil
}

// resolveAt warm-re-solves the model with one RHS perturbed, restoring it
// before returning. SolveWithBasis never mutates the supplied basis, so
// repeated probes from the same handle are safe.
func resolveAt(m *lp.Model, con lp.Constr, rhs float64, basis *lp.Basis) (float64, error) {
	orig := m.RHS(con)
	m.SetRHS(con, rhs)
	sol, err := lp.SolveWithBasis(m, basis, nil)
	m.SetRHS(con, orig)
	if err != nil {
		return 0, fmt.Errorf("attr: probe re-solve %s: %w", m.ConstrName(con), err)
	}
	if err := sol.Status.Err(); err != nil {
		return 0, fmt.Errorf("attr: probe re-solve %s: %w", m.ConstrName(con), err)
	}
	return sol.Objective, nil
}

// probes evaluates the bounded what-if set: "+1 wavelength" warm re-solves
// on the highest-dual healthy links, and analytic drop-scenario gains.
func probes(in Input, h *te.SensitivityHandle, opts *Options, rep *Report) error {
	ev := &availability.Evaluator{Net: in.Net, Alloc: in.Alloc}
	scs := in.Scenarios
	base := ev.Availability(scs)
	totalDemand := in.Net.TotalDemand()
	healthyProb := 1.0
	for i := range scs {
		healthyProb -= scs[i].Prob
	}
	if healthyProb < 0 {
		healthyProb = 0
	}
	mass := healthyProb
	for i := range scs {
		mass += scs[i].Prob
	}
	if mass <= 0 || totalDemand <= 0 {
		return nil
	}

	fiberOf := func(link int) int {
		if opts == nil || link < 0 || link >= len(opts.LinkFibers) || len(opts.LinkFibers[link]) == 0 {
			return -1
		}
		return opts.LinkFibers[link][0]
	}
	waveOf := func(link int) float64 {
		if opts == nil || link < 0 || link >= len(opts.WaveGbps) || opts.WaveGbps[link] <= 0 {
			return 1
		}
		return opts.WaveGbps[link]
	}

	// Capacity probes: top healthy rows by dual, descending (ties keep link
	// order). Zero-dual rows cannot improve the objective — skip them.
	type cand struct {
		row  te.CapRow
		dual float64
	}
	var cands []cand
	for _, cr := range h.CapRows {
		if cr.Scenario != -1 || int(cr.Constr) >= len(h.Duals) {
			continue
		}
		if d := h.Duals[cr.Constr]; d > 0 {
			cands = append(cands, cand{row: cr, dual: d})
		}
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].dual > cands[b].dual })
	if len(cands) > topProbes {
		cands = cands[:topProbes]
	}
	for _, c := range cands {
		m, con := h.Model, c.row.Constr
		wave := waveOf(c.row.Link)
		orig := m.RHS(con)
		m.SetRHS(con, orig+wave)
		sol, err := lp.SolveWithBasis(m, h.Basis, nil)
		m.SetRHS(con, orig)
		if err != nil {
			return fmt.Errorf("attr: what-if %s: %w", m.ConstrName(con), err)
		}
		if err := sol.Status.Err(); err != nil {
			return fmt.Errorf("attr: what-if %s: %w", m.ConstrName(con), err)
		}
		// Evaluate the probe allocation on a network that really has the
		// extra capacity (the evaluator sheds at LinkCap otherwise).
		b, a := h.ExtractAllocation(sol.X)
		n2 := *in.Net
		n2.LinkCap = append([]float64(nil), in.Net.LinkCap...)
		n2.LinkCap[c.row.Link] += wave
		ev2 := &availability.Evaluator{Net: &n2, Alloc: &te.Allocation{B: b, A: a}}
		gain := ev2.Availability(scs) - base
		p := Probe{
			Kind:  "add_capacity",
			Label: fmt.Sprintf("+%.0f Gbps on link %d", wave, c.row.Link),
			Link:  c.row.Link, Fiber: fiberOf(c.row.Link), Scen: -1,
			CapacityGbps: wave, AvailabilityGain: gain,
			GainPerGbps: gain / wave,
		}
		if p.Fiber >= 0 {
			p.Label = fmt.Sprintf("+%.0f Gbps on link %d (fiber %d)", wave, c.row.Link, p.Fiber)
		}
		rep.Probes = append(rep.Probes, p)
	}

	// Drop-scenario probes: hardening scenario q away moves its probability
	// to the healthy state, so the gain is analytic — no re-solve:
	// prob_q * (d_healthy - d_q) / mass.
	dHealthy := ev.Delivered(&availability.ScenarioEval{})
	for i := range scs {
		gain := scs[i].Prob * (dHealthy - ev.Delivered(&scs[i])) / mass
		rep.Probes = append(rep.Probes, Probe{
			Kind:  "drop_scenario",
			Label: fmt.Sprintf("drop scenario %d", i),
			Link:  -1, Fiber: -1, Scen: i,
			AvailabilityGain: gain, GainPerGbps: gain,
		})
	}

	// Rank: biggest availability return per unit capacity first
	// (zero-capacity drops rank by raw gain); deterministic tie-breaks.
	sort.SliceStable(rep.Probes, func(a, b int) bool {
		pa, pb := &rep.Probes[a], &rep.Probes[b]
		if pa.GainPerGbps != pb.GainPerGbps {
			return pa.GainPerGbps > pb.GainPerGbps
		}
		if pa.AvailabilityGain != pb.AvailabilityGain {
			return pa.AvailabilityGain > pb.AvailabilityGain
		}
		return pa.Label < pb.Label
	})
	return nil
}

// emit publishes the finished report to the recorder and ledger. All
// emission happens here, after every pass, in report order — one
// deterministic event stream regardless of how the passes interleaved
// their work.
func emit(rec obs.Recorder, L *ledger.Ledger, rep *Report) {
	if rec != nil {
		rec.Add("attr.runs", 1)
		rec.Add("attr.scenarios", int64(len(rep.Scenarios)+1))
		flows := len(rep.Healthy.Flows)
		for i := range rep.Scenarios {
			flows += len(rep.Scenarios[i].Flows)
		}
		rec.Add("attr.flows", int64(flows))
		rec.Add("attr.identity_violations", int64(rep.IdentityViolations))
		rec.Add("attr.sensitivities", int64(len(rep.Sensitivities)))
		fdChecks, fdMiss := 0, 0
		for i := range rep.Sensitivities {
			fdChecks++
			if !rep.Sensitivities[i].Validated {
				fdMiss++
			}
		}
		rec.Add("attr.fd_checks", int64(fdChecks))
		rec.Add("attr.fd_mismatches", int64(fdMiss))
		rec.Add("attr.probes", int64(len(rep.Probes)))
	}
	if L == nil {
		return
	}
	emitScenario := func(sl *ScenarioLoss) {
		L.Emit(ledger.Event{
			Kind: ledger.KindAttribution, Scenario: sl.Scenario,
			Prob: sl.Prob, Gbps: sl.UnmetGbps, Fraction: sl.Loss,
			Detail: "scenario",
		})
		for _, fl := range sl.Flows {
			L.Emit(ledger.Event{
				Kind: ledger.KindAttribution, Scenario: sl.Scenario,
				Flow: fl.Flow, Gbps: fl.UnmetGbps, Fraction: fl.Loss,
				Detail: "flow",
			})
		}
	}
	emitScenario(&rep.Healthy)
	for i := range rep.Scenarios {
		emitScenario(&rep.Scenarios[i])
	}
	for i := range rep.Sensitivities {
		s := &rep.Sensitivities[i]
		fdHigh := s.FDHigh
		if math.IsInf(fdHigh, 1) {
			fdHigh = 0 // JSON-safe; FDLow alone brackets a zero-RHS row
		}
		L.Emit(ledger.Event{
			Kind: ledger.KindSensitivity, Scenario: s.Scenario,
			Link: s.Link, Fiber: s.Fiber, Value: s.Dual,
			FDLow: s.FDLow, FDHigh: fdHigh, Detail: s.Row,
		})
	}
	for i := range rep.Probes {
		p := &rep.Probes[i]
		L.Emit(ledger.Event{
			Kind: ledger.KindWhatIf, Scenario: p.Scen,
			Link: p.Link, Fiber: p.Fiber, Gbps: p.CapacityGbps,
			Value: p.AvailabilityGain, Detail: p.Label,
		})
	}
}
