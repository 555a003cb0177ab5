//go:generate go test ./internal/obs -run TestMetricsMDFresh -update

// Package arrow is a restoration-aware traffic-engineering library: a Go
// implementation of ARROW (Zhong et al., SIGCOMM 2021).
//
// When a WAN fiber is cut, the wavelengths it carried can be reconfigured
// onto healthy "surrogate" fibers, reviving the failed IP links — usually
// only partially, because the surviving fibers rarely have enough usable
// spectrum. ARROW makes traffic engineering aware of those partial
// restoration opportunities: an offline stage enumerates restoration
// candidates per failure scenario ("LotteryTickets", relaxed
// routing-and-wavelength-assignment plus randomized rounding), and an
// online two-phase LP picks the winning candidate per scenario while
// computing tunnel allocations, so the network can react to a cut in
// seconds with a precomputed plan.
//
// Typical use:
//
//	b := arrow.NewBuilder(4, 16)
//	ab := b.AddFiber(0, 1, 560)
//	... more fibers ...
//	b.AddIPLink(0, 1, 2, 200, []arrow.FiberID{ab})
//	... more IP links ...
//	net, _ := b.Build()
//	planner, _ := net.Plan(arrow.PlanOptions{Tickets: 40})
//	plan, _ := planner.Solve([]arrow.Demand{{Src: 0, Dst: 1, Gbps: 300}}, arrow.SolveOptions{})
//	reaction, _ := plan.OnFiberCut(ab)   // restored capacities + ROADM ops
//
// The internal packages implement every substrate from scratch — a sparse
// revised-simplex LP solver, branch-and-bound MILP, RWA, the LotteryTicket
// generator, all baseline TEs (FFC, TeaVaR, ECMP), the availability
// evaluator, and a discrete-event testbed emulator with ASE noise loading.
package arrow

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/arrow-te/arrow/internal/availability"
	"github.com/arrow-te/arrow/internal/noise"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/optical"
	"github.com/arrow-te/arrow/internal/par"
	"github.com/arrow-te/arrow/internal/plan"
	"github.com/arrow-te/arrow/internal/pool"
	"github.com/arrow-te/arrow/internal/rwa"
	"github.com/arrow-te/arrow/internal/scenario"
	"github.com/arrow-te/arrow/internal/spectrum"
	"github.com/arrow-te/arrow/internal/te"
)

// FiberID identifies a fiber within a Network.
type FiberID int

// LinkID identifies an IP link (port-channel) within a Network.
type LinkID int

// ErrInvalidNetwork is the class of every error the Builder returns:
// malformed input (a site, fiber, length, wave count or path the network
// cannot have, an SRLG on a missing fiber) and an IP link that cannot be
// provisioned as asked (an unknown rate, a path beyond its reach, too
// little continuous spectrum). Test for it with errors.Is.
var ErrInvalidNetwork = errors.New("arrow: invalid network")

// invalid returns an ErrInvalidNetwork naming op and what is wrong with it.
func invalid(op, format string, args ...any) error {
	return fmt.Errorf("%w: %s: %w", ErrInvalidNetwork, op, fmt.Errorf(format, args...))
}

// Builder assembles a two-layer WAN: ROADM sites joined by fibers, and IP
// links provisioned as wavelength bundles over fiber paths. Malformed input
// sets a sticky error, naming it, that every later call returns.
type Builder struct {
	net   *optical.Network
	srlgs []scenario.Group
	err   error
}

// NewBuilder starts a network with numSites ROADM/router sites and the
// given number of wavelength slots per fiber (96 is the ITU-T DWDM grid).
func NewBuilder(numSites, slotsPerFiber int) *Builder {
	b := &Builder{net: optical.NewNetwork(numSites, slotsPerFiber)}
	if numSites <= 0 || slotsPerFiber <= 0 {
		b.err = invalid("NewBuilder", "%d sites, %d slots per fiber: want both > 0", numSites, slotsPerFiber)
	}
	return b
}

// check makes a site outside the network, else bad, the sticky error and
// returns the Builder's error.
func (b *Builder) check(op string, bad error, sites ...int) error {
	for _, s := range sites {
		if b.err == nil && (s < 0 || s >= b.net.NumROADMs) {
			b.err = invalid(op, "site %d outside [0,%d)", s, b.net.NumROADMs)
		}
	}
	if b.err == nil && bad != nil {
		b.err = invalid(op, "%w", bad)
	}
	return b.err
}

// AddFiber adds a fiber span of positive length between sites a and b.
func (b *Builder) AddFiber(a, bb int, lengthKm float64) FiberID {
	var bad error
	if !(lengthKm > 0) {
		bad = fmt.Errorf("length %g km, want > 0", lengthKm)
	}
	if b.check("AddFiber", bad, a, bb) != nil {
		return -1
	}
	f := b.net.AddFiber(optical.ROADM(a), optical.ROADM(bb), lengthKm)
	return FiberID(f.ID)
}

// AddIPLink provisions an IP link of `waves` wavelengths at gbpsPerWave
// (must be one of the Table 6 rates: 100, 200, 300, 400) between src and
// dst, riding the given fiber path from src to dst. Spectrum slots are
// assigned first-fit with wavelength continuity. A rate with no modulation,
// a path beyond the rate's reach and a link that does not fit are
// ErrInvalidNetwork errors that leave the Builder usable.
func (b *Builder) AddIPLink(src, dst, waves int, gbpsPerWave float64, path []FiberID) (LinkID, error) {
	fibers := make([]int, len(path))
	for i, f := range path {
		fibers[i] = int(f)
	}
	bad := b.net.CheckPath(optical.ROADM(src), optical.ROADM(dst), fibers)
	if waves <= 0 {
		bad = fmt.Errorf("%d wavelengths, want > 0", waves)
	}
	if err := b.check("AddIPLink", bad, src, dst); err != nil {
		return -1, err
	}
	mod, ok := spectrum.ModulationByRate(gbpsPerWave)
	if !ok {
		return -1, invalid("AddIPLink", "no modulation with rate %g Gbps", gbpsPerWave)
	}
	if lenKm := b.net.PathLengthKm(fibers); lenKm > mod.ReachKm {
		return -1, invalid("AddIPLink", "path is %.0f km, beyond the %.0f km reach of %s", lenKm, mod.ReachKm, mod.Name)
	}
	ws := b.net.FirstFit(fibers, mod, waves)
	if len(ws) < waves {
		return -1, invalid("AddIPLink", "only %d of %d wavelengths fit on the path (wavelength continuity)", len(ws), waves)
	}
	l, err := b.net.Provision(optical.ROADM(src), optical.ROADM(dst), ws)
	if err != nil {
		return -1, invalid("AddIPLink", "%w", err)
	}
	return LinkID(l.ID), nil
}

// AddSRLG declares a shared-risk link group: the given fibers ride the same
// physical conduit (or WDM shelf) and are cut TOGETHER with probability
// prob, independently of the per-fiber failure marginals. Groups are
// failure elements of the scenario enumeration only when PlanOptions.UseSRLGs
// is set; planning then rejects a prob outside [0, 0.5), NaN included. Build
// rejects a group on a fiber the network does not have.
func (b *Builder) AddSRLG(prob float64, fibers ...FiberID) {
	if b.err != nil {
		return
	}
	fs := make([]int, len(fibers))
	for i, f := range fibers {
		fs[i] = int(f)
	}
	b.srlgs = append(b.srlgs, scenario.Group{
		Name: fmt.Sprintf("srlg%d", len(b.srlgs)), Fibers: fs, Prob: prob,
	})
}

// Build validates and returns the network.
func (b *Builder) Build() (*Network, error) {
	if b.err != nil {
		return nil, b.err
	}
	for _, g := range b.srlgs {
		for _, f := range g.Fibers {
			if f < 0 || f >= len(b.net.Fibers) {
				return nil, invalid("Build", "%s: fiber %d outside [0,%d)", g.Name, f, len(b.net.Fibers))
			}
		}
	}
	if err := b.net.Validate(); err != nil {
		return nil, invalid("Build", "%w", err)
	}
	return &Network{opt: b.net, srlgs: b.srlgs}, nil
}

// Network is an immutable two-layer WAN ready for planning.
type Network struct {
	opt   *optical.Network
	srlgs []scenario.Group
}

// NumSRLGs returns the number of declared shared-risk link groups.
func (n *Network) NumSRLGs() int { return len(n.srlgs) }

// NumSites returns the number of ROADM/router sites.
func (n *Network) NumSites() int { return n.opt.NumROADMs }

// NumFibers returns the number of fibers.
func (n *Network) NumFibers() int { return len(n.opt.Fibers) }

// NumLinks returns the number of IP links.
func (n *Network) NumLinks() int { return len(n.opt.IPLinks) }

// LinkCapacityGbps returns the healthy capacity of an IP link. It panics,
// naming the link and the valid range, on a link the network does not have.
func (n *Network) LinkCapacityGbps(l LinkID) float64 {
	if l < 0 || int(l) >= n.NumLinks() {
		panic(fmt.Sprintf("arrow: LinkCapacityGbps: link %d outside [0,%d)", l, n.NumLinks()))
	}
	return n.opt.LinkByID(int(l)).CapacityGbps()
}

// FailedLinks returns the IP links that go down when the fibers are cut. It
// panics, naming the fiber and the valid range, on a fiber the network does
// not have.
func (n *Network) FailedLinks(fibers ...FiberID) []LinkID {
	cut := make([]int, len(fibers))
	for i, f := range fibers {
		if f < 0 || int(f) >= n.NumFibers() {
			panic(fmt.Sprintf("arrow: FailedLinks: fiber %d outside [0,%d)", f, n.NumFibers()))
		}
		cut[i] = int(f)
	}
	var out []LinkID
	for _, l := range n.opt.FailedLinks(cut) {
		out = append(out, LinkID(l))
	}
	return out
}

// RestorationRatio computes U_phi for cutting a single fiber: the fraction
// of its provisioned bandwidth that wavelength reconfiguration can revive.
// A fiber the network does not have is an error that names it.
func (n *Network) RestorationRatio(f FiberID) (float64, error) {
	if f < 0 || int(f) >= n.NumFibers() {
		return 0, fmt.Errorf("arrow: no fiber %d (fibers are [0,%d))", f, n.NumFibers())
	}
	return rwa.RestorationRatio(n.opt, int(f), 3, true, true)
}

// PlanOptions configures the offline planning stage.
type PlanOptions struct {
	// Tickets is |Z|, the LotteryTickets generated per failure scenario
	// (default 20). Ticket #1 is always the pure optical-layer candidate.
	Tickets int
	// Cutoff drops failure scenarios below this probability (default 1e-3).
	Cutoff float64
	// FailureProbs gives each fiber's failure probability, each in
	// [0, 0.5): planning rejects any other value, NaN included. When nil
	// they are drawn from the paper's Weibull(0.8, 0.02) model with Seed.
	FailureProbs []float64
	// SurrogatePaths is k, the surrogate fiber paths per failed link
	// (default 3).
	SurrogatePaths int
	// TunnelsPerFlow bounds each flow's tunnel set (default 4).
	TunnelsPerFlow int
	Seed           int64
	// Parallelism is the worker count for the per-scenario RWA solves and
	// LotteryTicket generation (the offline stage is embarrassingly
	// parallel). 0 selects runtime.NumCPU(); 1 runs fully sequentially.
	// The plan is identical for every setting.
	Parallelism int
	// NoWarm disables LP warm starts in the offline RWA solves and in the
	// TE solves issued by this planner (arrow-plan -warm=false). The warm
	// sources are deterministic, but the LPs are degenerate: a cold start can
	// reach another optimal vertex, so the switch can change the tickets, the
	// winners and the throughput, not only solver effort (ROADMAP item 1).
	NoWarm bool
	// HealthEvery probes the numerical health of every LP solve this
	// planner issues (offline RWA, TE phases) at this pivot period; see
	// lp.Options.HealthEvery. 0 disables probing; probes never change
	// results (arrow-plan -health-every).
	HealthEvery int
	// MaxCutSize, UseSRLGs, TargetMass and MaxEnumerated shape the
	// scenario space: cut sets of up to MaxCutSize (0 = 2) simultaneously
	// failed elements (individual fibers, plus the network's AddSRLG groups
	// when UseSRLGs is set), enumerated best-first by probability until
	// Cutoff, TargetMass covered probability mass, or MaxEnumerated distinct
	// cut sets stops the walk. All four zero plans every single and double
	// fiber cut above Cutoff; any of them set also turns on the
	// compositional stage, which NoCompose turns off
	// (arrow-plan -max-cut-size/-srlgs/-target-mass/-max-enumerated).
	MaxCutSize    int
	UseSRLGs      bool
	TargetMass    float64
	MaxEnumerated int
	// NoCompose disables the compositional offline stage on the correlated
	// path (arrow-plan -compose=false, the A/B reference): no multi-fiber
	// cut's ticket pool is seeded with the candidate composed from its
	// constituent single-cut solutions. The stage decides ticket pools, not
	// LP starts, so the scenarios and their RWA results are the same either
	// way; the ticket pools — so possibly the winning tickets — may differ.
	NoCompose bool
}

// Planner holds the offline artifacts: failure scenarios, RWA solutions and
// LotteryTickets, plus the IP-layer tunnel catalogue.
//
// A Planner retains nothing per solve. Each Solve builds the
// demand-independent half of its TE model (how each demand's tunnels split
// under each planned scenario and restoration support), its tunnel–link
// incidence and variable layout in a view from a pool in te, which keeps as
// many views as solves ever ran at once, each as large as the largest solve
// it served (≈ 2.5 MB of live heap for the benchmark's Facebook instance,
// its pooled models, solutions and evaluator passes included). A solve's
// answer does not depend on what earlier solves left in the pools, and
// Solve is safe for concurrent use.
type Planner struct {
	net       *Network
	scenarios []te.RestorableScenario
	set       *scenario.Set
	// teOpts is what every Solve copies: the TE settings and the sinks of the
	// context the planner was planned with.
	teOpts te.ArrowOptions
	// rwa and cuts are aligned with scenarios: each planned scenario's
	// relaxed RWA result and its cut fibers (ascending, distinct). A reaction
	// reads its ROADM plan off the one and finds its scenario by the other,
	// through byCut: the scenario indices in ascending order of their cuts.
	// All three are read-only once planned.
	rwa   []*rwa.Result
	cuts  [][]int
	byCut []int
	// tunnels[src*sites+dst] is the tunnel set of every flow from site src
	// to site dst (tunnelTable): selected once, when the planner is planned,
	// since it depends only on the network and TunnelsPerFlow. Read-only,
	// and shared by the te.Network of every Solve, as is linkCap, every IP
	// link's healthy capacity.
	tunnels [][]te.Tunnel
	linkCap []float64
}

// Plan runs ARROW's offline stage: enumerate probable fiber-cut scenarios,
// solve the relaxed RWA for each, and generate LotteryTickets.
func (n *Network) Plan(opts PlanOptions) (*Planner, error) {
	return n.PlanContext(context.Background(), opts)
}

// PlanContext is Plan with a context: cancellation aborts the per-scenario
// worker pool, and a metrics Recorder attached via obs.WithRecorder (as the
// CLIs do) instruments the RWA solves, ticket generation and worker pool
// without appearing in this package's API. A flight recorder attached via
// ledger.WithLedger likewise captures the per-scenario decision stream
// (tickets generated/rejected, solver health, TE solves, winners), and a
// stage profiler attached via obs.WithProfiler the stage attribution. The
// planner keeps all three, and opts.Parallelism and HealthEvery, which ride
// the same context, for its Solve calls. A plain context reproduces Plan.
//
// The stage itself is internal/plan's, shared with the experiments'
// eval.BuildPipeline; this function only maps the options onto it and indexes
// the result by cut for OnFiberCut.
func (n *Network) PlanContext(ctx context.Context, opts PlanOptions) (*Planner, error) {
	if opts.Cutoff <= 0 {
		opts.Cutoff = 1e-3
	}
	if opts.TunnelsPerFlow <= 0 {
		opts.TunnelsPerFlow = 4
	}
	ctx = par.WithWorkers(obs.WithHealthEvery(ctx, opts.HealthEvery), opts.Parallelism)
	off, err := plan.Build(ctx, n.opt, opts.FailureProbs, n.srlgs, plan.Options{
		Tickets: opts.Tickets, K: opts.SurrogatePaths, Seed: opts.Seed, Cutoff: opts.Cutoff,
		Space: plan.Space{
			MaxCutSize: opts.MaxCutSize, UseSRLGs: opts.UseSRLGs, TargetMass: opts.TargetMass,
			MaxEnumerated: opts.MaxEnumerated, NoCompose: opts.NoCompose,
		},
		NoWarm: opts.NoWarm,
	})
	if err != nil {
		return nil, fmt.Errorf("arrow: %w", err)
	}
	p := &Planner{
		net: n, set: off.Set, scenarios: off.Scenarios, tunnels: tunnelTable(n.opt, opts.TunnelsPerFlow),
		teOpts: te.SessionOptions(ctx, opts.NoWarm),
		rwa:    off.RWA, cuts: off.Cuts, byCut: make([]int, len(off.Cuts)),
		linkCap: make([]float64, len(n.opt.IPLinks)),
	}
	for i, l := range n.opt.IPLinks {
		p.linkCap[i] = l.CapacityGbps()
	}
	for qi := range p.byCut {
		p.byCut[qi] = qi
	}
	// Planned cuts are distinct, so the order is total.
	slices.SortFunc(p.byCut, func(a, b int) int { return slices.Compare(p.cuts[a], p.cuts[b]) })
	return p, nil
}

// scenarioOf returns the planned scenario that cuts exactly these fibers,
// given in any order and with any repeats, and the canonical form of the cut
// it looked up (ascending, distinct), built in buf's storage.
func (p *Planner) scenarioOf(buf []int, fibers []FiberID) (qi int, cut []int, ok bool) {
	cut = buf[:0]
	for _, f := range fibers {
		cut = append(cut, int(f))
	}
	slices.Sort(cut)
	cut = slices.Compact(cut)
	i, ok := slices.BinarySearchFunc(p.byCut, cut, func(qi int, cut []int) int { return slices.Compare(p.cuts[qi], cut) })
	if !ok {
		return 0, cut, false
	}
	return p.byCut[i], cut, true
}

// NumScenarios returns the number of planned failure scenarios.
func (p *Planner) NumScenarios() int { return len(p.scenarios) }

// Coverage describes how much failure probability mass the plan covers.
type Coverage struct {
	// Healthy is the probability that no fiber is cut.
	Healthy float64
	// Planned is the total probability of the enumerated cut scenarios.
	Planned float64
	// Residual is the mass of failure states below the cutoff: when one of
	// those occurs, ARROW has no precomputed plan and falls back to
	// reactive behaviour.
	Residual float64
}

// Coverage reports the probability mass breakdown of the planning stage.
func (p *Planner) Coverage() Coverage {
	c := Coverage{Healthy: p.set.HealthyProb, Residual: p.set.ResidualProb}
	for _, sc := range p.set.Scenarios {
		c.Planned += sc.Prob
	}
	return c
}

// Demand is one ingress-egress traffic demand.
type Demand struct {
	Src, Dst int
	Gbps     float64
}

// SolveOptions configures the online TE solve.
type SolveOptions struct {
	// Alpha is the Phase I slack bound fraction (0 means the default, 0.1;
	// a negative, NaN or infinite alpha is refused).
	Alpha float64
	// NaiveOnly skips Phase I and uses the optical-layer candidate for
	// every scenario (the paper's Arrow-Naive baseline).
	NaiveOnly bool
}

// TrafficPlan is the output of the online stage: admitted bandwidth,
// splitting ratios, and the proactive restoration plan per scenario.
type TrafficPlan struct {
	planner *Planner
	network *te.Network
	alloc   *te.Allocation
	demands []Demand
}

// Solve runs ARROW's restoration-aware TE for the given demands. Each
// demand's tunnels were selected when the planner was planned, once per site
// pair. With k = PlanOptions.TunnelsPerFlow, each of the first ⌊k/2⌋ (at
// least one) is a shortest path by hop count that shares no fiber with the
// tunnels before it (where there is none, the shortest path not chosen yet);
// the rest are the shortest paths not chosen yet.
// EXPERIMENTS.md's numbers use the evaluation's rule instead (topo.Tunnels:
// fiber-disjoint shortest paths until none is left, then Yen's k shortest),
// and neither rule reads better than the other on both (ROADMAP item 12).
func (p *Planner) Solve(demands []Demand, opts SolveOptions) (*TrafficPlan, error) {
	if opts.Alpha < 0 || math.IsNaN(opts.Alpha) || math.IsInf(opts.Alpha, 0) {
		return nil, fmt.Errorf("arrow: invalid alpha %v", opts.Alpha)
	}
	net, err := p.buildTENetwork(demands)
	if err != nil {
		return nil, err
	}
	teOpts := p.teOpts
	teOpts.Alpha = opts.Alpha
	var alloc *te.Allocation
	if opts.NaiveOnly {
		alloc, err = te.ArrowNaive(net, p.scenarios, &teOpts)
	} else {
		alloc, err = te.Arrow(net, p.scenarios, &teOpts)
	}
	if err != nil {
		return nil, err
	}
	return &TrafficPlan{planner: p, network: net, alloc: alloc, demands: demands}, nil
}

// buildTENetwork checks the demands and assembles the IP-layer TE instance,
// reading each demand's tunnels and every link's capacity off the planner.
// The network has no holder (te.NewNetwork): its incidence depends on the
// order of the demands, so each solve builds it in its own scratch.
func (p *Planner) buildTENetwork(demands []Demand) (*te.Network, error) {
	opt := p.net.opt
	net := &te.Network{
		LinkCap: p.linkCap,
		Flows:   make([]te.Flow, len(demands)), Tunnels: make([][]te.Tunnel, len(demands)),
	}
	for i, d := range demands {
		if d.Src < 0 || d.Src >= opt.NumROADMs || d.Dst < 0 || d.Dst >= opt.NumROADMs || d.Src == d.Dst {
			return nil, fmt.Errorf("arrow: invalid demand %d->%d", d.Src, d.Dst)
		}
		if !(d.Gbps >= 0) || math.IsInf(d.Gbps, 1) {
			return nil, fmt.Errorf("arrow: demand %d (%d->%d) has invalid Gbps %v", i, d.Src, d.Dst, d.Gbps)
		}
		net.Tunnels[i] = p.tunnels[d.Src*opt.NumROADMs+d.Dst]
		if len(net.Tunnels[i]) == 0 {
			return nil, fmt.Errorf("arrow: no IP path from %d to %d", d.Src, d.Dst)
		}
		net.Flows[i] = te.Flow{Src: d.Src, Dst: d.Dst, Demand: d.Gbps}
	}
	return net, nil
}

// ipHop is one adjacency entry of the IP-layer graph.
type ipHop struct {
	link int
	to   int
}

// tunnelSearch is the IP-layer graph tunnel selection walks (adjacency by
// site, the distinct fibers under each IP link) and its scratch, reused from
// one search to the next: the fibers the chosen tunnels ride and, per site,
// whether the BFS reached it, the hop that first did (to = its predecessor)
// and how many hops from the source that was.
type tunnelSearch struct {
	adj        [][]ipHop
	linkFibers [][]int
	usedFiber  []bool
	visited    []bool
	via        []ipHop
	depth      []int
	queue      []int
}

// tunnelTable selects up to k tunnels for every ordered pair of sites that
// end an IP link, indexed src*sites+dst; pairs with no IP path get none.
func tunnelTable(opt *optical.Network, k int) [][]te.Tunnel {
	sites := opt.NumROADMs
	s := &tunnelSearch{
		adj: make([][]ipHop, sites), linkFibers: make([][]int, len(opt.IPLinks)), usedFiber: make([]bool, len(opt.Fibers)),
		visited: make([]bool, sites), via: make([]ipHop, sites), depth: make([]int, sites),
	}
	for _, l := range opt.IPLinks {
		s.adj[l.Src] = append(s.adj[l.Src], ipHop{l.ID, int(l.Dst)})
		s.adj[l.Dst] = append(s.adj[l.Dst], ipHop{l.ID, int(l.Src)})
		for _, w := range l.Waves {
			for _, f := range w.FiberPath {
				if !slices.Contains(s.linkFibers[l.ID], f) {
					s.linkFibers[l.ID] = append(s.linkFibers[l.ID], f)
				}
			}
		}
	}
	table := make([][]te.Tunnel, sites*sites)
	for src := range sites {
		for dst := range sites {
			if src != dst && len(s.adj[src]) > 0 && len(s.adj[dst]) > 0 {
				table[src*sites+dst] = s.tunnels(src, dst, k)
			}
		}
	}
	return table
}

// tunnels selects up to k distinct tunnels from src to dst: the first
// max(⌊k/2⌋, 1) are shortest paths (by hop count) sharing no fiber with the
// tunnels before them, where such a path exists; the rest are the shortest
// paths not chosen yet.
func (s *tunnelSearch) tunnels(src, dst, k int) []te.Tunnel {
	clear(s.usedFiber)
	disjoint := max(k/2, 1)
	var out []te.Tunnel
	for len(out) < k {
		var path []int
		if len(out) < disjoint {
			path = s.shortest(src, dst, out, true)
		}
		if path == nil {
			if path = s.shortest(src, dst, out, false); path == nil {
				break
			}
		}
		out = append(out, te.Tunnel{Links: path})
		for _, l := range path {
			for _, f := range s.linkFibers[l] {
				s.usedFiber[f] = true
			}
		}
	}
	return slices.Clip(out)
}

// shortest returns the first path from src to dst in BFS order that is not
// one of the chosen tunnels, skipping links on a used fiber when disjoint is
// set; nil if there is none.
func (s *tunnelSearch) shortest(src, dst int, chosen []te.Tunnel, disjoint bool) []int {
	clear(s.visited)
	s.visited[src], s.depth[src] = true, 0
	s.queue = append(s.queue[:0], src)
	for head := 0; head < len(s.queue); head++ {
		cur := s.queue[head]
	hops:
		for _, h := range s.adj[cur] {
			if s.visited[h.to] || disjoint && s.onUsedFiber(h.link) {
				continue
			}
			if h.to != dst {
				s.visited[h.to], s.via[h.to], s.depth[h.to] = true, ipHop{to: cur, link: h.link}, s.depth[cur]+1
				s.queue = append(s.queue, h.to)
				continue
			}
			path := make([]int, s.depth[cur]+1)
			path[s.depth[cur]] = h.link
			for v := cur; v != src; v = s.via[v].to {
				path[s.depth[v]-1] = s.via[v].link
			}
			for _, t := range chosen {
				if slices.Equal(t.Links, path) {
					continue hops
				}
			}
			return path
		}
	}
	return nil
}

// onUsedFiber reports whether IP link l rides a fiber a chosen tunnel rides.
func (s *tunnelSearch) onUsedFiber(l int) bool {
	for _, f := range s.linkFibers[l] {
		if s.usedFiber[f] {
			return true
		}
	}
	return false
}

// AdmittedGbps returns the total bandwidth the plan admits.
func (tp *TrafficPlan) AdmittedGbps() float64 {
	s := 0.0
	for _, b := range tp.alloc.B {
		s += b
	}
	return s
}

// Throughput returns admitted / demanded.
func (tp *TrafficPlan) Throughput() float64 { return tp.alloc.Throughput(tp.network) }

// SplitRatios returns each demand's traffic split over its tunnels.
func (tp *TrafficPlan) SplitRatios() [][]float64 { return tp.alloc.SplitRatios() }

// TunnelLinks returns the IP links of demand d's tunnel t. It panics,
// naming the index and its valid range, on a demand or tunnel the plan does
// not have.
func (tp *TrafficPlan) TunnelLinks(d, t int) []LinkID {
	if d < 0 || d >= len(tp.network.Tunnels) {
		panic(fmt.Sprintf("arrow: TunnelLinks: demand %d outside [0,%d)", d, len(tp.network.Tunnels)))
	}
	if ts := tp.network.Tunnels[d]; t < 0 || t >= len(ts) {
		panic(fmt.Sprintf("arrow: TunnelLinks: tunnel %d of demand %d outside [0,%d)", t, d, len(ts)))
	}
	var out []LinkID
	for _, l := range tp.network.Tunnels[d][t].Links {
		out = append(out, LinkID(l))
	}
	return out
}

// Availability computes the probability-weighted demand satisfaction over
// the planned failure scenarios (§6.1 of the paper).
func (tp *TrafficPlan) Availability() float64 {
	ev := availability.Evaluator{Net: tp.network, Alloc: tp.alloc}
	return ev.AvailabilityOf(len(tp.planner.scenarios), tp.scenario)
}

// scenario is planned scenario i as the availability evaluator reads it,
// with the capacity its winning ticket restores.
func (tp *TrafficPlan) scenario(i int) availability.ScenarioEval {
	sc := &tp.planner.scenarios[i]
	ev := availability.ScenarioEval{Prob: sc.Prob, Failed: sc.FailedLinks}
	if tp.alloc.WinningTicket != nil {
		ev.Restored = sc.Restoration(tp.alloc.WinningTicket[i])
	}
	return ev
}

// Reaction is the precomputed response to a fiber cut: which IP links fail,
// how much capacity the winning LotteryTicket revives on each, and the
// ROADM reconfiguration plan that realises it.
type Reaction struct {
	Failed       []LinkID
	RestoredGbps map[LinkID]float64
	// AddDropROADMs and IntermediateROADMs are the two parallel
	// reconfiguration waves (Appendix A.6 of the paper).
	AddDropROADMs      []int
	IntermediateROADMs []int
	// Retunes counts transponders that must change frequency.
	Retunes int
	// ReusedPorts counts the idle router ports / transponders the plan puts
	// back to work (two per restored wavelength).
	ReusedPorts int
}

// ErrUnplannedCut is the error OnFiberCut and ROADMConfig wrap when no
// planned scenario cuts exactly the given fibers.
var ErrUnplannedCut = errors.New("arrow: unplanned cut")

// OnFiberCut looks up the proactive restoration plan for the scenario that
// cuts exactly the given fibers (in any order). The scenario must have been
// planned: a cut below the planning cutoff, or one that fails no IP link,
// returns an error wrapping ErrUnplannedCut — even when the links it fails
// are exactly those of some planned scenario, because a different fiber set
// leaves different spectrum to restore on.
func (tp *TrafficPlan) OnFiberCut(fibers ...FiberID) (*Reaction, error) {
	sc := reactionPool.Get()
	defer reactionPool.Put(sc)
	qi, err := tp.restoration(sc, fibers)
	if err != nil {
		return nil, err
	}
	return tp.reaction(qi, &sc.plan), nil
}

// reaction reports scenario qi's ROADM plan with the links the scenario fails
// and the capacities its winning ticket restores. It shares no memory with
// roadm, which may go back to a pool.
func (tp *TrafficPlan) reaction(qi int, roadm *noise.Plan) *Reaction {
	failed := tp.planner.rwa[qi].Failed // never empty on a planned scenario
	// A wave's distinct ROADMs are listed on the stack, then copied out (nil
	// when there are none).
	var ids [64]int
	re := &Reaction{
		Failed: make([]LinkID, len(failed)), RestoredGbps: make(map[LinkID]float64, len(failed)),
		AddDropROADMs:      append([]int(nil), noise.AppendDistinctROADMs(ids[:0], roadm.AddDropOps)...),
		IntermediateROADMs: append([]int(nil), noise.AppendDistinctROADMs(ids[:0], roadm.IntermediateOps)...),
		Retunes:            roadm.Retunes, ReusedPorts: roadm.ReusedPorts,
	}
	var restored te.Restoration
	if tp.alloc.WinningTicket != nil {
		restored = tp.planner.scenarios[qi].Restoration(tp.alloc.WinningTicket[qi])
	}
	for i, l := range failed {
		re.Failed[i] = LinkID(l)
		re.RestoredGbps[LinkID(l)] = restored.On(l)
	}
	return re
}

// reactionScratch is what one restoration builds and drops: the asked cut
// in canonical form, the winning ticket's assignment and the ROADM plan it
// compiles into. Each only grows, so once the pooled scratches have served
// the plan's largest scenario a reaction allocates only what it returns.
type reactionScratch struct {
	cut  []int
	asg  rwa.Assignment
	plan noise.Plan
}

// reactionPool hands reaction scratches from one OnFiberCut or ROADMConfig
// to the next.
var reactionPool pool.Free[reactionScratch]

// restoration finds the planned scenario qi that cuts exactly these fibers
// and compiles its winning ticket into sc.plan, ROADM operations on the
// scenario's planned RWA result, whose failed links index the ticket. It
// reads the result's links, wave counts and surrogate path options: no path
// search, no LP, and no memo: every call assigns and compiles anew. It is
// what OnFiberCut reports and what ROADMConfig renders.
func (tp *TrafficPlan) restoration(sc *reactionScratch, fibers []FiberID) (qi int, err error) {
	p := tp.planner
	var ok bool
	// The errors quote a copy of fibers, so a caller's variadic array can
	// stay on its stack.
	if qi, sc.cut, ok = p.scenarioOf(sc.cut, fibers); !ok {
		return 0, fmt.Errorf("%w %v (below the planning cutoff?)", ErrUnplannedCut, slices.Clone(fibers))
	}
	winner := 0
	if tp.alloc.WinningTicket != nil {
		winner = tp.alloc.WinningTicket[qi]
	}
	if !rwa.AssignInto(&sc.asg, p.rwa[qi], p.scenarios[qi].Tickets[winner].Waves) {
		return 0, fmt.Errorf("arrow: cut %v: winning ticket %d of scenario %d does not fit its planned RWA result", slices.Clone(fibers), winner, qi)
	}
	noise.BuildPlanInto(&sc.plan, p.net.opt, p.rwa[qi], &sc.asg)
	return qi, nil
}
