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
	"github.com/arrow-te/arrow/internal/optical"
	"github.com/arrow-te/arrow/internal/plan"
	"github.com/arrow-te/arrow/internal/rwa"
	"github.com/arrow-te/arrow/internal/scenario"
	"github.com/arrow-te/arrow/internal/spectrum"
	"github.com/arrow-te/arrow/internal/te"
)

// FiberID identifies a fiber within a Network.
type FiberID int

// LinkID identifies an IP link (port-channel) within a Network.
type LinkID int

// Builder assembles a two-layer WAN: ROADM sites joined by fibers, and IP
// links provisioned as wavelength bundles over fiber paths.
type Builder struct {
	net   *optical.Network
	srlgs []scenario.Group
	err   error
}

// NewBuilder starts a network with numSites ROADM/router sites and the
// given number of wavelength slots per fiber (96 is the ITU-T DWDM grid).
func NewBuilder(numSites, slotsPerFiber int) *Builder {
	return &Builder{net: optical.NewNetwork(numSites, slotsPerFiber)}
}

// AddFiber adds a fiber span between sites a and b.
func (b *Builder) AddFiber(a, bb int, lengthKm float64) FiberID {
	if b.err != nil {
		return -1
	}
	f := b.net.AddFiber(optical.ROADM(a), optical.ROADM(bb), lengthKm)
	return FiberID(f.ID)
}

// AddIPLink provisions an IP link of `waves` wavelengths at gbpsPerWave
// (must be one of the Table 6 rates: 100, 200, 300, 400) between src and
// dst, riding the given fiber path. Spectrum slots are assigned first-fit
// with wavelength continuity.
func (b *Builder) AddIPLink(src, dst, waves int, gbpsPerWave float64, path []FiberID) (LinkID, error) {
	if b.err != nil {
		return -1, b.err
	}
	mod, ok := spectrum.ModulationByRate(gbpsPerWave)
	if !ok {
		return -1, fmt.Errorf("arrow: no modulation with rate %g Gbps", gbpsPerWave)
	}
	fibers := make([]int, len(path))
	var bms []*spectrum.Bitmap
	lenKm := 0.0
	for i, f := range path {
		fibers[i] = int(f)
		bms = append(bms, b.net.Fibers[f].Slots)
		lenKm += b.net.Fibers[f].LengthKm
	}
	if lenKm > mod.ReachKm {
		return -1, fmt.Errorf("arrow: path is %.0f km, beyond the %.0f km reach of %s", lenKm, mod.ReachKm, mod.Name)
	}
	common := spectrum.PathSpectrum(bms)
	var ws []optical.Lightpath
	for s := 0; s < common.Len() && len(ws) < waves; s++ {
		if common.Available(s) {
			ws = append(ws, optical.Lightpath{Slot: s, Modulation: mod, FiberPath: fibers})
		}
	}
	if len(ws) < waves {
		return -1, fmt.Errorf("arrow: only %d of %d wavelengths fit on the path (wavelength continuity)", len(ws), waves)
	}
	l, err := b.net.Provision(optical.ROADM(src), optical.ROADM(dst), ws)
	if err != nil {
		return -1, err
	}
	return LinkID(l.ID), nil
}

// AddSRLG declares a shared-risk link group: the given fibers ride the same
// physical conduit (or WDM shelf) and are cut TOGETHER with probability
// prob, independently of the per-fiber failure marginals. Groups feed the
// correlated k-failure enumerator and only influence planning when
// PlanOptions.UseSRLGs is set.
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
	if err := b.net.Validate(); err != nil {
		return nil, err
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

// LinkCapacityGbps returns the healthy capacity of an IP link.
func (n *Network) LinkCapacityGbps(l LinkID) float64 {
	return n.opt.LinkByID(int(l)).CapacityGbps()
}

// FailedLinks returns the IP links that go down when the fibers are cut.
func (n *Network) FailedLinks(fibers ...FiberID) []LinkID {
	cut := make([]int, len(fibers))
	for i, f := range fibers {
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
func (n *Network) RestorationRatio(f FiberID) (float64, error) {
	return rwa.RestorationRatio(n.opt, int(f), 3, true, true)
}

// PlanOptions configures the offline planning stage.
type PlanOptions struct {
	// Tickets is |Z|, the LotteryTickets generated per failure scenario
	// (default 20). Ticket #1 is always the pure optical-layer candidate.
	Tickets int
	// Cutoff drops failure scenarios below this probability (default 1e-3).
	Cutoff float64
	// FailureProbs gives each fiber's failure probability; when nil they
	// are drawn from the paper's Weibull(0.8, 0.02) model with Seed.
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
	// MaxCutSize, UseSRLGs, TargetMass and MaxEnumerated opt the planner
	// into the correlated k-failure enumerator: cut sets of up to MaxCutSize
	// simultaneously failed elements (individual fibers, plus the network's
	// AddSRLG groups when UseSRLGs is set), enumerated best-first by
	// probability until Cutoff, TargetMass covered probability mass, or
	// MaxEnumerated distinct cut sets stops the walk. All four zero keeps
	// the legacy singles+pairs enumeration and a byte-identical plan
	// (arrow-plan -max-cut-size/-srlgs/-target-mass/-max-enumerated).
	MaxCutSize    int
	UseSRLGs      bool
	TargetMass    float64
	MaxEnumerated int
	// NoCompose disables the compositional offline stage on the correlated
	// path (arrow-plan -compose=false, the cold A/B reference): multi-fiber
	// cut solves are neither warm-started from nor seeded with the candidate
	// composed from the constituent single-cut solutions. The scenarios and
	// their RWA objectives are the same either way; solver effort differs,
	// and the ticket pools — so possibly the winning tickets — may.
	NoCompose bool
}

// Planner holds the offline artifacts: failure scenarios, RWA solutions and
// LotteryTickets, plus the IP-layer tunnel catalogue.
type Planner struct {
	net       *Network
	scenarios []te.RestorableScenario
	naive     []te.RestorableScenario
	tunnels   int
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
	// ipAdj is the IP-layer adjacency by site and linkFibers the distinct
	// fibers under each IP link: tunnel selection's graph, built when the
	// planner is planned and read-only afterwards.
	ipAdj      [][]ipHop
	linkFibers [][]int
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
// planner keeps all three for its Solve calls. A plain context reproduces
// Plan exactly.
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
	off, err := plan.Build(ctx, n.opt, opts.FailureProbs, n.srlgs, plan.Options{
		Tickets: opts.Tickets, K: opts.SurrogatePaths, Seed: opts.Seed, Cutoff: opts.Cutoff,
		Space: plan.Space{
			MaxCutSize: opts.MaxCutSize, UseSRLGs: opts.UseSRLGs, TargetMass: opts.TargetMass,
			MaxEnumerated: opts.MaxEnumerated, NoCompose: opts.NoCompose,
		},
		NoWarm: opts.NoWarm, HealthEvery: opts.HealthEvery, Parallelism: opts.Parallelism,
	})
	if err != nil {
		return nil, fmt.Errorf("arrow: %w", err)
	}
	p := &Planner{
		net: n, set: off.Set, scenarios: off.Scenarios, naive: off.Naive, tunnels: opts.TunnelsPerFlow,
		teOpts: te.SessionOptions(ctx, opts.NoWarm, opts.Parallelism, opts.HealthEvery),
		rwa:    off.RWA, cuts: off.Cuts, byCut: make([]int, len(off.Cuts)),
	}
	p.ipAdj, p.linkFibers = ipGraph(n.opt)
	for qi := range p.byCut {
		p.byCut[qi] = qi
	}
	// Planned cuts are distinct, so the order is total.
	slices.SortFunc(p.byCut, func(a, b int) int { return slices.Compare(p.cuts[a], p.cuts[b]) })
	return p, nil
}

// scenarioOf returns the planned scenario that cuts exactly these fibers,
// given in any order and with any repeats.
func (p *Planner) scenarioOf(fibers []FiberID) (int, bool) {
	cut := make([]int, len(fibers))
	for i, f := range fibers {
		cut[i] = int(f)
	}
	slices.Sort(cut)
	cut = slices.Compact(cut)
	i, ok := slices.BinarySearchFunc(p.byCut, cut, func(qi int, cut []int) int { return slices.Compare(p.cuts[qi], cut) })
	if !ok {
		return 0, false
	}
	return p.byCut[i], true
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

// Solve runs ARROW's restoration-aware TE for the given demands. Tunnels
// are selected automatically (fiber-disjoint first, then shortest paths).
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
		alloc, err = te.ArrowNaive(net, p.naive, &teOpts)
	} else {
		alloc, err = te.Arrow(net, p.scenarios, &teOpts)
	}
	if err != nil {
		return nil, err
	}
	return &TrafficPlan{planner: p, network: net, alloc: alloc, demands: demands}, nil
}

// buildTENetwork derives the IP-layer TE instance from the optical network.
func (p *Planner) buildTENetwork(demands []Demand) (*te.Network, error) {
	n := p.net
	caps := make([]float64, len(n.opt.IPLinks))
	for i, l := range n.opt.IPLinks {
		caps[i] = l.CapacityGbps()
	}
	net := &te.Network{LinkCap: caps}
	search := newBFS(len(p.ipAdj))
	for i, d := range demands {
		if d.Src < 0 || d.Src >= n.opt.NumROADMs || d.Dst < 0 || d.Dst >= n.opt.NumROADMs || d.Src == d.Dst {
			return nil, fmt.Errorf("arrow: invalid demand %d->%d", d.Src, d.Dst)
		}
		if !(d.Gbps >= 0) || math.IsInf(d.Gbps, 1) {
			return nil, fmt.Errorf("arrow: demand %d (%d->%d) has invalid Gbps %v", i, d.Src, d.Dst, d.Gbps)
		}
		tunnels := p.findTunnels(search, d.Src, d.Dst, p.tunnels)
		if len(tunnels) == 0 {
			return nil, fmt.Errorf("arrow: no IP path from %d to %d", d.Src, d.Dst)
		}
		net.Flows = append(net.Flows, te.Flow{Src: d.Src, Dst: d.Dst, Demand: d.Gbps})
		net.Tunnels = append(net.Tunnels, tunnels)
	}
	return net, nil
}

// ipHop is one adjacency entry of the IP-layer graph.
type ipHop struct {
	link int
	to   int
}

// ipGraph returns the IP-layer adjacency by site and, per IP link, the
// distinct fibers its wavelengths ride, in first-seen order.
func ipGraph(opt *optical.Network) (adj [][]ipHop, linkFibers [][]int) {
	adj = make([][]ipHop, opt.NumROADMs)
	linkFibers = make([][]int, len(opt.IPLinks))
	for _, l := range opt.IPLinks {
		adj[l.Src] = append(adj[l.Src], ipHop{l.ID, int(l.Dst)})
		adj[l.Dst] = append(adj[l.Dst], ipHop{l.ID, int(l.Src)})
		for _, w := range l.Waves {
			for _, f := range w.FiberPath {
				if !slices.Contains(linkFibers[l.ID], f) {
					linkFibers[l.ID] = append(linkFibers[l.ID], f)
				}
			}
		}
	}
	return adj, linkFibers
}

// findTunnels runs fiber-disjoint-first tunnel selection over the IP graph.
func (p *Planner) findTunnels(b *bfs, src, dst, k int) []te.Tunnel {
	adj, linkFibers := p.ipAdj, p.linkFibers
	var out []te.Tunnel
	usedFibers := map[int]bool{}
	seenPaths := map[string]bool{}
	for len(out) < k {
		// BFS shortest path avoiding used fibers (after the first pass, no
		// fiber constraint to fill remaining slots).
		banned := func(link int) bool {
			for _, f := range linkFibers[link] {
				if usedFibers[f] {
					return true
				}
			}
			return false
		}
		relaxed := len(out) > 0 && len(out) >= k/2
		path := b.bfsPath(adj, src, dst, func(link int) bool { return !relaxed && banned(link) }, seenPaths)
		if path == nil {
			if !relaxed {
				// retry fully relaxed
				path = b.bfsPath(adj, src, dst, func(int) bool { return false }, seenPaths)
			}
			if path == nil {
				break
			}
		}
		key := fmt.Sprint(path)
		if seenPaths[key] {
			break
		}
		seenPaths[key] = true
		out = append(out, te.Tunnel{Links: path})
		for _, l := range path {
			for _, f := range linkFibers[l] {
				usedFibers[f] = true
			}
		}
	}
	return out
}

// bfs is bfsPath's search state, reused from one search to the next: per
// site, whether it was reached, the hop that first reached it (to = its
// predecessor) and how many hops from the source that was.
type bfs struct {
	visited []bool
	via     []ipHop
	depth   []int
	queue   []int
}

func newBFS(sites int) *bfs {
	return &bfs{visited: make([]bool, sites), via: make([]ipHop, sites), depth: make([]int, sites)}
}

// bfsPath finds a shortest link path avoiding banned links and previously
// seen paths (by exact sequence).
func (b *bfs) bfsPath(adj [][]ipHop, src, dst int, banned func(link int) bool, seen map[string]bool) []int {
	clear(b.visited)
	b.visited[src], b.depth[src] = true, 0
	b.queue = append(b.queue[:0], src)
	for head := 0; head < len(b.queue); head++ {
		cur := b.queue[head]
		for _, h := range adj[cur] {
			if banned(h.link) || b.visited[h.to] {
				continue
			}
			if h.to == dst {
				np := make([]int, b.depth[cur]+1)
				np[b.depth[cur]] = h.link
				for v := cur; v != src; v = b.via[v].to {
					np[b.depth[v]-1] = b.via[v].link
				}
				if !seen[fmt.Sprint(np)] {
					return np
				}
				continue
			}
			b.visited[h.to], b.via[h.to], b.depth[h.to] = true, ipHop{to: cur, link: h.link}, b.depth[cur]+1
			b.queue = append(b.queue, h.to)
		}
	}
	return nil
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

// TunnelLinks returns the IP links of demand d's tunnel t.
func (tp *TrafficPlan) TunnelLinks(d, t int) []LinkID {
	var out []LinkID
	for _, l := range tp.network.Tunnels[d][t].Links {
		out = append(out, LinkID(l))
	}
	return out
}

// Availability computes the probability-weighted demand satisfaction over
// the planned failure scenarios (§6.1 of the paper).
func (tp *TrafficPlan) Availability() float64 {
	ev := &availability.Evaluator{Net: tp.network, Alloc: tp.alloc}
	scs := make([]availability.ScenarioEval, len(tp.planner.scenarios))
	for i := range tp.planner.scenarios {
		scs[i] = availability.ScenarioEval{
			Prob:   tp.planner.scenarios[i].Prob,
			Failed: tp.planner.scenarios[i].FailedLinks,
		}
		if tp.alloc.RestoredGbps != nil {
			scs[i].Restored = tp.alloc.RestoredGbps[i]
		}
	}
	return ev.Availability(scs)
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
	qi, roadm, err := tp.restoration(fibers)
	if err != nil {
		return nil, err
	}
	return tp.reaction(qi, roadm), nil
}

// reaction reports scenario qi's ROADM plan with the links the scenario fails
// and the capacities its winning ticket restores.
func (tp *TrafficPlan) reaction(qi int, roadm *noise.Plan) *Reaction {
	failed := tp.planner.rwa[qi].Failed // never empty on a planned scenario
	re := &Reaction{
		Failed: make([]LinkID, len(failed)), RestoredGbps: make(map[LinkID]float64, len(failed)),
		AddDropROADMs:      noise.DistinctROADMs(roadm.AddDropOps),
		IntermediateROADMs: noise.DistinctROADMs(roadm.IntermediateOps),
		Retunes:            roadm.Retunes, ReusedPorts: roadm.ReusedPorts,
	}
	for i, l := range failed {
		re.Failed[i] = LinkID(l)
	}
	if tp.alloc.RestoredGbps != nil {
		for l, g := range tp.alloc.RestoredGbps[qi] {
			re.RestoredGbps[LinkID(l)] = g
		}
	}
	return re
}

// restoration finds the planned scenario qi that cuts exactly these fibers
// and compiles its winning ticket into ROADM operations on the scenario's
// planned RWA result, whose failed links index the ticket. It reads the
// result's links, wave counts and surrogate path options: no path search, no
// LP. It is what OnFiberCut reports and what ROADMConfig renders.
func (tp *TrafficPlan) restoration(fibers []FiberID) (qi int, roadm *noise.Plan, err error) {
	p := tp.planner
	qi, ok := p.scenarioOf(fibers)
	if !ok {
		return 0, nil, fmt.Errorf("%w %v (below the planning cutoff?)", ErrUnplannedCut, fibers)
	}
	winner := 0
	if tp.alloc.WinningTicket != nil {
		winner = tp.alloc.WinningTicket[qi]
	}
	asg, ok := rwa.AssignIntegral(p.rwa[qi], p.scenarios[qi].Tickets[winner].Waves)
	if !ok {
		return 0, nil, fmt.Errorf("arrow: cut %v: winning ticket %d of scenario %d does not fit its planned RWA result", fibers, winner, qi)
	}
	return qi, noise.BuildPlan(p.net.opt, p.rwa[qi], asg), nil
}
