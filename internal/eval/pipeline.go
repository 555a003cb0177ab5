package eval

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"github.com/arrow-te/arrow/internal/availability"
	"github.com/arrow-te/arrow/internal/par"
	"github.com/arrow-te/arrow/internal/plan"
	"github.com/arrow-te/arrow/internal/rwa"
	"github.com/arrow-te/arrow/internal/scenario"
	"github.com/arrow-te/arrow/internal/te"
	"github.com/arrow-te/arrow/internal/topo"
	"github.com/arrow-te/arrow/internal/traffic"
)

// Pipeline assembles everything the simulation experiments share for one
// topology: probabilistic fiber-cut scenarios, per-scenario RWA solutions,
// LotteryTickets, and the projections onto the IP layer.
type Pipeline struct {
	Topo *topo.Topology
	Set  *scenario.Set
	// Scenarios carries the full ticket set Z^q per scenario: ARROW reads
	// them all, Arrow-Naive the first, the RWA-derived candidate.
	Scenarios []te.RestorableScenario
	// Plain carries the failure scenarios without restoration (FFC/TeaVaR).
	Plain []te.FailureScenario
	// RWAResults holds the per-scenario relaxed RWA solutions, aligned with
	// Scenarios.
	RWAResults []*rwa.Result
	// teOpts is what every ARROW solve of the pipeline copies: the TE
	// settings and the sinks of the context it was built with.
	teOpts te.ArrowOptions
	// ffc holds the FFC-k scenario lists, made once per k for every cell.
	ffc *ffcLists
}

// ffcLists memoises singleCutScenarios for k = 1 and k >= 2: the sweep's
// cells run in parallel, and every FFC cell of one k reads the same list.
type ffcLists struct {
	once [2]sync.Once
	scs  [2][]te.FailureScenario
}

// PipelineOptions configures pipeline construction. Every pipeline plans at
// rwa's default of three surrogate paths per failed link.
type PipelineOptions struct {
	Cutoff     float64 // scenario probability cutoff (paper: §6)
	NumTickets int     // |Z| per scenario
	Stride     int     // rounding stride delta
	Seed       int64
	// MaxScenarios caps the number of RELEVANT scenarios (cuts that fail at
	// least one IP link) kept from the probability-sorted list, to keep LP
	// sizes tractable; 0 = no cap. Cuts that touch no IP link never count
	// against the budget.
	MaxScenarios int
	// Space is the scenario space (see plan.Space); the zero value plans
	// every single and double fiber cut above Cutoff.
	Space plan.Space
	// Parallelism is the worker count for the per-scenario RWA solves and
	// LotteryTicket generation (the offline stage is embarrassingly
	// parallel, §6.3), attached to the build's context. 0 keeps the
	// context's (none: NumCPU); 1 is fully sequential. Results are identical
	// for every setting.
	Parallelism int
	// NoWarm disables LP warm starts in the per-scenario RWA solves and the
	// ARROW solves issued later via SolveScheme (the baselines always start
	// from the all-slack basis). The default (warm) uses only
	// deterministic warm sources, so results stay schedule-independent at
	// every Parallelism. Warm and cold starts can reach different optimal
	// vertices, so the switch can change tickets, winners and throughput
	// (ROADMAP item 1).
	NoWarm bool
	// CaptureSensitivity makes the ARROW solves issued via SolveScheme
	// attach the final Phase II model/basis/duals to the allocation
	// (te.ArrowOptions.CaptureSensitivity) for post-solve availability
	// attribution. Results are byte-identical captured or not, at every
	// Parallelism.
	CaptureSensitivity bool
}

// BuildPipeline runs the offline stage of ARROW for every scenario above
// the cutoff: RWA (Algorithm 1 line 2) and LotteryTicket generation with
// feasibility filtering (§3.2). The per-scenario solves fan out over
// opts.Parallelism workers; results are identical to the sequential path.
func BuildPipeline(tp *topo.Topology, opts PipelineOptions) (*Pipeline, error) {
	return BuildPipelineContext(context.Background(), tp, opts)
}

// BuildPipelineContext is BuildPipeline with cancellation and sinks: ctx
// aborts the worker pool between scenario solves (a failing RWA solve
// likewise cancels all outstanding work), and the recorder, ledger and stage
// profiler attached to it (obs.WithRecorder, ledger.WithLedger,
// obs.WithProfiler) instrument the build and every TE solve the pipeline
// issues later, and its probe period (obs.WithHealthEvery) probes them.
// Neither changes a result. The stage itself is
// internal/plan's, shared with the public arrow.Network.PlanContext; this
// function hands it the topology's network and SRLGs and keeps what
// SolveScheme needs later.
func BuildPipelineContext(ctx context.Context, tp *topo.Topology, opts PipelineOptions) (*Pipeline, error) {
	ctx = par.WithWorkers(ctx, opts.Parallelism)
	off, err := plan.Build(ctx, tp.Opt, nil, tp.SRLGs, plan.Options{
		Tickets: opts.NumTickets, Stride: opts.Stride, Seed: opts.Seed,
		Cutoff: opts.Cutoff, MaxScenarios: opts.MaxScenarios, Space: opts.Space,
		NoWarm: opts.NoWarm,
	})
	if err != nil {
		return nil, err
	}
	p := &Pipeline{
		Topo: tp, Set: off.Set, Scenarios: off.Scenarios, RWAResults: off.RWA,
		Plain:  make([]te.FailureScenario, len(off.Scenarios)),
		teOpts: te.SessionOptions(ctx, opts.NoWarm),
		ffc:    new(ffcLists),
	}
	p.teOpts.CaptureSensitivity = opts.CaptureSensitivity
	for i := range off.Scenarios {
		p.Plain[i] = off.Scenarios[i].FailureScenario
	}
	return p, nil
}

// Scheme identifies a TE algorithm under evaluation.
type Scheme string

// The evaluated TE schemes (§6).
const (
	SchemeArrow      Scheme = "ARROW"
	SchemeArrowNaive Scheme = "ARROW-Naive"
	SchemeFFC1       Scheme = "FFC-1"
	SchemeFFC2       Scheme = "FFC-2"
	SchemeTeaVaR     Scheme = "TeaVaR"
	SchemeECMP       Scheme = "ECMP"
	SchemeFullyRest  Scheme = "Fully-Restorable"
)

// AllSchemes lists the schemes compared in Fig. 13.
func AllSchemes() []Scheme {
	return []Scheme{SchemeArrow, SchemeArrowNaive, SchemeFFC1, SchemeFFC2, SchemeTeaVaR, SchemeECMP}
}

// SolveScheme runs one TE scheme on the network and returns its allocation
// plus each scenario's restored capacity to use during evaluation: the
// winning ticket's, for ARROW and ARROW-Naive, and nil for the others.
// Every scheme solves under the session's LP options: its recorder and
// health probes see the baselines as well as ARROW.
func (p *Pipeline) SolveScheme(s Scheme, n *te.Network) (*te.Allocation, []te.Restoration, error) {
	bl := te.Baselines{LP: p.teOpts.LP}
	switch s {
	case SchemeArrow:
		al, err := te.Arrow(n, p.Scenarios, p.arrowOptions())
		if err != nil {
			return nil, nil, err
		}
		return al, te.Restorations(p.Scenarios, al.WinningTicket), nil
	case SchemeArrowNaive:
		al, err := te.ArrowNaive(n, p.Scenarios, p.arrowOptions())
		if err != nil {
			return nil, nil, err
		}
		return al, te.Restorations(p.Scenarios, al.WinningTicket), nil
	case SchemeFFC1:
		al, err := bl.FFC(n, p.singleCutScenarios(1))
		return al, nil, err
	case SchemeFFC2:
		al, err := bl.FFC(n, p.singleCutScenarios(2))
		return al, nil, err
	case SchemeTeaVaR:
		al, err := bl.TeaVaR(n, p.Plain, &te.TeaVaROptions{Beta: teavarBeta})
		return al, nil, err
	case SchemeECMP:
		al, err := bl.ECMP(n)
		return al, nil, err
	case SchemeFullyRest:
		al, err := bl.MaxThroughput(n)
		return al, nil, err
	}
	return nil, nil, fmt.Errorf("eval: unknown scheme %q", s)
}

// teavarBeta is the availability target, the CVaR level, of every TeaVaR
// solve of the evaluation.
const teavarBeta = 0.999

// SolveScales solves scheme s on base.Scaled(x) for every x of scales
// along one chain of warm re-solves of one model (te.Baselines.TeaVaRScales
// and FFCScales), under the session's LP options and on the scenarios
// SolveScheme hands it. Only TeaVaR, FFC-1 and FFC-2 chain. The sweep
// solves their cells this way.
func (p *Pipeline) SolveScales(s Scheme, base *te.Network, scales []float64) ([]*te.Allocation, error) {
	bl := te.Baselines{LP: p.teOpts.LP}
	switch s {
	case SchemeFFC1:
		return bl.FFCScales(base, p.singleCutScenarios(1), scales)
	case SchemeFFC2:
		return bl.FFCScales(base, p.singleCutScenarios(2), scales)
	case SchemeTeaVaR:
		return bl.TeaVaRScales(base, p.Plain, &te.TeaVaROptions{Beta: teavarBeta}, scales)
	}
	return nil, fmt.Errorf("eval: scheme %q does not solve along a chain of scales", s)
}

// arrowOptions returns a copy of the options every ARROW solve of the
// pipeline runs under: the session's settings and sinks.
func (p *Pipeline) arrowOptions() *te.ArrowOptions {
	o := p.teOpts
	return &o
}

// singleCutScenarios projects all <=k fiber-cut combinations onto IP links
// for FFC-k, once per pipeline and k. To stay tractable, double cuts reuse
// the enumerated scenario set (which contains the probable doubles) plus all
// single cuts.
func (p *Pipeline) singleCutScenarios(k int) []te.FailureScenario {
	i := min(k, 2) - 1
	p.ffc.once[i].Do(func() { p.ffc.scs[i] = p.cutScenarios(k) })
	return p.ffc.scs[i]
}

func (p *Pipeline) cutScenarios(k int) []te.FailureScenario {
	var out []te.FailureScenario
	for f := range p.Topo.Opt.Fibers {
		failed := p.Topo.Opt.FailedLinks([]int{f})
		if len(failed) > 0 {
			out = append(out, te.FailureScenario{FailedLinks: failed})
		}
	}
	if k >= 2 {
		for _, sc := range p.Plain {
			if len(sc.FailedLinks) > 0 {
				out = append(out, te.FailureScenario{FailedLinks: sc.FailedLinks})
			}
		}
		// FFC-2 in the paper guarantees ALL double cuts. On B4/IBM-sized
		// topologies we enumerate them exactly. At Facebook scale the
		// |Phi|^2/2 ~ 12k pairs produce an LP our single-core simplex takes
		// minutes per solve on, so we keep the pairs with the largest
		// failure footprint (they dominate the binding constraints) up to a
		// cap. This makes our FFC-2 slightly OPTIMISTIC on the largest
		// topology — which only strengthens ARROW's measured gains.
		nf := len(p.Topo.Opt.Fibers)
		type pair struct {
			failed []int
		}
		var pairs []pair
		for a := 0; a < nf; a++ {
			for b := a + 1; b < nf; b++ {
				failed := p.Topo.Opt.FailedLinks([]int{a, b})
				if len(failed) > 1 {
					pairs = append(pairs, pair{failed})
				}
			}
		}
		const maxPairs = 1200
		if len(pairs) > maxPairs {
			sort.SliceStable(pairs, func(x, y int) bool {
				return len(pairs[x].failed) > len(pairs[y].failed)
			})
			pairs = pairs[:maxPairs]
		}
		for _, pr := range pairs {
			out = append(out, te.FailureScenario{FailedLinks: pr.failed})
		}
	}
	return out
}

// EvalScenarios converts the pipeline's scenario set plus a restoration
// plan (nil: none) into availability.ScenarioEvals.
func (p *Pipeline) EvalScenarios(restored []te.Restoration) []availability.ScenarioEval {
	out := make([]availability.ScenarioEval, len(p.Scenarios))
	for i := range p.Scenarios {
		out[i] = availability.ScenarioEval{
			Prob:   p.Scenarios[i].Prob,
			Failed: p.Scenarios[i].FailedLinks,
		}
		if restored != nil {
			out[i].Restored = restored[i]
		}
	}
	return out
}

// SchemeAvailability solves scheme s at the given demand scale and returns
// (availability, throughput).
func (p *Pipeline) SchemeAvailability(s Scheme, base *te.Network, scale float64) (float64, float64, error) {
	n := base.Scaled(scale)
	al, _, err := p.SolveScheme(s, n)
	if err != nil {
		return 0, 0, err
	}
	return p.cellAvailability(s, n, al), al.Throughput(n), nil
}

// cellAvailability is the availability of scheme s's allocation al on n,
// each scenario restored as al's winning ticket restores it (none without
// winners).
func (p *Pipeline) cellAvailability(s Scheme, n *te.Network, al *te.Allocation) float64 {
	ev := availability.Evaluator{Net: n, Alloc: al, ECMPRebalance: s == SchemeECMP}
	return ev.AvailabilityOf(len(p.Scenarios), func(i int) availability.ScenarioEval {
		sc := availability.ScenarioEval{Prob: p.Scenarios[i].Prob, Failed: p.Scenarios[i].FailedLinks}
		if al.WinningTicket != nil {
			sc.Restored = p.Scenarios[i].Restoration(al.WinningTicket[i])
		}
		return sc
	})
}

// baseUtilization positions demand scale 1.0 relative to the
// max-concurrent-flow saturation point: production WANs are over-provisioned,
// so the paper's sweep starts from a comfortably satisfiable state (every
// scheme admits 100%) and scales up several-fold until the failure-protection
// knees separate the schemes.
const baseUtilization = 0.1

// BaseNetwork builds the normalised TE network for one traffic matrix:
// demand scale 1.0 is set to baseUtilization of the max-concurrent-flow
// saturation point, mirroring the paper's over-provisioned starting state
// ("we start with a network state where 100% of traffic demand is
// satisfied" and then scale the matrix up several-fold).
func (p *Pipeline) BaseNetwork(m traffic.Matrix, tunnelsPerFlow int) (*te.Network, error) {
	n, err := p.Topo.TENetwork(m.Flows, tunnelsPerFlow)
	if err != nil {
		return nil, err
	}
	if _, err := traffic.NormalizeToFit(n); err != nil {
		return nil, err
	}
	for i := range n.Flows {
		n.Flows[i].Demand *= baseUtilization
	}
	return n, nil
}
