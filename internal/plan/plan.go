// Package plan is ARROW's offline stage (§3.2, Algorithm 1 of the paper):
// enumerate the probable fiber-cut scenarios, solve the relaxed RWA for each,
// and derive its LotteryTickets by randomized rounding. It is the one
// implementation behind both entry points — arrow.Network.PlanContext (the
// public API) and eval.BuildPipelineContext (the experiments) — so the two
// plan the same scenarios, ticket for ticket, by construction
// (TestOfflineStageFingerprints in the root package pins that).
//
// The metrics recorder, the flight-recorder ledger and the stage profiler
// ride the context (obs.WithRecorder, ledger.WithLedger, obs.WithProfiler):
// the public API may not name them in a signature, and a stage that read them
// from two places could be handed two different sinks. Options therefore
// carries no sink.
package plan

import (
	"context"
	"flag"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/optical"
	"github.com/arrow-te/arrow/internal/par"
	"github.com/arrow-te/arrow/internal/pool"
	"github.com/arrow-te/arrow/internal/rwa"
	"github.com/arrow-te/arrow/internal/scenario"
	"github.com/arrow-te/arrow/internal/te"
	"github.com/arrow-te/arrow/internal/ticket"
)

// Space is the scenario space the stage enumerates and how it plans it.
// Every space is enumerated by scenario.EnumerateCorrelated; the zero value
// is every single and double fiber cut above the cutoff, planned without the
// compositional pre-stage, which any of the first four fields turns on. It
// is one comparable value, so a memo may key on it.
type Space struct {
	// MaxCutSize bounds a cut set's simultaneously failed elements (0 = 2).
	MaxCutSize int
	// UseSRLGs adds the shared-risk link groups as correlated failure
	// elements (conduit cuts that down several fibers at once).
	UseSRLGs bool
	// TargetMass stops enumeration once the emitted scenarios cover this much
	// probability mass (0 = disabled).
	TargetMass float64
	// MaxEnumerated caps the distinct cut sets enumerated (0 = unbounded).
	// Unlike Options.MaxScenarios it bounds the enumeration itself, which is
	// what keeps 10^4–10^5-scenario sweeps from materialising the full
	// failure lattice.
	MaxEnumerated int
	// NoCompose turns the compositional pre-stage off (correlated path only):
	// no multi-fiber cut's ticket pool then has a composed-from-singles
	// candidate (Seeds stays 0 and rounding draws one more ticket in its
	// place). It decides ticket pools, not LP starts: the scenario space and
	// every RWA result are the same either way, and so is the LP work when
	// every scenario is planned (eval's TestComposeLeavesRWAAlone); the
	// ticket pools, and with them the winning tickets, may differ. On the
	// square test WAN the exported plan happens to be byte-identical with
	// and without it (the root package's TestPlanCorrelated).
	NoCompose bool
}

// RegisterScenarioFlags installs the scenario-space flags the CLIs share
// (-max-cut-size, -srlgs, -target-mass, -max-enumerated, -compose) and
// returns the Space they fill once fs is parsed. All-default is the zero
// Space.
func RegisterScenarioFlags(fs *flag.FlagSet) *Space {
	s := &Space{}
	fs.IntVar(&s.MaxCutSize, "max-cut-size", 0, "enumerate correlated cut sets of up to this many failure elements (0 = 2: single and double cuts)")
	fs.BoolVar(&s.UseSRLGs, "srlgs", false, "expand the topology's shared-risk link groups as correlated failure elements")
	fs.Float64Var(&s.TargetMass, "target-mass", 0, "stop enumerating once this fraction of the failure probability mass is covered (0 = cutoff only)")
	fs.IntVar(&s.MaxEnumerated, "max-enumerated", 0, "hard cap on enumerated cut sets (0 = uncapped)")
	fs.BoolFunc("compose", "seed each multi-cut scenario's tickets with one composed from its pre-staged single-cut restorations (default true; -compose=false for the A/B)", func(v string) error {
		compose, err := strconv.ParseBool(v)
		s.NoCompose = !compose
		return err
	})
	return s
}

// Options configures one run of the offline stage. The fields restate what
// arrow.PlanOptions and eval.PipelineOptions expose; their doc comments are
// the reference for each knob's meaning. The worker budget and the LP probe
// period, which never change the result, ride the context like the sinks.
type Options struct {
	Tickets int     // |Z| per scenario, the naive ticket included (default 20)
	Stride  int     // rounding stride delta (0 = ticket's default)
	K       int     // surrogate fiber paths per failed link (0 = rwa's default, 3)
	Seed    int64   // failure-model draw (when failProbs is nil) and ticket rounding
	Cutoff  float64 // scenario probability cutoff
	// MaxScenarios caps the RELEVANT scenarios (cuts that fail at least one IP
	// link) kept from the probability-sorted list; 0 keeps every one.
	MaxScenarios int
	Space        Space
	// NoWarm is forwarded into every RWA request.
	NoWarm bool
}

// Offline is what the stage produces. Scenarios, RWA and Cuts are aligned:
// entry i is the i-th relevant scenario in enumeration (probability) order.
type Offline struct {
	Set *scenario.Set
	// Scenarios carries the full ticket set Z^q per scenario; Tickets[0] is
	// always the RWA's own integral assignment, the one ticket Arrow-Naive
	// reads (te.ArrowNaive). A scenario's tickets are one slice of their
	// exact length, their vectors laid out in one array each (ticket.Clone).
	Scenarios []te.RestorableScenario
	// RWA holds each kept scenario's relaxed RWA solution. Its Failed is the
	// scenario's TicketLinks (the same slice), and every ticket of the
	// scenario is assignable on it by rwa.AssignIntegral.
	RWA []*rwa.Result
	// Cuts holds each kept scenario's cut fibers, ascending and without
	// duplicates: Set.Scenarios' own Cut slices, not copies.
	Cuts [][]int
}

// solveRWA is rwa.Solve behind a seam so tests can inject failures into the
// parallel stage without constructing a pathological topology. It takes the
// request by value: a pointer passed through a function variable escapes,
// and no Result keeps its request.
var solveRWA = func(req rwa.Request) (*rwa.Result, error) { return rwa.Solve(&req) }

// stage is the read-only state the per-scenario workers share. rec, led,
// prof and health are the sinks and probe period Build reads once from its
// context; prof attributes the build to stages (pipeline.enumerate,
// pipeline.graph, pipeline.singles and pipeline.offline by wall time,
// rwa.solve and ticket.generate summed across workers).
type stage struct {
	net    *optical.Network
	set    *scenario.Set
	opts   Options
	rec    obs.Recorder
	led    *ledger.Ledger
	prof   *obs.StageProfiler
	health int
	// singles holds the pre-staged single-fiber-cut RWA solve of every fiber
	// in a multi-fiber cut, and waves its naive integral wave count per
	// failed IP link: the ticket-composition base of every multi-fiber cut
	// containing the fiber.
	singles map[int]*rwa.Result
	waves   map[int]map[int]int
	// memo is shared by every RWA request of the build and dropped with it:
	// what it saves comes from the scenarios of one plan repeating each
	// other's path searches, option sets and assignment-LP blocks.
	memo *rwa.Memo
	// drafts hands each worker the tickets a scenario's candidates are drawn
	// into before they are copied out at their final size.
	drafts pool.Free[[]ticket.Ticket]
}

// artifacts is the stage's output for one enumerated scenario, written into
// an index-addressed slot by its worker.
type artifacts struct {
	res     *rwa.Result
	tickets []ticket.Ticket
	// seeds is the number of leading tickets the colgen master should install
	// up front (0 = the conventional single seed; 2 when a composed-from-
	// singles candidate rides second).
	seeds int
}

// Build runs the offline stage on net. failProbs gives each fiber's failure
// probability (nil draws them from the paper's Weibull model with
// opts.Seed); groups are the shared-risk link groups, read only when
// opts.Space.UseSRLGs is set. Every fiber and group probability must lie in
// [0, 0.5): Build rejects any other, NaN included, naming its index.
// Cancelling ctx aborts the worker pool between scenario solves, and a
// failing RWA solve cancels all outstanding work and is reported with its
// enumerated scenario index. The result is identical at every worker budget
// (none = NumCPU) and probe period on ctx, and with or without sinks.
func Build(ctx context.Context, net *optical.Network, failProbs []float64, groups []scenario.Group, opts Options) (*Offline, error) {
	if opts.Tickets <= 0 {
		opts.Tickets = 20
	}
	if failProbs != nil && len(failProbs) != len(net.Fibers) {
		return nil, fmt.Errorf("plan: %d failure probabilities for %d fibers", len(failProbs), len(net.Fibers))
	}
	sp := opts.Space
	if !sp.UseSRLGs {
		groups = nil
	}
	if err := checkProbs(failProbs, groups); err != nil {
		return nil, err
	}
	s := &stage{net: net, opts: opts, rec: obs.FromContext(ctx), led: ledger.FromContext(ctx),
		prof: obs.ProfilerFrom(ctx), health: obs.HealthEveryFrom(ctx)}
	defer obs.Span(ctx, "pipeline.build")()

	endEnum := obs.Span(ctx, "pipeline.enumerate")
	endEnumStage := s.prof.Stage("pipeline.enumerate")
	if failProbs == nil {
		failProbs = scenario.FailureProbabilities(len(net.Fibers), scenario.DefaultShape, scenario.DefaultScale, opts.Seed)
	}
	k := sp.MaxCutSize
	if k <= 0 {
		k = 2
	}
	s.set = scenario.EnumerateCorrelated(failProbs, groups, scenario.EnumOptions{
		K: k, Cutoff: opts.Cutoff, TargetMass: sp.TargetMass,
		MaxEnumerated: sp.MaxEnumerated, Recorder: s.rec,
	})
	endEnumStage()
	endEnum()
	enumerated := len(s.set.Scenarios)
	obs.Add(s.rec, "pipeline.scenarios_enumerated", int64(enumerated))
	if s.led != nil {
		s.led.Emit(ledger.Event{Kind: ledger.KindEnumerated, Scenario: -1, Count: enumerated})
	}

	// Pre-build the lazily-memoised optical graph once, on this goroutine,
	// before fanning out (the memoisation itself is also mutex-guarded; this
	// just avoids serialising the first wave of workers on that lock); the
	// build's RWA memo is made over it.
	endGraph := s.prof.Stage("pipeline.graph")
	s.memo = rwa.NewMemo(net)
	endGraph()

	// The compositional pre-stage runs only when a scenario-space knob is
	// set; the zero Space plans without it.
	correlated := sp.MaxCutSize > 0 || sp.UseSRLGs || sp.TargetMass > 0 || sp.MaxEnumerated > 0
	if correlated && !sp.NoCompose {
		if err := s.solveSingles(ctx); err != nil {
			return nil, err
		}
	}

	// Solve in probability-ordered chunks until MaxScenarios RELEVANT
	// scenarios are collected (or the list is exhausted). Chunk boundaries
	// only determine which extra irrelevant scenarios get solved and thrown
	// away — the compacted result is the same for every chunking and every
	// worker count.
	budget := opts.MaxScenarios
	if budget <= 0 || budget > enumerated {
		budget = enumerated
	}
	defer obs.Span(ctx, "pipeline.offline")()
	defer s.prof.Stage("pipeline.offline")()
	off := &Offline{
		Set:       s.set,
		Scenarios: make([]te.RestorableScenario, 0, budget),
		RWA:       make([]*rwa.Result, 0, budget),
		Cuts:      make([][]int, 0, budget),
	}
	for lo := 0; lo < enumerated && len(off.Scenarios) < budget; {
		hi := min(lo+budget-len(off.Scenarios), enumerated)
		arts, err := par.Map(ctx, par.WorkersFrom(ctx), hi-lo, func(_ context.Context, i int) (artifacts, error) {
			return s.scenario(lo + i)
		})
		if err != nil {
			return nil, err
		}
		// Compact in enumerated (probability) order. A cut that touches no IP
		// link is irrelevant to the TE: it never enters the result or counts
		// against the budget.
		for i, a := range arts {
			if len(a.res.Failed) == 0 || len(off.Scenarios) >= budget {
				continue
			}
			sc := s.set.Scenarios[lo+i]
			fs := te.FailureScenario{Prob: sc.Prob, FailedLinks: a.res.Failed}
			if s.led != nil {
				s.led.Emit(ledger.Event{
					Kind: ledger.KindScenario, Scenario: len(off.Scenarios), Enum: lo + i,
					Prob: fs.Prob, Links: append([]int(nil), a.res.Failed...),
					Cut:   append([]int(nil), sc.Cut...),
					Count: len(a.tickets),
				})
			}
			off.Scenarios = append(off.Scenarios, te.RestorableScenario{
				FailureScenario: fs, TicketLinks: a.res.Failed, Tickets: a.tickets, Seeds: a.seeds,
			})
			off.RWA = append(off.RWA, a.res)
			off.Cuts = append(off.Cuts, sc.Cut)
		}
		lo = hi
	}
	obs.Add(s.rec, "pipeline.scenarios_relevant", int64(len(off.Scenarios)))
	return off, nil
}

// checkProbs rejects a fiber or SRLG failure probability outside [0, 0.5),
// NaN included: the enumerator's best-first order, and with it which cuts
// MaxScenarios and MaxEnumerated keep, holds only for odds below 1.
func checkProbs(failProbs []float64, groups []scenario.Group) error {
	for i, p := range failProbs {
		if !(p >= 0 && p < 0.5) {
			return fmt.Errorf("plan: fiber %d failure probability %g outside [0, 0.5)", i, p)
		}
	}
	for i, g := range groups {
		if !(g.Prob >= 0 && g.Prob < 0.5) {
			return fmt.Errorf("plan: SRLG %d (%q) probability %g outside [0, 0.5)", i, g.Name, g.Prob)
		}
	}
	return nil
}

// request is the restoration RWA request of this code base: k surrogate
// paths per failed link, transponder retuning and modulation fallback
// allowed, under the stage's solver switches, recorder and memo. Every RWA
// request of the stage is built here.
func (s *stage) request(cut []int) rwa.Request {
	return rwa.Request{
		Net: s.net, Cut: cut, K: s.opts.K,
		AllowTuning: true, AllowModulationChange: true,
		Recorder: s.rec, NoWarm: s.opts.NoWarm, HealthEvery: s.health,
		Memo: s.memo,
	}
}

// solveSingles is the compositional pre-stage (correlated path only): solve
// the single-cut RWA once per fiber that appears in any multi-fiber cut.
// Each solve is reused many times — as the ticket-composition source of
// every multi-cut containing its fiber, and verbatim as the RWA result of
// the fiber's own single-cut scenario (the solver is deterministic, so the
// reuse changes nothing).
func (s *stage) solveSingles(ctx context.Context) error {
	inMulti := map[int]bool{}
	for _, sc := range s.set.Scenarios {
		if len(sc.Cut) > 1 {
			for _, f := range sc.Cut {
				inMulti[f] = true
			}
		}
	}
	fibers := make([]int, 0, len(inMulti))
	for f := range inMulti {
		fibers = append(fibers, f)
	}
	sort.Ints(fibers)
	endSingles := s.prof.Stage("pipeline.singles")
	solved, err := par.Map(ctx, par.WorkersFrom(ctx), len(fibers), func(_ context.Context, i int) (*rwa.Result, error) {
		res, err := solveRWA(s.request([]int{fibers[i]}))
		if err != nil {
			return nil, fmt.Errorf("plan: single cut {%d} rwa: %w", fibers[i], err)
		}
		return res, nil
	})
	endSingles()
	if err != nil {
		return err
	}
	s.singles = make(map[int]*rwa.Result, len(fibers))
	s.waves = make(map[int]map[int]int, len(fibers))
	for i, f := range fibers {
		res := solved[i]
		s.singles[f] = res
		s.waves[f] = map[int]int{}
		for li, w := range rwa.MaxIntegralWaves(res) {
			s.waves[f][res.Failed[li]] = w
		}
	}
	return nil
}

// scenario runs the stage for enumerated scenario si. It only reads shared
// state and derives its RNG from the enumerated index — Seed + si*977,
// independent of how many scenarios before it were relevant — so scenarios
// parallelise freely and results cannot depend on the schedule.
func (s *stage) scenario(si int) (artifacts, error) {
	cut := s.set.Scenarios[si].Cut
	drafts := s.drafts.Get()
	defer s.drafts.Put(drafts)
	var res *rwa.Result
	if len(cut) == 1 && s.singles[cut[0]] != nil {
		// The pre-stage already solved this exact request.
		res = s.singles[cut[0]]
	} else {
		endRWA := s.prof.StageAgg("rwa.solve")
		var err error
		res, err = solveRWA(s.request(cut))
		endRWA()
		if err != nil {
			return artifacts{}, fmt.Errorf("plan: scenario %d rwa: %w", si, err)
		}
	}
	// Solver-health events are tagged with the ENUMERATED scenario index
	// (like ticket events), so the stream is a schedule-independent bag at
	// any worker count: a block the memo answered carries its solve's report.
	for _, h := range res.Health {
		ledger.EmitSolverHealth(s.led, si, "rwa-assign", h)
	}
	if len(res.Failed) == 0 {
		return artifacts{res: res}, nil
	}
	// Ticket #1 is always the RWA-derived candidate itself (Fig. 14: "when
	// the number of LotteryTickets is one ... it represents the Arrow-Naive
	// approach"); randomized rounding fills the rest of Z. The candidates
	// are drawn into the drafts and copied out once, at their final size.
	n := len(res.Failed)
	tks := ticket.Extend((*drafts)[:0], n)
	rwa.IntegralWavesInto(tks[0].Waves, res, res.OrigWaves)
	integral := 0
	for i, c := range tks[0].Waves {
		tks[0].Gbps[i] = float64(c) * res.GbpsPerWave[i]
		integral += c
	}
	if s.rec != nil && res.Objective > 0 {
		// Relaxation gap: how much restorable capacity the LP promises beyond
		// what the integral (naive) assignment realises.
		if gap := (res.Objective - float64(integral)) / res.Objective; gap > 0 {
			s.rec.Observe("rwa.relaxation_gap", gap)
		}
	}
	a := artifacts{res: res}
	if len(cut) > 1 && slices.ContainsFunc(cut, func(f int) bool { return s.singles[f] != nil }) {
		// Compositional candidate: the union of the constituent single-cut
		// restorations, restricted to the combined cut's spectrum. It rides
		// directly behind the naive seed so the colgen master starts from
		// the composed plan instead of pricing it in.
		obs.Add(s.rec, "scenario.warm_from_singles", 1)
		tks = ticket.Extend(tks, n)
		if ticket.Compose(&tks[1], res, cut, s.waves) && !slices.Equal(tks[1].Waves, tks[0].Waves) {
			a.seeds = 2
		} else {
			tks = tks[:1]
		}
	}
	// With nothing left to draw (Tickets: 1, or 2 behind a composed
	// candidate) the generator is not even re-seeded.
	if seeds := len(tks); s.opts.Tickets > seeds {
		endTickets := s.prof.StageAgg("ticket.generate")
		tks = ticket.AppendGenerated(tks, res, ticket.Options{
			Count:            s.opts.Tickets - seeds,
			Stride:           s.opts.Stride,
			Seed:             s.opts.Seed + int64(si)*977,
			CheckFeasibility: true,
			Dedup:            true,
			Recorder:         s.rec,
			Ledger:           s.led,
			Scenario:         si,
		})
		endTickets()
		// AppendGenerated dedupes what it rolls; a rolled ticket may still
		// repeat a seed (the naive or the composed one). Those are swapped
		// past the end, so every ticket keeps vectors of its own.
		kept := seeds
		for i := seeds; i < len(tks); i++ {
			if !slices.ContainsFunc(tks[:seeds], func(sd ticket.Ticket) bool { return slices.Equal(sd.Waves, tks[i].Waves) }) {
				tks[kept], tks[i] = tks[i], tks[kept]
				kept++
			}
		}
		tks = tks[:kept]
	}
	*drafts = tks
	a.tickets = ticket.Clone(tks)
	return a, nil
}
