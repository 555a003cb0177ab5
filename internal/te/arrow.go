package te

import (
	"context"
	"fmt"
	"math"
	"slices"

	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/lp"
	"github.com/arrow-te/arrow/internal/obs"
)

// ArrowOptions tunes the two-phase restoration-aware TE.
type ArrowOptions struct {
	// Alpha bounds the Phase I slack: M^{z,q} = alpha * sum_e r_e^{z,q}
	// (§3.3; the paper experiments with 0.2, 0.1 and 0.05; default 0.1).
	Alpha float64
	LP    *lp.Options
	// Ledger, when non-nil, records solve start/end events (with
	// certificates) for both phases plus the winning ticket and residual
	// unmet demand of the final plan. Nil costs nothing and never changes
	// the allocation.
	Ledger *ledger.Ledger
	// NoWarm disables warm-starting: both phases then start cold (an
	// artificial basis and the simplex's feasibility phase) instead of from
	// their model's all-slack basis, which is feasible for either. The warm
	// source is a function of the model alone (never "whichever solve
	// finished first"), but the phases' LPs are degenerate: a cold start can
	// land on another optimal vertex and so pick other winners and another
	// throughput (ROADMAP item 1).
	NoWarm bool
	// Parallelism bounds the workers of the colgen pricing fan-out
	// (<= 0 means serial). Results are byte-identical at any worker count:
	// pricing is index-addressed per scenario and appends happen in
	// scenario order after each sweep.
	Parallelism int
	// Profiler attributes the solve's wall time and allocations to stages
	// (te.phase1, te.phase2, plus the te.pricing aggregate for the colgen
	// sweeps). Same contract as the recorder: nil costs a nil check and the
	// allocation is byte-identical profiled or not.
	Profiler *obs.StageProfiler
	// CaptureSensitivity attaches the final Phase II model, basis, duals
	// and capacity-row handles to the returned Allocation (Allocation.Sens)
	// for post-solve availability attribution (internal/attr). Capturing
	// only retains pointers the solve produced anyway: the allocation is
	// byte-identical captured or not.
	CaptureSensitivity bool
}

func (o *ArrowOptions) alpha() float64 {
	if o == nil || o.Alpha <= 0 {
		return 0.1
	}
	return o.Alpha
}

func (o *ArrowOptions) ledger() *ledger.Ledger {
	if o == nil {
		return nil
	}
	return o.Ledger
}

// start is the basis a solve of m begins from: nil (cold) under NoWarm,
// else warm, else m's all-slack basis. Every row of both phases' models
// holds at x = 0, so the all-slack basis skips the simplex's feasibility
// phase; the canonical Phase I pass, whose lock row x = 0 violates, always
// has a warm basis.
func (o *ArrowOptions) start(m *lp.Model, warm *lp.Basis) *lp.Basis {
	switch {
	case o != nil && o.NoWarm:
		return nil
	case warm != nil:
		return warm
	}
	return lp.SlackBasis(m)
}

func (o *ArrowOptions) captureSensitivity() bool { return o != nil && o.CaptureSensitivity }

func (o *ArrowOptions) parallelism() int {
	if o == nil || o.Parallelism <= 0 {
		return 1
	}
	return o.Parallelism
}

func (o *ArrowOptions) profiler() *obs.StageProfiler {
	if o == nil {
		return nil
	}
	return o.Profiler
}

func (o *ArrowOptions) recorder() obs.Recorder {
	if o == nil || o.LP == nil {
		return nil
	}
	return o.LP.Recorder
}

func (o *ArrowOptions) lpOpts() *lp.Options {
	if o == nil {
		return nil
	}
	return o.LP
}

// SessionOptions is the one place a context becomes TE options: the
// recorder (obs.FromContext, as LP.Recorder), the ledger (ledger.FromContext)
// and the stage profiler (obs.ProfilerFrom) attached to ctx, with a
// session's solver settings. healthEvery lands in LP.HealthEvery. Callers
// build it once per session and give every solve a copy, changing only
// Alpha.
func SessionOptions(ctx context.Context, noWarm bool, parallelism, healthEvery int) ArrowOptions {
	return ArrowOptions{
		LP:     &lp.Options{Recorder: obs.FromContext(ctx), HealthEvery: healthEvery},
		Ledger: ledger.FromContext(ctx), Profiler: obs.ProfilerFrom(ctx),
		NoWarm: noWarm, Parallelism: parallelism,
	}
}

// phase1Recorder mirrors the LP engine's pivot counters under te.phase1_*
// names, scoping Phase I master work out of a full run: pipeline totals are
// dominated by Phase II (identical across colgen modes), so run-level
// lp.pivots barely moves when only the Phase I master shrinks.
type phase1Recorder struct{ obs.Recorder }

func (p phase1Recorder) Add(name string, d int64) {
	p.Recorder.Add(name, d)
	switch name {
	case "lp.pivots":
		p.Recorder.Add("te.phase1_pivots", d)
	case "lp.pivot_work":
		p.Recorder.Add("te.phase1_pivot_work", d)
	}
}

// phase1LP returns the LP options Phase I solves run under: o.LP with the
// recorder wrapped in phase1Recorder (pass-through when unset).
func (o *ArrowOptions) phase1LP() *lp.Options {
	base := o.lpOpts()
	if base == nil || base.Recorder == nil {
		return base
	}
	lpo := *base
	lpo.Recorder = phase1Recorder{base.Recorder}
	return &lpo
}

// emitPlan records the final restoration plan: one winner event per
// scenario (restored capacity and restored-capacity fraction over the lost
// link capacity) plus the run-level residual unmet demand.
func emitPlan(L *ledger.Ledger, n *Network, scs []RestorableScenario, al *Allocation) {
	for qi := range scs {
		lost, restored := 0.0, 0.0
		for _, link := range scs[qi].FailedLinks {
			if link >= 0 && link < len(n.LinkCap) { // as failedSet: no such link, nothing lost
				lost += n.LinkCap[link]
			}
		}
		for _, g := range al.RestoredGbps[qi] {
			restored += g
		}
		frac := 0.0
		if lost > 0 {
			frac = restored / lost
		}
		L.Emit(ledger.Event{
			Kind: ledger.KindWinner, Scenario: qi,
			Ticket: al.WinningTicket[qi], Gbps: restored, Fraction: frac,
		})
	}
	total := n.TotalDemand()
	admitted := 0.0
	for _, b := range al.B {
		admitted += b
	}
	unmet := math.Max(0, total-admitted)
	frac := 0.0
	if total > 0 {
		frac = unmet / total
	}
	L.Emit(ledger.Event{Kind: ledger.KindUnmetDemand, Scenario: -1, Gbps: unmet, Fraction: frac})
}

// Arrow runs ARROW's full two-phase restoration-aware TE (§3.3):
// Phase I (Table 2) selects the winning LotteryTicket per failure scenario
// through slack minimisation; Phase II (Table 3) computes the final tunnel
// allocation using the winners. The returned Allocation carries the
// restoration plan Z* (winning ticket index and restored capacity per
// scenario) ready to be installed as ROADM reconfiguration rules.
func Arrow(n *Network, scs []RestorableScenario, opts *ArrowOptions) (*Allocation, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	endP1 := opts.profiler().Stage("te.phase1")
	winners, p1stats, like, err := phase1Winners(n, scs, opts)
	endP1()
	if err != nil {
		return nil, err
	}
	al, err := arrowPhase2(n, scs, winners, opts, like)
	if err != nil {
		return nil, err
	}
	// Phase I ranks tickets against its own (slack-throttled) loads, which
	// can mis-rank when many tickets tie near zero slack. Ticket 0 is by
	// convention the RWA-derived candidate (the |Z|=1 / Arrow-Naive plan),
	// so solving Phase II once more against it and keeping the better
	// allocation guarantees the demand-aware selection never does worse
	// than restoration planned at the optical layer alone.
	allFirst := true
	for _, w := range winners {
		if w != 0 {
			allFirst = false
			break
		}
	}
	if !allFirst {
		fallback, err := arrowPhase2(n, scs, make([]int, len(scs)), opts, like)
		if err != nil {
			return nil, err
		}
		if fallback.Objective > al.Objective+1e-9 {
			al = fallback
		} else if fallback.Objective > al.Objective-1e-9 && restoredTotal(scs, fallback.WinningTicket) > restoredTotal(scs, al.WinningTicket)+1e-9 {
			// On a throughput tie, prefer the plan that revives more capacity:
			// extra restored bandwidth can only improve delivery under failures.
			al = fallback
		}
	}
	// The plan and Phase I stats attach to whichever allocation survived
	// (the fallback's own Stats carry Phase II numbers only).
	al.RestoredGbps = restoredPlan(scs, al.WinningTicket)
	al.Stats.Phase1Vars = p1stats.Phase1Vars
	al.Stats.Phase1Rows = p1stats.Phase1Rows
	al.Stats.Phase1Iters = p1stats.Phase1Iters
	if L := opts.ledger(); L != nil {
		emitPlan(L, n, scs, al)
	}
	return al, nil
}

// restoredPlan is the RestoredGbps of the given winners.
func restoredPlan(scs []RestorableScenario, winners []int) []map[int]float64 {
	out := make([]map[int]float64, len(scs))
	for qi := range scs {
		out[qi] = map[int]float64{}
		for _, link := range scs[qi].FailedLinks {
			out[qi][link] = scs[qi].TicketGbps(winners[qi], link)
		}
	}
	return out
}

// restoredTotal sums what restoredPlan(scs, winners) would hold.
func restoredTotal(scs []RestorableScenario, winners []int) float64 {
	t := 0.0
	for qi := range scs {
		for i, link := range scs[qi].FailedLinks {
			if !slices.Contains(scs[qi].FailedLinks[:i], link) {
				t += scs[qi].TicketGbps(winners[qi], link)
			}
		}
	}
	return t
}

// ArrowNaive runs Phase II only, treating each scenario's FIRST ticket as
// the winner. Callers typically pass a single RWA-derived candidate per
// scenario, reproducing the paper's Arrow-Naive baseline (restoration
// planned purely at the optical layer, blind to traffic demand).
func ArrowNaive(n *Network, scs []RestorableScenario, opts *ArrowOptions) (*Allocation, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	winners := make([]int, len(scs))
	al, err := ArrowPhase2(n, scs, winners, opts)
	if err != nil {
		return nil, err
	}
	if L := opts.ledger(); L != nil {
		emitPlan(L, n, scs, al)
	}
	return al, nil
}

// ArrowPhase1 solves the Table 2 LP and returns the winning ticket index
// for each scenario (argmin_z sum_e max(0, Delta_e^{z,q})).
// Use Arrow for the full two-phase flow; ArrowPhase1 exists for callers
// that want to inspect or override the ticket selection.
//
// The slack variables Delta_e^{z,q} are FREE (they may be negative): as the
// paper's footnote 5 notes, the ReLU max(0, .) is applied in
// post-processing only. Constraint (6) therefore bounds each ticket's
// aggregate restorable-link overload — sum_e load_e <= sum_e r_e^{z,q} +
// M^{z,q} — rather than hard-capping individual links, which would let one
// poor ticket strangle the whole allocation. Per-link hard caps are
// Phase II's job, once the winner is known.
//
// Post-processing computes each ticket's required slack directly from the
// solved loads, sum_e max(0, load_e^{z,q} - r_e^{z,q}), which is the
// minimal feasible value of sum_e max(0, Delta) — deterministic even when
// the LP vertex leaves Delta off its lower envelope.
//
// Constraint (4) rows are deduplicated per flow across (q,z) pairs with
// identical surviving+restorable tunnel sets, which collapses the common
// case where every ticket restores some capacity on every link.
func ArrowPhase1(n *Network, scs []RestorableScenario, opts *ArrowOptions) ([]int, error) {
	winners, _, _, err := phase1Winners(n, scs, opts)
	return winners, err
}

// phase1Master is a solved Phase I master on its canonical vertex: the
// model as the solve left it, the reference loads winners are ranked by,
// and the pivots every solve behind it took.
type phase1Master struct {
	bm      *baseModel
	refLoad map[loadKey]lp.Expr
	sol     *lp.Solution
	iters   int
}

// phase1Winners solves Phase I as the column-generation master, picks the
// winners at the solved master and reports its size and pivots. It returns
// the master, its model back in the pool, for Phase II to build on.
func phase1Winners(n *Network, scs []RestorableScenario, opts *ArrowOptions) ([]int, SolveStats, *baseModel, error) {
	for qi := range scs {
		if len(scs[qi].Tickets) == 0 {
			return nil, SolveStats{}, nil, fmt.Errorf("te: arrow: scenario %d has no tickets", qi)
		}
	}
	pm, err := arrowPhase1Colgen(n, scs, opts)
	if err != nil {
		return nil, SolveStats{}, nil, err
	}
	stats := SolveStats{Phase1Vars: pm.bm.m.NumVars(), Phase1Rows: pm.bm.m.NumConstrs(), Phase1Iters: pm.iters}
	winners := pickWinners(scs, pm.refLoad, pm.sol.X)
	modelPool.Put(pm.bm.m)
	return winners, stats, pm.bm, nil
}

// ArrowPhase2 solves the Table 3 LP with the given winning ticket per
// scenario and returns the final allocation plus the restoration plan.
//
// Every solve starts from the all-slack basis (unless NoWarm): each Table 3
// row is >= 0 or <= r with r >= 0, so x = 0 is feasible and the simplex
// skips its feasibility phase. Phase I's final basis looks near-optimal but
// is NOT a better start: the (11) rows cap restored links Phase I bounded
// only in aggregate, so it is primal infeasible here and a primal simplex
// regains feasibility at a cold solve's price (Facebook instance, four
// matrices: 2,157-2,366 pivots from it, 2,300-2,509 cold, 345-427 from
// all-slack, same optimum). A dual simplex would turn that around.
func ArrowPhase2(n *Network, scs []RestorableScenario, winners []int, opts *ArrowOptions) (*Allocation, error) {
	al, err := arrowPhase2(n, scs, winners, opts, nil)
	if err != nil {
		return nil, err
	}
	al.RestoredGbps = restoredPlan(scs, winners)
	return al, nil
}

// arrowPhase2 is ArrowPhase2 on like's layout (see baseModelLike) without
// RestoredGbps, which Arrow builds for the allocation it keeps.
func arrowPhase2(n *Network, scs []RestorableScenario, winners []int, opts *ArrowOptions, like *baseModel) (*Allocation, error) {
	if len(winners) != len(scs) {
		return nil, fmt.Errorf("te: arrow phase 2: %d winners for %d scenarios", len(winners), len(scs))
	}
	defer opts.profiler().Stage("te.phase2")()
	bm := baseModelLike("arrow-phase2", n, like)
	row := bm.row
	sc := new(splitScratch)
	for qi := range scs {
		q := &scs[qi]
		if winners[qi] < 0 || winners[qi] >= len(q.Tickets) {
			return nil, fmt.Errorf("te: arrow phase 2: scenario %d winner %d out of range", qi, winners[qi])
		}
		z := winners[qi]
		restored := func(link int) float64 { return q.TicketGbps(z, link) }
		// Constraint (10).
		failed := bm.eachTouched(n, q, restored, sc, func(s tunnelSplit) {
			if e, ok := bm.coverExpr(row[:0], s); ok {
				bm.m.AddConstr(e, lp.GE, 0, fmt.Sprintf("p2cover_f%d_q%d", s.f, qi))
				row = e
			}
		})
		// Constraint (11): hard restored-capacity limits.
		for _, link := range q.FailedLinks {
			if load := bm.restorableLoad(row[:0], n, link, failed, restored); len(load) > 0 {
				c := bm.m.AddConstr(load, lp.LE, restored(link), fmt.Sprintf("p2cap_e%d_q%d", link, qi))
				if opts.captureSensitivity() {
					bm.capRows = append(bm.capRows, CapRow{Link: link, Scenario: qi, Constr: c})
				}
				row = load
			}
		}
	}

	sol, err := solveModel(bm.m, bm.m.Name(), opts.start(bm.m, nil), opts.lpOpts(), opts.ledger())
	if err != nil {
		return nil, err
	}
	al := bm.extract(n, sol)
	if opts.captureSensitivity() {
		al.Sens = &SensitivityHandle{
			Model: bm.m, Basis: sol.Basis, Duals: sol.Duals,
			Objective: sol.Objective, CapRows: bm.capRows,
			BVars: bm.b, AVars: bm.a,
		}
	} else {
		modelPool.Put(bm.m)
	}
	al.WinningTicket = append([]int(nil), winners...)
	return al, nil
}
