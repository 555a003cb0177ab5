package te

import (
	"context"
	"fmt"
	"math"
	"slices"

	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/lp"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/par"
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
// else warm, else m's all-slack basis, made in slack (from basisPool). Every
// row of both phases' models holds at x = 0, so the all-slack basis skips
// the simplex's feasibility phase; the canonical Phase I pass, whose lock
// row x = 0 violates, always has a warm basis.
func (o *ArrowOptions) start(m *lp.Model, warm, slack *lp.Basis) *lp.Basis {
	switch {
	case o != nil && o.NoWarm:
		return nil
	case warm != nil:
		return warm
	}
	slack.ResetSlack(m)
	return slack
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

// SessionOptions is the one place a context becomes TE options: its
// recorder (as LP.Recorder), ledger, stage profiler, probe period (as
// LP.HealthEvery) and worker budget (as Parallelism), with the session's
// NoWarm. Callers build it once per session and give every solve a copy,
// changing only Alpha.
func SessionOptions(ctx context.Context, noWarm bool) ArrowOptions {
	return ArrowOptions{
		LP:     &lp.Options{Recorder: obs.FromContext(ctx), HealthEvery: obs.HealthEveryFrom(ctx)},
		Ledger: ledger.FromContext(ctx), Profiler: obs.ProfilerFrom(ctx),
		NoWarm: noWarm, Parallelism: par.WorkersFrom(ctx),
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
		lost, restored := 0.0, scs[qi].restored(al.WinningTicket[qi])
		for _, link := range scs[qi].FailedLinks {
			if link >= 0 && link < len(n.LinkCap) { // as failedSet: no such link, nothing lost
				lost += n.LinkCap[link]
			}
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
// restoration plan Z*, the winning ticket of each scenario, whose restored
// capacity (RestorableScenario.Restoration) is ready to be installed as
// ROADM reconfiguration rules.
func Arrow(n *Network, scs []RestorableScenario, opts *ArrowOptions) (*Allocation, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	v := callView(n, scs, nil)
	defer v.release()
	al, _, err := arrow(n, v, opts, false)
	return al, err
}

// ArrowAndNaive returns Arrow's allocation and ArrowNaive's, bit for bit,
// from one Arrow solve: Arrow always solves the all-ticket-0 Phase II that
// ArrowNaive is, as its fallback when some winner is not ticket 0 or as the
// winners' own solve when all are. The naive allocation's Stats carry
// Phase II numbers only, as ArrowNaive's do; it shares no slice with
// Arrow's.
func ArrowAndNaive(n *Network, scs []RestorableScenario, opts *ArrowOptions) (arrowAl, naive *Allocation, err error) {
	if err := n.Validate(); err != nil {
		return nil, nil, err
	}
	v := callView(n, scs, nil)
	defer v.release()
	return arrow(n, v, opts, true)
}

// arrow is Arrow on a validated network, its rows read off v. With
// withNaive it also returns the all-ticket-0 Phase II as ArrowNaive would
// (ArrowAndNaive); without, naive is nil and nothing is built for it.
func arrow(n *Network, v *splitView, opts *ArrowOptions, withNaive bool) (al, naive *Allocation, err error) {
	scs := v.t.scs
	endP1 := opts.profiler().Stage("te.phase1")
	winners, p1stats, err := phase1Winners(n, v, opts)
	endP1()
	if err != nil {
		return nil, nil, err
	}
	won, err := solvePhase2(n, v, winners, opts)
	if err != nil {
		return nil, nil, err
	}
	// Both Phase II solves go back in the reverse of the order they were
	// drawn, so the next solve draws its models and solutions in the same
	// order.
	defer won.release()
	// Phase I ranks tickets against its own (slack-throttled) loads, which
	// can mis-rank when many tickets tie near zero slack. Ticket 0 is by
	// convention the RWA-derived candidate (the |Z|=1 / Arrow-Naive plan),
	// so solving Phase II once more against it and keeping the better
	// allocation guarantees the demand-aware selection never does worse
	// than restoration planned at the optical layer alone. The choice reads
	// the two solves' objectives and winners only, so only the plan kept
	// (and, withNaive, the fallback) is read off its solution.
	kept, fallback := won, won
	if slices.ContainsFunc(winners, func(w int) bool { return w != 0 }) {
		v.firsts = resize(v.firsts, len(scs))
		if fallback, err = solvePhase2(n, v, v.firsts, opts); err != nil {
			return nil, nil, err
		}
		defer fallback.release()
		// On a throughput tie, prefer the plan that revives more capacity:
		// extra restored bandwidth can only improve delivery under failures.
		if f, w := fallback.sol.Objective, won.sol.Objective; f > w+1e-9 ||
			(f > w-1e-9 && restoredTotal(scs, fallback.winners) > restoredTotal(scs, won.winners)+1e-9) {
			kept = fallback
			if rec := opts.recorder(); rec != nil {
				rec.Add("te.fallback_kept", 1)
			}
		}
	}
	al = kept.allocation(n)
	if withNaive {
		if fallback == kept {
			naive = al.clone()
		} else {
			naive = fallback.allocation(n)
		}
	}
	// Phase I's stats attach to whichever allocation survived (the
	// fallback's own Stats carry Phase II numbers only).
	al.Stats.Phase1Vars = p1stats.Phase1Vars
	al.Stats.Phase1Rows = p1stats.Phase1Rows
	al.Stats.Phase1Iters = p1stats.Phase1Iters
	L := opts.ledger()
	if L != nil {
		emitPlan(L, n, scs, al)
	}
	if naive != nil && L != nil {
		emitPlan(L, n, scs, naive)
	}
	return al, naive, nil
}

// clone is a copy of al that shares no slice or map with it.
func (al *Allocation) clone() *Allocation {
	c := *al
	c.B = slices.Clone(al.B)
	c.A = make([][]float64, len(al.A))
	for f, as := range al.A {
		c.A[f] = slices.Clone(as)
	}
	c.WinningTicket = slices.Clone(al.WinningTicket)
	return &c
}

// restoredTotal is the capacity the given winners restore over every
// scenario's distinct failed links.
func restoredTotal(scs []RestorableScenario, winners []int) float64 {
	t := 0.0
	for qi := range scs {
		t += scs[qi].restored(winners[qi])
	}
	return t
}

// ArrowNaive runs Phase II only, treating each scenario's FIRST ticket as
// the winner and reading no other. With the offline stage's scenarios, whose
// first ticket is the RWA's own integral assignment, it is the paper's
// Arrow-Naive baseline (restoration planned purely at the optical layer,
// blind to traffic demand). ArrowAndNaive reads the same allocation off an
// Arrow solve.
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
	v := callView(n, scs, nil)
	defer v.release()
	winners, _, err := phase1Winners(n, v, opts)
	return slices.Clone(winners), err
}

// phase1Master is a solved Phase I master on its canonical vertex: the
// model as the solve left it, its solution and the pivots every solve behind
// it took. The master's solves alternate between two pooled Solutions, as
// each warm-starts from the basis of the one before; sol is the last one's,
// spare the other.
type phase1Master struct {
	bm         *baseModel
	sol, spare *lp.Solution
	iters      int
}

// phase1Winners solves Phase I as the column-generation master, picks the
// winners at the solved master, on v's scratch, and reports its size and
// pivots.
func phase1Winners(n *Network, v *splitView, opts *ArrowOptions) ([]int, SolveStats, error) {
	scs := v.t.scs
	for qi := range scs {
		if len(scs[qi].Tickets) == 0 {
			return nil, SolveStats{}, fmt.Errorf("te: arrow: scenario %d has no tickets", qi)
		}
	}
	pm, err := arrowPhase1Colgen(n, v, opts, false)
	if err != nil {
		return nil, SolveStats{}, err
	}
	stats := SolveStats{Phase1Vars: pm.bm.m.NumVars(), Phase1Rows: pm.bm.m.NumConstrs(), Phase1Iters: pm.iters}
	winners := pickWinners(v, pm.sol.X)
	solutionPool.Put(pm.sol)
	solutionPool.Put(pm.spare)
	modelPool.Put(pm.bm.m)
	return winners, stats, nil
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
// all-slack, same optimum). The dual simplex, which lp.SolveWithBasis takes
// for a basis that prices out but breaks bounds, leaves the choice as it is:
// the all-slack start is primal feasible, and any other lands on another
// vertex of the optimal face and moves what is read off ARROW's vertex.
func ArrowPhase2(n *Network, scs []RestorableScenario, winners []int, opts *ArrowOptions) (*Allocation, error) {
	if err := checkWinners(scs, winners); err != nil {
		return nil, err
	}
	v := callView(n, scs, winners)
	defer v.release()
	return arrowPhase2(n, v, winners, opts)
}

// rowName is fmt.Sprintf(format, a, b) for a model whose row names are
// read, and "" (ConstrName's c<index>) otherwise.
func rowName(named bool, format string, a, b int) string {
	if !named {
		return ""
	}
	return fmt.Sprintf(format, a, b)
}

// checkWinners reports winners that do not name one ticket of each
// scenario.
func checkWinners(scs []RestorableScenario, winners []int) error {
	if len(winners) != len(scs) {
		return fmt.Errorf("te: arrow phase 2: %d winners for %d scenarios", len(winners), len(scs))
	}
	for qi, z := range winners {
		if z < 0 || z >= len(scs[qi].Tickets) {
			return fmt.Errorf("te: arrow phase 2: scenario %d winner %d out of range", qi, z)
		}
	}
	return nil
}

// arrowPhase2 is ArrowPhase2 with its rows read off v: the winners' plan,
// solved and read. The winners are in range (checkWinners).
func arrowPhase2(n *Network, v *splitView, winners []int, opts *ArrowOptions) (*Allocation, error) {
	p, err := solvePhase2(n, v, winners, opts)
	if err != nil {
		return nil, err
	}
	defer p.release()
	return p.allocation(n), nil
}

// phase2 is a solved Phase II: its model, the solution it solved into and
// the winners it was built for, which may be v's scratch.
type phase2 struct {
	bm      *baseModel
	sol     *lp.Solution
	winners []int
	capture bool
}

// solvePhase2 builds the Table 3 LP for the winners on v's layout
// (splitView.base), its rows read off v, and solves it. The caller reads
// the plan off it (allocation) or not, then releases it.
func solvePhase2(n *Network, v *splitView, winners []int, opts *ArrowOptions) (*phase2, error) {
	scs := v.t.scs
	defer opts.profiler().Stage("te.phase2")()
	// Only attribution reads the rows' names and capRows, off the captured
	// model.
	capture := opts.captureSensitivity()
	bm := baseModelLike("arrow-phase2", n, &v.like, capture)
	row := bm.row
	defer func() { v.like.row = row }()
	// Scenarios that share a split repeat a left-hand side: the model holds
	// each distinct row once, where it was first written. A repeated (10)
	// row adds nothing; a repeated (11) row differs only in its bound, and
	// the kept row takes the least (see DESIGN.md, "Phase II over its
	// distinct rows").
	clear(v.coverSeen)
	v.resetCaps(bm.m.NumVars())
	caps := len(bm.capRows) // a captured kept (11) row's CapRow is capRows[caps+k]
	for qi := range scs {
		q := &scs[qi]
		z := winners[qi]
		s := int(v.t.support[qi][z])
		// Constraint (10).
		for j := range v.touched[qi] {
			ft := &v.touched[qi][j]
			id, sp := ft.split(s)
			if key := v.seenAt[ft.f] + int(ft.set.rowOf[id]); sp.cover && !v.coverSeen[key] {
				v.coverSeen[key] = true
				row = ft.coverRow(row[:0], sp)
				bm.m.AddConstr(row, lp.GE, 0, rowName(capture, "p2cover_f%d_q%d", ft.f, qi))
			}
		}
		// Constraint (11): hard restored-capacity limits.
		for i, link := range q.FailedLinks {
			load := v.load(qi, s, i)
			if len(load) == 0 {
				continue
			}
			r := q.TicketGbps(z, link)
			if k := v.capOf(load); k >= 0 {
				if c := v.caps[k].c; r < bm.m.RHS(c) {
					bm.m.SetRHS(c, r)
					if capture {
						bm.capRows[caps+k] = CapRow{Link: link, Scenario: qi, Constr: c}
					}
				}
				continue
			}
			row = appendLoad(row[:0], load)
			c := bm.m.AddConstr(row, lp.LE, r, rowName(capture, "p2cap_e%d_q%d", link, qi))
			v.keepCap(load, c)
			if capture {
				bm.capRows = append(bm.capRows, CapRow{Link: link, Scenario: qi, Constr: c})
			}
		}
	}

	// A captured solve's Basis and Duals stay with Allocation.Sens, so it
	// solves into a Solution of its own.
	var dst *lp.Solution
	if capture {
		dst = new(lp.Solution)
	} else {
		dst = solutionPool.Get()
	}
	slack := basisPool.Get()
	defer basisPool.Put(slack)
	p := &phase2{bm: bm, sol: dst, winners: winners, capture: capture}
	sol, err := solveModel(dst, bm.m, bm.m.Name(), opts.start(bm.m, nil, slack), opts.lpOpts(), opts.ledger())
	if err != nil {
		p.release()
		return nil, err
	}
	p.sol = sol
	return p, nil
}

// allocation reads p's plan: every b_f and a_{f,t}, a copy of its winners
// and, for a captured solve, what attribution reads (Allocation.Sens) with
// a variable layout of its own, as the view's does not outlive the solve.
func (p *phase2) allocation(n *Network) *Allocation {
	al := p.bm.extract(n, 1, p.sol)
	if p.capture {
		var l varLayout
		l.number(n)
		al.Sens = &SensitivityHandle{
			Model: p.bm.m, Basis: p.sol.Basis, Duals: p.sol.Duals,
			Objective: p.sol.Objective, CapRows: p.bm.capRows,
			BVars: l.b, AVars: l.a,
		}
	}
	al.WinningTicket = append([]int(nil), p.winners...)
	return al
}

// release hands p's model and solution back to their pools, unless it was
// captured: Allocation.Sens may keep those. Nothing may read p after.
func (p *phase2) release() {
	if !p.capture {
		modelPool.Put(p.bm.m)
		solutionPool.Put(p.sol)
	}
}
