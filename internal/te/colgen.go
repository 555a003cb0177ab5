package te

import (
	"context"
	"fmt"
	"math"

	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/lp"
	"github.com/arrow-te/arrow/internal/par"
	"github.com/arrow-te/arrow/internal/ticket"
)

// This file implements Phase I as a restricted master problem with lazy
// ticket pricing (column generation). The master starts from the seed
// blocks of each scenario (ticket 0, the RWA-derived candidate, unless
// RestorableScenario.Seeds asks for more) and each pricing round appends,
// per scenario, the deferred ticket block whose rows are most violated at
// the current master optimum. With every ticket seeded the master is the
// full enumeration, which the colgen tests take as their reference.
//
// Why row violation IS the reduced cost: in the dual of the phase-I LP each
// primal ROW owns a dual variable whose reduced cost at the current master
// solution equals that row's primal residual. A deferred ticket block whose
// rows are all satisfied (violation <= eps) prices out — appending satisfied
// constraints cannot move the optimum — so termination with no violated
// block certifies the restricted optimum equals the full-model optimum
// exactly, not approximately. The eps threshold (ticket.DefaultPricingEps)
// only guards against floating-point residue on satisfied rows.

// pickWinners runs the shared Phase I post-processing on a solved master:
// winner_q = argmin_z sum_e max(0, load_e - r_e^{z,q}) over ALL tickets
// (including ones a colgen master never appended — the reference loads are
// ticket-independent, so every ticket is rankable at any master optimum).
// Ties break toward maximal total restoration, then maximal load-matched
// capacity (sum_e min(load_e, r_e)); all comparisons are index-ordered and
// worker-count independent. The reference load of scenario q's failed link
// is the allocation on every tunnel that crosses it, the load the link
// would see under full restoration: evaluating each ticket against its own
// restorable set would favour tickets that restore fewer links (their Y
// sets shrink, so their measured loads shrink). The winners are v's
// scratch, v.winners.
func pickWinners(v *splitView, x []float64) []int {
	scs := v.t.scs
	v.winners = resize(v.winners, len(scs))
	winners, loads := v.winners, v.loads
	for qi := range scs {
		loads = loads[:0]
		for i := range scs[qi].FailedLinks {
			loads = append(loads, sumLoad(0, v.load(qi, -1, i), x))
		}
		best, bestSlack, bestUsable, bestTotal := 0, math.Inf(1), -1.0, -1.0
		for z := range scs[qi].Tickets {
			slack, usable := 0.0, 0.0
			for i, link := range scs[qi].FailedLinks {
				r := scs[qi].TicketGbps(z, link)
				slack += math.Max(0, loads[i]-r)
				usable += math.Min(loads[i], r)
			}
			total := scs[qi].Tickets[z].TotalGbps()
			// Ranking: minimal slack first (the paper's criterion), then
			// maximal TOTAL restoration (more revived capacity can only
			// help under failures), then maximal load-matched capacity.
			better := slack < bestSlack-1e-9 ||
				(slack < bestSlack+1e-9 && total > bestTotal+1e-9) ||
				(slack < bestSlack+1e-9 && total > bestTotal-1e-9 && usable > bestUsable+1e-9)
			if better {
				best, bestSlack, bestUsable, bestTotal = z, slack, usable, total
			}
		}
		winners[qi] = best
	}
	v.loads = loads
	return winners
}

// setCanonicalObjective swaps a solved phase-I master onto the canonical
// secondary objective: a lock row pins the primary optimum (sum_f b_f >=
// Obj*) and the objective becomes minimising the total reference load — the
// allocation carried by tunnels that cross any potentially-failing link.
// Phase I optima are massively degenerate in how each b_f splits across its
// tunnels, so ranking tickets by per-link loads at an arbitrary optimal
// vertex makes the winner an artifact of the pivot path (and of the master
// the solve happened to use — restricted or full). Minimising reference
// load selects, among the primary optima, the vertices that route away from
// failure-prone links: the winner choice stabilises across solve modes and
// tickets are evaluated where the slack criterion is most meaningful.
func setCanonicalObjective(bm *baseModel, v *splitView, primalObj float64) {
	// Per-variable weights accumulate in deterministic (scenario, link)
	// order; every coefficient is 1, so the sums are exact integers.
	v.weight = resize(v.weight, bm.m.NumVars())
	weight := v.weight
	for qi := range v.t.scs {
		for i := range v.t.scs[qi].FailedLinks {
			for _, x := range v.load(qi, -1, i) {
				weight[x]++
			}
		}
	}
	bm.row = bm.row[:0]
	for _, b := range bm.b {
		bm.row = bm.row.Plus(1, b)
	}
	bm.m.AddConstr(bm.row, lp.GE, primalObj, "p1lock")
	for _, b := range bm.b {
		bm.m.SetObj(b, 0)
	}
	for j, w := range weight {
		if w != 0 {
			bm.m.SetObj(lp.Var(j), -w) // maximise -load = minimise load
		}
	}
}

// appendTicketBlock splices ticket (q, z)'s block into the restricted
// master: the cover rows (4) of the flows q touches, ascending, each
// deduplicated per flow against v.coverSeen, then the aggregate slack row of
// constraints (5)+(6) over q's failed links in order. The slack row is
// written in delta-column form — totalLoad - u <= totalR with a fresh
// relaxation column u in [0, alpha*totalR], added before the row that ends
// in it — which is feasibly identical to the enumerated (1+alpha)*totalR
// row but grows the model column-wise so the warm basis extends in place
// (new rows slack-basic, the new column nonbasic at zero). The tickets of
// one support add the same rows but for totalR.
//
// Only a test reads the rows' names: they are "" (ConstrName's c<index>)
// unless named.
func appendTicketBlock(bm *baseModel, v *splitView, basis *lp.Basis, qi, z int, alpha float64, named bool) {
	s := int(v.t.support[qi][z])
	for j := range v.touched[qi] {
		ft := &v.touched[qi][j]
		id, sp := ft.split(s)
		if !sp.cover || v.coverSeen[v.seenAt[ft.f]+id] {
			continue
		}
		v.coverSeen[v.seenAt[ft.f]+id] = true
		bm.row = ft.coverRow(bm.row[:0], sp)
		name := ""
		if named {
			name = fmt.Sprintf("p1cover_f%d_q%d_z%d", ft.f, qi, z)
		}
		bm.m.AddConstr(bm.row, lp.GE, 0, name)
	}
	if v.hasLoad(qi, s) {
		totalR := v.t.totalR[qi][z]
		u := bm.m.AddVar(0, alpha*totalR, 0, "")
		bm.row = bm.row[:0]
		for i := range v.t.scs[qi].FailedLinks {
			bm.row = appendLoad(bm.row, v.load(qi, s, i))
		}
		bm.row = bm.row.Plus(-1, u)
		bm.m.AddConstr(bm.row, lp.LE, totalR, rowName(named, "p1slack_q%d_z%d", qi, z))
	}
	if basis != nil {
		basis.ExtendTo(bm.m)
	}
}

// blockViolation is the pricing measure of ticket (q, z)'s deferred block
// at the current master optimum: the worst residual over the block's rows
// not yet present in the master (deduped cover rows already in the master
// are satisfied within solver tolerance and cannot price the block in). The
// deferred slack row is judged against its fully-relaxed form
// (1+alpha)*totalR, matching the feasible region its delta-column form
// spans once appended. The block's reduced cost is the negation of this
// violation. All but totalR is the ticket's support's, which v.prices holds
// for the sweep once a ticket of the support was priced in it. The product is
// rounded on its own (float64(...)), so no platform fuses it into the
// subtraction.
func blockViolation(v *splitView, qi, z int, alpha float64, x []float64, sweep int) float64 {
	s := int(v.t.support[qi][z])
	sp := &v.prices[v.t.supAt[qi]+s]
	if sp.sweep != sweep {
		*sp = v.priceSupport(qi, s, x)
		sp.sweep = sweep
	}
	worst := sp.worst
	if sp.hasLoad {
		if r := sp.load - float64((1+alpha)*v.t.totalR[qi][z]); r > worst {
			worst = r
		}
	}
	return worst
}

// pricePick is one scenario's pick of a pricing sweep: the deferred ticket
// whose block it appends (-1: none) and that block's reduced cost.
type pricePick struct {
	z  int
	rc float64
}

// supportPrice is one support's part of blockViolation at one sweep's
// master optimum: the worst residual of its cover rows not yet in the
// master (0 if none is violated), and its load, if it has one.
type supportPrice struct {
	sweep   int
	worst   float64
	load    float64
	hasLoad bool
}

// priceSupport evaluates support s of scenario qi at x: every row term by
// term in the order its terms go into the master.
func (v *splitView) priceSupport(qi, s int, x []float64) supportPrice {
	var p supportPrice
	for j := range v.touched[qi] {
		ft := &v.touched[qi][j]
		id, sp := ft.split(s)
		if !sp.cover || v.coverSeen[v.seenAt[ft.f]+id] {
			continue
		}
		if r := -ft.coverValue(sp, x); r > p.worst {
			p.worst = r
		}
	}
	if p.hasLoad = v.hasLoad(qi, s); p.hasLoad {
		for i := range v.t.scs[qi].FailedLinks {
			p.load = sumLoad(p.load, v.load(qi, s, i), x)
		}
	}
	return p
}

// arrowPhase1Colgen is Phase I: seed the restricted master, then alternate
// pricing sweeps (fanned over par.Map, one oracle call per scenario) with
// warm master re-solves until every deferred block prices out. Certificates
// are checked on every master re-solve; the converged optimum equals the
// full-enumeration optimum exactly (see the file comment for the
// termination argument).
func arrowPhase1Colgen(n *Network, v *splitView, opts *ArrowOptions, named bool) (*phase1Master, error) {
	scs := v.t.scs
	bm := baseModelLike("arrow-phase1", n, &v.like, false)
	defer func() { v.like.row = bm.row }()
	alpha := opts.alpha()
	clear(v.coverSeen)
	clear(v.prices)
	ctx := context.Background()
	workers := opts.parallelism()

	// inMaster[qi][z] is whether ticket z of scenario qi has its block in
	// the master, on the view's scratch.
	totalTickets := len(v.t.supportFlat)
	v.inMasterFlat = resize(v.inMasterFlat, totalTickets)
	v.inMaster = resize(v.inMaster, len(scs))
	flat := v.inMasterFlat
	for qi := range scs {
		nt := len(scs[qi].Tickets)
		v.inMaster[qi], flat = flat[:nt:nt], flat[nt:]
	}
	inMaster := v.inMaster
	v.picks = resize(v.picks, len(scs))
	picks := v.picks

	lpo := opts.phase1LP()
	L := opts.ledger()
	rec := opts.recorder()

	// Seed: the leading Seeds tickets per scenario (by convention ticket 0
	// is the RWA-derived candidate, the |Z|=1 plan; compositional pipelines
	// prepend composed-from-singles candidates and raise Seeds), in scenario
	// order. Starting from the bare base model instead was measured strictly
	// worse: the base optimum sits far from any restorable vertex, so the
	// first sweep prices one block per scenario and the repair of that bulk
	// append costs more than seeding ever does.
	totalSeeds := 0
	for qi := range scs {
		for z := 0; z < scs[qi].seedCount(); z++ {
			inMaster[qi][z] = true
			appendTicketBlock(bm, v, nil, qi, z, alpha, named)
			totalSeeds++
		}
	}

	// solve re-solves the master from warm, or from the all-slack basis
	// when there is none: every master row (cover, slack-in-delta-form,
	// seeds and priced-in blocks alike) holds at x = 0. The canonical pass
	// solves under the "-canon" suffixed name, so reports and tests can tell
	// it from the primary solves. Every master re-solve checks its
	// certificate: a priced-in column that broke dual feasibility would
	// silently corrupt every later pricing decision. Each solve fills the one
	// of sols the solve before did not: it may start from that one's basis,
	// which lp.SolveInto does not let it overwrite.
	sols, turn := [2]*lp.Solution{solutionPool.Get(), solutionPool.Get()}, 0
	slack := basisPool.Get()
	defer basisPool.Put(slack)
	solve := func(suffix string) func(*lp.Basis) (*lp.Solution, error) {
		return func(warm *lp.Basis) (*lp.Solution, error) {
			turn ^= 1
			return solveModel(sols[turn], bm.m, bm.m.Name()+suffix, opts.start(bm.m, warm, slack), lpo, L)
		}
	}

	oracle := ticket.PricingOracle{}
	rounds, priced, roundSeq := 0, 0, 0
	totalIters := 0
	// priceOut alternates pricing sweeps with master re-solves (via the
	// caller-chosen resolve strategy) until every deferred block prices out
	// at sol's optimum. Each non-final sweep appends at least one block, so
	// the loop is bounded by the total ticket count (+1 for the priced-out
	// sweep). It is run twice: once under the primary objective and once
	// after setCanonicalObjective (the load-minimal vertex may violate
	// deferred cover rows the primary optimum satisfied, so the secondary
	// pass can price blocks back in).
	priceOut := func(sol *lp.Solution, resolve func(*lp.Basis) (*lp.Solution, error)) (*lp.Solution, error) {
		for round := 0; round <= totalTickets; round++ {
			rounds++
			x := sol.X
			// te.pricing is an aggregate stage (te.phase1 already brackets the
			// whole dispatch as the top-level wall stage).
			endPricing := opts.profiler().StageAgg("te.pricing")
			err := par.ForEach(ctx, workers, len(scs), func(_ context.Context, qi int) error {
				q := &scs[qi]
				z, rc := oracle.Price(len(q.Tickets),
					func(z int) bool { return !inMaster[qi][z] },
					func(z int) float64 { return -blockViolation(v, qi, z, alpha, x, rounds) })
				picks[qi] = pricePick{z: z, rc: rc}
				return nil
			})
			endPricing()
			if err != nil {
				return nil, fmt.Errorf("te: arrow phase 1 colgen: %w", err)
			}
			roundCols, worstRC := 0, 0.0
			basis := sol.Basis
			for qi, p := range picks {
				if p.z < 0 {
					continue
				}
				if p.rc < worstRC {
					worstRC = p.rc
				}
				inMaster[qi][p.z] = true
				appendTicketBlock(bm, v, basis, qi, p.z, alpha, named)
				roundCols++
			}
			priced += roundCols
			if L != nil {
				L.Emit(ledger.Event{
					Kind: ledger.KindPricingRound, Scenario: -1, Round: roundSeq,
					Count: roundCols, Gbps: worstRC,
					Detail: fmt.Sprintf("master %dv/%dr", bm.m.NumVars(), bm.m.NumConstrs()),
				})
			}
			roundSeq++
			if roundCols == 0 {
				return sol, nil // every deferred block priced out: restricted optimum is exact
			}
			sol, err = resolve(basis)
			if err != nil {
				return nil, err
			}
			totalIters += sol.Iterations
		}
		return sol, nil
	}

	primary, canonical := solve(""), solve("-canon")
	sol, err := primary(nil)
	if err != nil {
		return nil, err
	}
	totalIters += sol.Iterations
	if sol, err = priceOut(sol, primary); err != nil {
		return nil, err
	}

	// Canonicalise the vertex before winner selection (see
	// setCanonicalObjective), re-entering the pricing loop in case the
	// load-minimal vertex violates still-deferred blocks. The lock row makes
	// x = 0 infeasible, so secondary re-solves warm from the previous
	// canonical basis instead of the slack basis.
	setCanonicalObjective(bm, v, sol.Objective)
	if sol.Basis != nil {
		sol.Basis.ExtendTo(bm.m)
	}
	if sol, err = canonical(sol.Basis); err != nil {
		return nil, err
	}
	totalIters += sol.Iterations
	if sol, err = priceOut(sol, canonical); err != nil {
		return nil, err
	}

	if rec != nil {
		rec.Add("lp.columns_priced", int64(priced))
		rec.Add("te.pricing_rounds", int64(rounds))
		rec.Add("te.tickets_deferred", int64(totalTickets-priced-totalSeeds))
	}

	// The restricted master only ever grows, so the converged size IS the
	// peak master size — directly comparable against the full enumeration's
	// model dimensions.
	return &phase1Master{bm: bm, sol: sol, spare: sols[turn^1], iters: totalIters}, nil
}
