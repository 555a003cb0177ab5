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

// loadKey addresses one (scenario, failed link) reference-load expression.
type loadKey struct{ qi, link int }

// buildRefLoads returns the ticket-INDEPENDENT reference loads used to rank
// tickets in post-processing: for each (scenario, failed link), the
// allocation carried by every tunnel that crosses the failed link (the load
// the link would see under full restoration). Evaluating each ticket
// against per-ticket restorable sets would systematically favour tickets
// that restore fewer links (their Y sets shrink, so their measured loads
// shrink); a fixed reference keeps the comparison apples-to-apples. A link's
// load is read off cross once, for every scenario that fails it.
func buildRefLoads(scs []RestorableScenario, bm *baseModel) map[loadKey]lp.Expr {
	refLoad := map[loadKey]lp.Expr{}
	byLink := make([]lp.Expr, len(bm.cross))
	for qi := range scs {
		for _, link := range scs[qi].FailedLinks {
			var load lp.Expr
			if link >= 0 && link < len(bm.cross) {
				if refs := bm.cross[link]; byLink[link] == nil && len(refs) > 0 {
					byLink[link] = make(lp.Expr, 0, len(refs))
					for _, c := range refs {
						byLink[link] = byLink[link].Plus(1, bm.a[c.f][c.ti])
					}
				}
				load = byLink[link]
			}
			refLoad[loadKey{qi, link}] = load
		}
	}
	return refLoad
}

func newCoverSeen(n *Network) []map[string]bool {
	seen := make([]map[string]bool, len(n.Flows))
	for f := range seen {
		seen[f] = map[string]bool{}
	}
	return seen
}

// p1Cover is one constraint (4) row of a ticket block: residual plus
// restorable tunnels of flow f cover b_f. The key identifies the
// surviving+restorable tunnel set for cross-block deduplication (coverKey).
type p1Cover struct {
	f    int
	key  string
	expr lp.Expr
}

// p1Block is the full constraint block ticket (q, z) contributes to the
// phase-I master: deduplicatable cover rows plus the aggregate
// restorable-link load expression of constraints (5)+(6).
type p1Block struct {
	covers []p1Cover
	load   lp.Expr
	totalR float64
}

// coverKey writes into buf a cover row's dedup key: its residual and
// restorable sets as two tunnelSets as wide as the flow's, one after the other.
func coverKey(buf []byte, tunnels int, res, rst []int) []byte {
	w := (tunnels + 7) / 8
	buf = append(buf[:0], make([]byte, 2*w)...)
	for i, set := range [2][]int{res, rst} {
		for _, ti := range set {
			tunnelSet(buf[i*w:]).add(ti)
		}
	}
	return buf
}

// ticketBlock computes ticket (q, z)'s constraint block against the shared
// base-model variables. Pure (no model mutation), so blocks can be
// precomputed in parallel, a scratch per worker, and priced repeatedly.
func (sc *splitScratch) ticketBlock(n *Network, q *RestorableScenario, z int, bm *baseModel) p1Block {
	restored := func(link int) float64 { return q.TicketGbps(z, link) }
	var blk p1Block
	rst := 0
	failed := bm.eachTouched(n, q, restored, sc, func(s tunnelSplit) {
		rst += len(s.rst)
		if e, ok := bm.coverExpr(nil, s); ok {
			sc.key = coverKey(sc.key, len(n.Tunnels[s.f]), s.res, s.rst)
			blk.covers = append(blk.covers, p1Cover{f: s.f, key: string(sc.key), expr: e})
		}
	})
	if rst > 0 { // each restorable tunnel loads at least one failed link
		blk.load = make(lp.Expr, 0, rst)
	}
	for _, link := range q.FailedLinks {
		blk.totalR += restored(link)
		blk.load = bm.restorableLoad(blk.load, n, link, failed, restored)
	}
	return blk
}

func evalExprAt(e lp.Expr, x []float64) float64 {
	s := 0.0
	for _, t := range e {
		s += t.Coef * x[t.Var]
	}
	return s
}

// pickWinners runs the shared Phase I post-processing on a solved master:
// winner_q = argmin_z sum_e max(0, load_e - r_e^{z,q}) over ALL tickets
// (including ones a colgen master never appended — the reference loads are
// ticket-independent, so every ticket is rankable at any master optimum).
// Ties break toward maximal total restoration, then maximal load-matched
// capacity (sum_e min(load_e, r_e)); all comparisons are index-ordered and
// worker-count independent.
func pickWinners(scs []RestorableScenario, refLoad map[loadKey]lp.Expr, x []float64) []int {
	winners := make([]int, len(scs))
	for qi := range scs {
		best, bestSlack, bestUsable, bestTotal := 0, math.Inf(1), -1.0, -1.0
		for z := range scs[qi].Tickets {
			slack, usable := 0.0, 0.0
			for _, link := range scs[qi].FailedLinks {
				r := scs[qi].TicketGbps(z, link)
				load := 0.0
				if e, ok := refLoad[loadKey{qi, link}]; ok {
					load = evalExprAt(e, x)
				}
				slack += math.Max(0, load-r)
				usable += math.Min(load, r)
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
func setCanonicalObjective(bm *baseModel, scs []RestorableScenario, refLoad map[loadKey]lp.Expr, primalObj float64) {
	// Per-variable weights accumulate in deterministic (scenario, link)
	// order; every coefficient is 1, so the sums are exact integers.
	weight := make([]float64, bm.m.NumVars())
	for qi := range scs {
		for _, link := range scs[qi].FailedLinks {
			for _, t := range refLoad[loadKey{qi, link}] {
				weight[t.Var] += t.Coef
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
// master. Cover rows dedup against coverSeen exactly as the full
// enumeration does. The aggregate slack row is written in delta-column
// form — totalLoad - u <= totalR with a fresh relaxation column
// u in [0, alpha*totalR], added before the row that ends in it — which is
// feasibly identical to the enumerated (1+alpha)*totalR row but grows the
// model column-wise so the warm basis extends in place (new rows
// slack-basic, the new column nonbasic at zero).
func appendTicketBlock(bm *baseModel, basis *lp.Basis, qi, z int, blk *p1Block, alpha float64, coverSeen []map[string]bool) {
	for _, cv := range blk.covers {
		if coverSeen[cv.f][cv.key] {
			continue
		}
		coverSeen[cv.f][cv.key] = true
		bm.m.AddConstr(cv.expr, lp.GE, 0, fmt.Sprintf("p1cover_f%d_q%d_z%d", cv.f, qi, z))
	}
	if len(blk.load) > 0 {
		u := bm.m.AddVar(0, alpha*blk.totalR, 0, "")
		bm.row = append(append(bm.row[:0], blk.load...), lp.Term{Var: u, Coef: -1})
		bm.m.AddConstr(bm.row, lp.LE, blk.totalR, fmt.Sprintf("p1slack_q%d_z%d", qi, z))
	}
	if basis != nil {
		basis.ExtendTo(bm.m)
	}
}

// blockViolation is the pricing measure of a deferred block at the current
// master optimum: the worst residual over the block's rows not yet present
// in the master (deduped cover rows already in the master are satisfied
// within solver tolerance and cannot price the block in). The deferred
// slack row is judged against its fully-relaxed form (1+alpha)*totalR,
// matching the feasible region its delta-column form spans once appended.
// The block's reduced cost is the negation of this violation.
func blockViolation(blk *p1Block, alpha float64, coverSeen []map[string]bool, x []float64) float64 {
	worst := 0.0
	for _, cv := range blk.covers {
		if coverSeen[cv.f][cv.key] {
			continue
		}
		if v := -evalExprAt(cv.expr, x); v > worst {
			worst = v
		}
	}
	if len(blk.load) > 0 {
		if v := evalExprAt(blk.load, x) - (1+alpha)*blk.totalR; v > worst {
			worst = v
		}
	}
	return worst
}

// arrowPhase1Colgen is Phase I: seed the restricted master, then alternate
// pricing sweeps (fanned over par.Map, one oracle call per scenario) with
// warm master re-solves until every deferred block prices out. Certificates
// are checked on every master re-solve; the converged optimum equals the
// full-enumeration optimum exactly (see the file comment for the
// termination argument).
func arrowPhase1Colgen(n *Network, scs []RestorableScenario, opts *ArrowOptions) (*phase1Master, error) {
	bm := newBaseModel("arrow-phase1", n)
	alpha := opts.alpha()

	refLoad := buildRefLoads(scs, bm)
	coverSeen := newCoverSeen(n)

	// Precompute every ticket's block once (pure reads of the instance),
	// fanned per scenario. The blocks are then priced each round and
	// spliced in at most once.
	ctx := context.Background()
	workers := opts.parallelism()
	blocks, err := par.Map(ctx, workers, len(scs), func(_ context.Context, qi int) ([]p1Block, error) {
		q, sc := &scs[qi], splitPool.Get()
		defer splitPool.Put(sc)
		out := make([]p1Block, len(q.Tickets))
		for z := range q.Tickets {
			out[z] = sc.ticketBlock(n, q, z, bm)
		}
		return out, nil
	})
	if err != nil {
		return nil, fmt.Errorf("te: arrow phase 1 colgen: %w", err)
	}

	inMaster := make([][]bool, len(scs))
	totalTickets := 0
	for qi := range scs {
		inMaster[qi] = make([]bool, len(scs[qi].Tickets))
		totalTickets += len(scs[qi].Tickets)
	}

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
			appendTicketBlock(bm, nil, qi, z, &blocks[qi][z], alpha, coverSeen)
			totalSeeds++
		}
	}

	// solve re-solves the master from warm, or from the all-slack basis
	// when there is none: every master row (cover, slack-in-delta-form,
	// seeds and priced-in blocks alike) holds at x = 0. The canonical pass
	// solves under the "-canon" suffixed name, so reports and tests can tell
	// it from the primary solves. Every master re-solve checks its
	// certificate: a priced-in column that broke dual feasibility would
	// silently corrupt every later pricing decision.
	solve := func(suffix string) func(*lp.Basis) (*lp.Solution, error) {
		return func(warm *lp.Basis) (*lp.Solution, error) {
			return solveModel(bm.m, bm.m.Name()+suffix, opts.start(bm.m, warm), lpo, L)
		}
	}

	oracle := ticket.PricingOracle{}
	type pick struct {
		z  int
		rc float64
	}
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
			picks, err := par.Map(ctx, workers, len(scs), func(_ context.Context, qi int) (pick, error) {
				q := &scs[qi]
				z, rc := oracle.Price(len(q.Tickets),
					func(z int) bool { return !inMaster[qi][z] },
					func(z int) float64 { return -blockViolation(&blocks[qi][z], alpha, coverSeen, x) })
				return pick{z: z, rc: rc}, nil
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
				appendTicketBlock(bm, basis, qi, p.z, &blocks[qi][p.z], alpha, coverSeen)
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
	setCanonicalObjective(bm, scs, refLoad, sol.Objective)
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
	return &phase1Master{bm: bm, refLoad: refLoad, sol: sol, iters: totalIters}, nil
}
