package te

import (
	"fmt"
	"reflect"
	"slices"

	"github.com/arrow-te/arrow/internal/lp"
)

// This file keeps the ARROW model builders as they were before the
// tunnel-link incidence index: every row found by scanning flows x tunnels
// x links, every flow classified whether a failed link touches it or not,
// every block a list of rows of its own and every cover row deduplicated by
// a key of its tunnel sets. They are the oracle the rows read off a split
// table (viewRefLoads, viewBlock, the Phase I master and ArrowPhase2's
// rows) are compared against, row by row.

// p1Cover is one constraint (4) row of a ticket block: residual plus
// restorable tunnels of flow f cover b_f. The key identifies the
// surviving+restorable tunnel set for cross-block deduplication (coverKey).
type p1Cover struct {
	f    int
	key  string
	expr lp.Expr
}

// p1Block is the constraint block ticket (q, z) contributes to the phase-I
// master: deduplicatable cover rows plus the aggregate restorable-link load
// expression of constraints (5)+(6).
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

// refAppendTicketBlock splices a reference block into bm as Phase I's
// appendTicketBlock does: the cover rows not in coverSeen, then the slack
// row in delta-column form.
func refAppendTicketBlock(bm *baseModel, qi, z int, blk *p1Block, alpha float64, coverSeen []map[string]bool) {
	for _, cv := range blk.covers {
		if coverSeen[cv.f][cv.key] {
			continue
		}
		coverSeen[cv.f][cv.key] = true
		bm.m.AddConstr(cv.expr, lp.GE, 0, fmt.Sprintf("p1cover_f%d_q%d_z%d", cv.f, qi, z))
	}
	if len(blk.load) > 0 {
		u := bm.m.AddVar(0, alpha*blk.totalR, 0, "")
		row := append(append(lp.Expr(nil), blk.load...), lp.Term{Var: u, Coef: -1})
		bm.m.AddConstr(row, lp.LE, blk.totalR, fmt.Sprintf("p1slack_q%d_z%d", qi, z))
	}
}

// refSetCanonicalObjective is setCanonicalObjective on reference loads.
func refSetCanonicalObjective(bm *baseModel, refLoad [][]lp.Expr, primalObj float64) {
	weight := make([]float64, bm.m.NumVars())
	for _, loads := range refLoad {
		for _, load := range loads {
			for _, t := range load {
				weight[t.Var] += t.Coef
			}
		}
	}
	var row lp.Expr
	for _, b := range bm.b {
		row = row.Plus(1, b)
	}
	bm.m.AddConstr(row, lp.GE, primalObj, "p1lock")
	for _, b := range bm.b {
		bm.m.SetObj(b, 0)
	}
	for j, w := range weight {
		if w != 0 {
			bm.m.SetObj(lp.Var(j), -w)
		}
	}
}

func refBuildRefLoads(n *Network, scs []RestorableScenario, bm *baseModel) [][]lp.Expr {
	refLoad := make([][]lp.Expr, len(scs))
	for qi := range scs {
		refLoad[qi] = make([]lp.Expr, len(scs[qi].FailedLinks))
		for i, link := range scs[qi].FailedLinks {
			var load lp.Expr
			for f := range n.Flows {
				for ti, t := range n.Tunnels[f] {
					for _, le := range t.Links {
						if le == link {
							load = load.Plus(1, bm.a[f][ti])
							break
						}
					}
				}
			}
			refLoad[qi][i] = load
		}
	}
	return refLoad
}

func refBuildTicketBlock(n *Network, q *RestorableScenario, z int, bm *baseModel) p1Block {
	failed := failedSet(n, q.FailedLinks)
	restored := func(link int) float64 { return q.TicketGbps(z, link) }
	restorable := make([][]int, len(n.Flows))
	for f := range n.Flows {
		restorable[f] = restorableTunnels(n, f, failed, restored)
	}

	var blk p1Block
	for f := range n.Flows {
		res := residualTunnels(n, f, failed)
		rst := restorable[f]
		if len(res)+len(rst) == len(n.Tunnels[f]) || len(res)+len(rst) == 0 {
			continue
		}
		var e lp.Expr
		for _, ti := range res {
			e = e.Plus(1, bm.a[f][ti])
		}
		for _, ti := range rst {
			e = e.Plus(1, bm.a[f][ti])
		}
		e = e.Plus(-1, bm.b[f])
		blk.covers = append(blk.covers, p1Cover{f: f, key: string(coverKey(nil, len(n.Tunnels[f]), res, rst)), expr: e})
	}

	for _, link := range q.FailedLinks {
		r := restored(link)
		blk.totalR += r
		var load lp.Expr
		for f := range n.Flows {
			for _, ti := range restorable[f] {
				for _, le := range n.Tunnels[f][ti].Links {
					if le == link {
						load = load.Plus(1, bm.a[f][ti])
						break
					}
				}
			}
		}
		blk.load = append(blk.load, load...)
	}
	return blk
}

// refRow is one scenario row of the full Table 3 model: a (10) cover row,
// or a (11) capacity row with the (link, scenario) it bounds.
type refRow struct {
	expr  lp.Expr
	sense lp.Sense
	rhs   float64
	name  string
	cap   *CapRow
}

// refPhase2Rows is every scenario row of the full Table 3 model for the
// given winners, in the order the model holds them: one (10) row per
// (scenario, flow that keeps a residual or restorable tunnel but not all)
// and one (11) row per (scenario, failed link some restorable tunnel
// crosses), over bm's variables.
func refPhase2Rows(n *Network, scs []RestorableScenario, winners []int, bm *baseModel) []refRow {
	var rows []refRow
	for qi := range scs {
		q := &scs[qi]
		z := winners[qi]
		failed := failedSet(n, q.FailedLinks)
		restored := func(link int) float64 { return q.TicketGbps(z, link) }

		for f := range n.Flows {
			res := residualTunnels(n, f, failed)
			rst := restorableTunnels(n, f, failed, restored)
			if len(res)+len(rst) == len(n.Tunnels[f]) || len(res)+len(rst) == 0 {
				continue
			}
			var e lp.Expr
			for _, ti := range res {
				e = e.Plus(1, bm.a[f][ti])
			}
			for _, ti := range rst {
				e = e.Plus(1, bm.a[f][ti])
			}
			e = e.Plus(-1, bm.b[f])
			rows = append(rows, refRow{expr: e, sense: lp.GE, name: fmt.Sprintf("p2cover_f%d_q%d", f, qi)})
		}
		for _, link := range q.FailedLinks {
			var load lp.Expr
			for f := range n.Flows {
				for _, ti := range restorableTunnels(n, f, failed, restored) {
					for _, le := range n.Tunnels[f][ti].Links {
						if le == link {
							load = load.Plus(1, bm.a[f][ti])
							break
						}
					}
				}
			}
			if len(load) > 0 {
				rows = append(rows, refRow{
					expr: load, sense: lp.LE, rhs: restored(link),
					name: fmt.Sprintf("p2cap_e%d_q%d", link, qi), cap: &CapRow{Link: link, Scenario: qi},
				})
			}
		}
	}
	return rows
}

// refQuotient files rows by their key (rowKey): keptAt[i] is the index
// among the distinct rows of row i's, and setter[i] whether row i is the
// one that sets its key's bound, the first row written at the least one.
func refQuotient(rows []refRow) (keptAt []int, setter []bool) {
	byKey := map[string]int{}
	var least []int // per distinct row, the row that sets its bound
	keptAt, setter = make([]int, len(rows)), make([]bool, len(rows))
	for i, r := range rows {
		k, ok := byKey[rowKey(r.expr, r.sense)]
		if !ok {
			k = len(least)
			byKey[rowKey(r.expr, r.sense)] = k
			least = append(least, i)
		} else if r.rhs < rows[least[k]].rhs {
			least[k] = i
		}
		keptAt[i] = k
	}
	for _, i := range least {
		setter[i] = true
	}
	return keptAt, setter
}

// refPhase2Model is the Table 3 model for the given winners, built to
// capture: its rows named, its capacity rows recorded. It is the full
// model (refPhase2Rows), or with quotient the model Phase II solves: each
// distinct row once (refQuotient), where it was first written, at the
// least bound written for it, its CapRow naming the (link, scenario) that
// first wrote that bound.
func refPhase2Model(n *Network, scs []RestorableScenario, winners []int, quotient bool) *baseModel {
	bm := baseModelLike("arrow-phase2", n, nil, true)
	rows := refPhase2Rows(n, scs, winners, bm)
	keptAt, setter := refQuotient(rows)
	bound := map[int]refRow{} // per distinct row, the row that sets its bound
	for i, r := range rows {
		if setter[i] {
			bound[keptAt[i]] = r
		}
	}
	kept := 0
	for i, r := range rows {
		if quotient {
			if keptAt[i] < kept {
				continue
			}
			kept++
			r.rhs, r.cap = bound[keptAt[i]].rhs, bound[keptAt[i]].cap
		}
		c := bm.m.AddConstr(r.expr, r.sense, r.rhs, r.name)
		if r.cap != nil {
			bm.capRows = append(bm.capRows, CapRow{Link: r.cap.Link, Scenario: r.cap.Scenario, Constr: c})
		}
	}
	return bm
}

// rowKey is a row's sense and its terms sorted by variable, duplicates
// summed.
func rowKey(e lp.Expr, sense lp.Sense) string {
	coef := map[lp.Var]float64{}
	for _, t := range e {
		coef[t.Var] += t.Coef
	}
	var vars []lp.Var
	for v := range coef {
		vars = append(vars, v)
	}
	slices.Sort(vars)
	key := fmt.Sprint(sense)
	for _, v := range vars {
		key += fmt.Sprintf(" %d:%g", v, coef[v])
	}
	return key
}

// refPhase1Master rebuilds a solved Phase I master from the reference
// builders by replaying the order its rows went in: walking got's rows
// past the base model, the first row of a ticket (q, z) splices that
// ticket's reference block in, and the lock row switches the reference
// onto the canonical objective at the same primary optimum. A block the
// replay never meets added no row to got; that the reference agrees is the
// block-by-block comparison's job.
func refPhase1Master(n *Network, scs []RestorableScenario, alpha float64, got *lp.Model) (*lp.Model, error) {
	bm := newBaseModel("arrow-phase1", n)
	refLoad := refBuildRefLoads(n, scs, bm)
	coverSeen := make([]map[string]bool, len(n.Flows))
	for f := range coverSeen {
		coverSeen[f] = map[string]bool{}
	}
	type ticketID struct{ q, z int }
	done := map[ticketID]bool{}
	for c := bm.m.NumConstrs(); c < got.NumConstrs(); c++ {
		name := got.ConstrName(lp.Constr(c))
		if name == "p1lock" {
			refSetCanonicalObjective(bm, refLoad, got.RHS(lp.Constr(c)))
			continue
		}
		var id ticketID
		var f int
		if _, err := fmt.Sscanf(name, "p1cover_f%d_q%d_z%d", &f, &id.q, &id.z); err != nil {
			if _, err := fmt.Sscanf(name, "p1slack_q%d_z%d", &id.q, &id.z); err != nil {
				return nil, fmt.Errorf("row %d %q is no Phase I row", c, name)
			}
		}
		if !done[id] {
			done[id] = true
			blk := refBuildTicketBlock(n, &scs[id.q], id.z, bm)
			refAppendTicketBlock(bm, id.q, id.z, &blk, alpha, coverSeen)
		}
	}
	return bm.m, nil
}

// sameModel reports the first difference between two models: the
// variables, the objective and every row's name, sense, right-hand side
// and terms in order.
func sameModel(got, want *lp.Model) error {
	if reflect.DeepEqual(got, want) {
		return nil
	}
	if got.NumVars() != want.NumVars() || got.NumConstrs() != want.NumConstrs() {
		return fmt.Errorf("%d vars x %d rows, reference %d x %d", got.NumVars(), got.NumConstrs(), want.NumVars(), want.NumConstrs())
	}
	// fmt prints a row's unexported fields, terms in order.
	row := func(m *lp.Model, c int) string {
		return fmt.Sprintf("%+v", reflect.ValueOf(m).Elem().FieldByName("rows").Index(c))
	}
	for c := 0; c < got.NumConstrs(); c++ {
		if g, w := row(got, c), row(want, c); g != w {
			return fmt.Errorf("row %d is %s, reference %s", c, g, w)
		}
	}
	return fmt.Errorf("same rows, but the variables or the objective differ")
}

// viewRefLoads is every scenario's reference loads as v reads them, by
// failed link: nil where no tunnel crosses the link.
func viewRefLoads(v *splitView, bm *baseModel) [][]lp.Expr {
	out := make([][]lp.Expr, len(v.t.scs))
	for qi := range v.t.scs {
		out[qi] = make([]lp.Expr, len(v.t.scs[qi].FailedLinks))
		for i := range out[qi] {
			out[qi][i] = appendLoad(nil, v.load(qi, -1, i))
		}
	}
	return out
}

// viewBlock is ticket (qi, z)'s Phase I block as v reads it, in the
// reference's shape: the cover rows appendTicketBlock would add to an empty
// master, each keyed by its tunnel sets, the load and totalR.
func viewBlock(v *splitView, bm *baseModel, qi, z int) p1Block {
	s := int(v.t.support[qi][z])
	blk := p1Block{totalR: v.t.totalR[qi][z]}
	for j := range v.touched[qi] {
		ft := &v.touched[qi][j]
		if _, sp := ft.split(s); sp.cover {
			key := coverKey(nil, len(bm.a[ft.f]), maskIndices(sp.res), maskIndices(sp.rst))
			blk.covers = append(blk.covers, p1Cover{f: ft.f, key: string(key), expr: ft.coverRow(nil, sp)})
		}
	}
	for i := range v.t.scs[qi].FailedLinks {
		blk.load = appendLoad(blk.load, v.load(qi, s, i))
	}
	return blk
}

// maskIndices lists m's tunnels, ascending.
func maskIndices(m []uint64) []int {
	var out []int
	for ti := range 64 * len(m) {
		if m[ti>>6]&(1<<(ti&63)) != 0 {
			out = append(out, ti)
		}
	}
	return out
}

// viewMatchesReference holds what v reads for n's flows to the full-scan
// reference: the reference loads, every ticket's block and the Phase II
// model of the given winners (nil: every ticket 0).
func viewMatchesReference(v *splitView, n *Network, winners []int) error {
	scs := v.t.scs
	bm := newBaseModel("arrow-phase1", n)
	defer modelPool.Put(bm.m)
	if got, want := viewRefLoads(v, bm), refBuildRefLoads(n, scs, bm); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("reference loads: %v, full scan %v", got, want)
	}
	for qi := range scs {
		for z := range scs[qi].Tickets {
			got, want := viewBlock(v, bm, qi, z), refBuildTicketBlock(n, &scs[qi], z, bm)
			if !reflect.DeepEqual(got, want) {
				return fmt.Errorf("block of scenario %d ticket %d: %+v, full scan %+v", qi, z, got, want)
			}
		}
	}
	if winners == nil {
		winners = make([]int, len(scs))
	}
	ref := refPhase2Model(n, scs, winners, true)
	// Phase II on v, and on the view ArrowPhase2 builds for the winners
	// alone.
	only := callView(n, scs, winners)
	defer only.release()
	for _, w := range []*splitView{v, only} {
		al, err := arrowPhase2(n, w, winners, &ArrowOptions{CaptureSensitivity: true})
		if err != nil {
			return fmt.Errorf("phase II %v: %w", winners, err)
		}
		if err := sameModel(al.Sens.Model, ref.m); err != nil {
			return fmt.Errorf("phase II model for winners %v: %w", winners, err)
		}
		if !reflect.DeepEqual(al.Sens.CapRows, ref.capRows) {
			return fmt.Errorf("phase II capacity rows for winners %v: %v, full scan %v", winners, al.Sens.CapRows, ref.capRows)
		}
	}
	return nil
}

// buildersMatchReference compares everything the table-read builders
// produce on one instance with the full-scan reference: the reference
// loads, every ticket's block, the solved Phase I masters (full enumeration
// and converged column generation) and the two Phase II models Arrow solves
// (Phase I's winners and the all-zero fallback).
func buildersMatchReference(n *Network, scs []RestorableScenario) error {
	if err := viewMatchesReference(callView(n, scs, nil), n, nil); err != nil {
		return err
	}
	var winners []int
	for _, mode := range []struct {
		name string
		scs  []RestorableScenario
	}{{"full", allSeeded(scs)}, {"colgen", scs}} {
		pm, err := arrowPhase1Colgen(n, callView(n, mode.scs, nil), nil, true)
		if err != nil {
			return fmt.Errorf("phase I %s: %w", mode.name, err)
		}
		want, err := refPhase1Master(n, scs, (*ArrowOptions)(nil).alpha(), pm.bm.m)
		if err != nil {
			return fmt.Errorf("phase I %s master: %w", mode.name, err)
		}
		if err := sameModel(pm.bm.m, want); err != nil {
			return fmt.Errorf("phase I %s master: %w", mode.name, err)
		}
		winners = pickWinners(callView(n, scs, nil), pm.sol.X)
	}
	for _, w := range [][]int{winners, make([]int, len(scs))} {
		al, err := ArrowPhase2(n, scs, w, &ArrowOptions{CaptureSensitivity: true})
		if err != nil {
			return fmt.Errorf("phase II %v: %w", w, err)
		}
		ref := refPhase2Model(n, scs, w, true)
		if err := sameModel(al.Sens.Model, ref.m); err != nil {
			return fmt.Errorf("phase II model for winners %v: %w", w, err)
		}
		if !reflect.DeepEqual(al.Sens.CapRows, ref.capRows) {
			return fmt.Errorf("phase II capacity rows for winners %v: %v, full scan %v", w, al.Sens.CapRows, ref.capRows)
		}
	}
	return nil
}
