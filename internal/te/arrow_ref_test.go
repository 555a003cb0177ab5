package te

import (
	"fmt"
	"reflect"

	"github.com/arrow-te/arrow/internal/lp"
)

// This file keeps the ARROW model builders as they were before the
// tunnel-link incidence index: every row found by scanning flows x tunnels
// x links, every flow classified whether a failed link touches it or not.
// They are the oracle the indexed builders (buildRefLoads, buildTicketBlock
// and ArrowPhase2's rows) are compared against, row by row.

func refBuildRefLoads(n *Network, scs []RestorableScenario, bm *baseModel) map[loadKey]lp.Expr {
	refLoad := map[loadKey]lp.Expr{}
	for qi := range scs {
		for _, link := range scs[qi].FailedLinks {
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
			refLoad[loadKey{qi, link}] = load
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

// refPhase2Model is the Table 3 model for the given winners.
func refPhase2Model(n *Network, scs []RestorableScenario, winners []int) *baseModel {
	bm := newBaseModel("arrow-phase2", n)
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
			bm.m.AddConstr(e, lp.GE, 0, fmt.Sprintf("p2cover_f%d_q%d", f, qi))
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
				c := bm.m.AddConstr(load, lp.LE, restored(link), fmt.Sprintf("p2cap_e%d_q%d", link, qi))
				bm.capRows = append(bm.capRows, CapRow{Link: link, Scenario: qi, Constr: c})
			}
		}
	}
	return bm
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
	coverSeen := newCoverSeen(n)
	type ticketID struct{ q, z int }
	done := map[ticketID]bool{}
	for c := bm.m.NumConstrs(); c < got.NumConstrs(); c++ {
		name := got.ConstrName(lp.Constr(c))
		if name == "p1lock" {
			setCanonicalObjective(bm, scs, refLoad, got.RHS(lp.Constr(c)))
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
			appendTicketBlock(bm, nil, id.q, id.z, &blk, alpha, coverSeen)
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

// buildersMatchReference compares everything the indexed builders produce on
// one instance with the full-scan reference: the reference loads, every
// ticket's block, the solved Phase I masters (full enumeration and
// converged column generation) and the two Phase II models Arrow solves
// (Phase I's winners and the all-zero fallback).
func buildersMatchReference(n *Network, scs []RestorableScenario) error {
	bm := newBaseModel("arrow-phase1", n)
	if got, want := buildRefLoads(scs, bm), refBuildRefLoads(n, scs, bm); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("reference loads: %v, full scan %v", got, want)
	}
	for qi := range scs {
		for z := range scs[qi].Tickets {
			got, want := buildTicketBlock(n, &scs[qi], z, bm), refBuildTicketBlock(n, &scs[qi], z, bm)
			if !reflect.DeepEqual(got, want) {
				return fmt.Errorf("block of scenario %d ticket %d: %+v, full scan %+v", qi, z, got, want)
			}
		}
	}
	var winners []int
	for _, mode := range []struct {
		name string
		scs  []RestorableScenario
	}{{"full", allSeeded(scs)}, {"colgen", scs}} {
		pm, err := arrowPhase1Colgen(n, mode.scs, nil)
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
		winners = pickWinners(scs, pm.refLoad, pm.sol.X)
	}
	for _, w := range [][]int{winners, make([]int, len(scs))} {
		al, err := ArrowPhase2(n, scs, w, &ArrowOptions{CaptureSensitivity: true})
		if err != nil {
			return fmt.Errorf("phase II %v: %w", w, err)
		}
		ref := refPhase2Model(n, scs, w)
		if err := sameModel(al.Sens.Model, ref.m); err != nil {
			return fmt.Errorf("phase II model for winners %v: %w", w, err)
		}
		if !reflect.DeepEqual(al.Sens.CapRows, ref.capRows) {
			return fmt.Errorf("phase II capacity rows for winners %v: %v, full scan %v", w, al.Sens.CapRows, ref.capRows)
		}
	}
	return nil
}
