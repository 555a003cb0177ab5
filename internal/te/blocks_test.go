package te

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/arrow-te/arrow/internal/ticket"
)

// ticketBlocksMatchPerTicket reads every ticket's block off a split table
// as Phase I does, one per restoration support, and holds it to the block
// the full-scan reference builds for that ticket alone, bit for bit: the
// covers with their keys, the load and totalR. Tickets that light the same
// failed links must share one support, and tickets that do not must not.
// It returns the tickets and the supports built for them.
func ticketBlocksMatchPerTicket(n *Network, scs []RestorableScenario) (tickets, built int, err error) {
	bm := newBaseModel("arrow-phase1", n)
	v := callView(n, scs, nil)
	for qi := range scs {
		q := &scs[qi]
		var supports []string
		for z := range q.Tickets {
			got, want := viewBlock(v, bm, qi, z), refBuildTicketBlock(n, q, z, bm)
			if !reflect.DeepEqual(got.covers, want.covers) || !reflect.DeepEqual(got.load, want.load) ||
				math.Float64bits(got.totalR) != math.Float64bits(want.totalR) {
				return 0, 0, fmt.Errorf("scenario %d ticket %d: shared block %+v, its own %+v", qi, z, got, want)
			}
			lit := make([]byte, len(q.FailedLinks))
			for i, link := range q.FailedLinks {
				if !(q.TicketGbps(z, link) <= 0) {
					lit[i] = 1
				}
			}
			s := slices.Index(supports, string(lit))
			if s < 0 {
				s, supports = len(supports), append(supports, string(lit))
			}
			if got := int(v.t.support[qi][z]); got != s {
				return 0, 0, fmt.Errorf("scenario %d ticket %d: support %d, want %d (the %d-th set of lit links)", qi, z, got, s, s)
			}
		}
		if len(v.t.reps[qi]) != len(supports) {
			return 0, 0, fmt.Errorf("scenario %d: %d supports built for %d sets of lit links", qi, len(v.t.reps[qi]), len(supports))
		}
		tickets += len(q.Tickets)
		built += len(supports)
	}
	return tickets, built, nil
}

// FuzzTicketBlocks draws random lit patterns over the failed links of a
// random instance: each ticket's restored capacity on each link is picked by
// the fuzzer from lit values and from the three that read as dark or lit by
// accident (0, a negative and NaN, which restorable reads as lit).
func FuzzTicketBlocks(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3})
	f.Add(int64(5), []byte{3, 3, 0, 0, 2, 1, 1, 2, 4})
	f.Add(int64(11), []byte{4})
	f.Add(int64(23), []byte{})
	gbps := [...]float64{0, -100, math.NaN(), 100, 300}
	f.Fuzz(func(t *testing.T, seed int64, pattern []byte) {
		n, scs := randomArrowInstance(rand.New(rand.NewSource(seed)))
		k := 0
		for qi := range scs {
			for _, tk := range scs[qi].Tickets {
				for i := range tk.Gbps {
					if len(pattern) > 0 {
						tk.Gbps[i] = gbps[int(pattern[k%len(pattern)])%len(gbps)]
						k++
					}
				}
			}
		}
		if _, _, err := ticketBlocksMatchPerTicket(n, scs); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzResidentBlocks holds the rows a pooled split table yields to the
// full-scan reference built for each solve's flows on their own. The
// solves route random lists of a random instance's tunnel sets, subsets in
// any order with repeats, one after another, so each fills the table the
// previous one left, over arrays of another shape. Per solve, the reference
// loads, every ticket's Phase I block and the Phase II model of random
// winners, off the full view and off the winners-only one, must equal the
// reference term for term. The Phase II reference keeps one row per key of
// sense and terms sorted by variable (refPhase2Model), so two Phase II rows
// share a key, and one of them is dropped, exactly when their sense and
// sorted terms are equal.
func FuzzResidentBlocks(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3})
	f.Add(int64(7), []byte{3, 3, 3, 0, 9, 1})
	f.Add(int64(19), []byte{5, 4, 3, 2, 1, 0, 0, 1})
	f.Add(int64(42), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, picks []byte) {
		rng := rand.New(rand.NewSource(seed))
		base, scs := randomArrowInstance(rng)
		for solve := 0; solve < 4; solve++ {
			flows := len(picks)
			if flows == 0 {
				flows = 1 + rng.Intn(2*len(base.Flows))
			}
			sets := make([]int, flows)
			n := &Network{LinkCap: base.LinkCap, Flows: make([]Flow, flows), Tunnels: make([][]Tunnel, flows)}
			for i := range sets {
				if len(picks) > 0 {
					sets[i] = (int(picks[i]) + solve*rng.Intn(len(base.Flows))) % len(base.Flows)
				} else {
					sets[i] = rng.Intn(len(base.Flows))
				}
				n.Flows[i] = Flow{Src: sets[i], Dst: sets[i] + 1, Demand: 1 + 100*rng.Float64()}
				n.Tunnels[i] = base.Tunnels[sets[i]]
			}
			winners := make([]int, len(scs))
			for qi := range winners {
				winners[qi] = rng.Intn(len(scs[qi].Tickets))
			}
			v := callView(n, scs, nil)
			err := viewMatchesReference(v, n, winners)
			v.release()
			if err != nil {
				t.Fatalf("solve %d over sets %v: %v", solve, sets, err)
			}
		}
	})
}

// TestSplitTableWideTunnelSets holds a split table whose tunnel masks span
// three words (a flow of 130 tunnels) to the full-scan reference, Phase I
// masters and Phase II models included.
func TestSplitTableWideTunnelSets(t *testing.T) {
	n := &Network{
		LinkCap: []float64{100, 100, 100, 100},
		Flows:   []Flow{{Src: 0, Dst: 1, Demand: 150}, {Src: 1, Dst: 2, Demand: 80}},
		Tunnels: [][]Tunnel{nil, {{Links: []int{2, 3}}, {Links: []int{1}}}},
	}
	for ti := range 130 {
		n.Tunnels[0] = append(n.Tunnels[0], Tunnel{Links: []int{ti % 4, (ti / 4) % 4}})
	}
	tk := func(g0, g2 float64) ticket.Ticket { return ticket.Ticket{Waves: []int{1, 1}, Gbps: []float64{g0, g2}} }
	scs := []RestorableScenario{
		{FailureScenario: FailureScenario{Prob: 0.01, FailedLinks: []int{0, 2}}, TicketLinks: []int{0, 2}, Tickets: []ticket.Ticket{tk(50, 0), tk(0, 50), tk(40, 40), tk(60, 0)}},
		{FailureScenario: FailureScenario{Prob: 0.02, FailedLinks: []int{3}}, TicketLinks: []int{3}, Tickets: []ticket.Ticket{{Waves: []int{1}, Gbps: []float64{30}}}},
	}
	if w := callView(n, scs, nil).touched[0][0].set.w; w != 3 {
		t.Fatalf("flow 0's masks are %d words, want 3", w)
	}
	if err := buildersMatchReference(n, scs); err != nil {
		t.Fatal(err)
	}
}
