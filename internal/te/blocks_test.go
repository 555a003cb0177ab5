package te

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// ticketBlocksMatchPerTicket builds every scenario's blocks as Phase I does,
// one per restoration support, and holds each ticket's to the block
// ticketBlock builds for that ticket alone, bit for bit: the covers with
// their keys, the load and totalR. A ticket whose support an earlier ticket
// of its scenario lit must hold that ticket's covers and load, not a copy.
// It returns the tickets and the blocks built for them.
func ticketBlocksMatchPerTicket(n *Network, scs []RestorableScenario) (tickets, built int, err error) {
	bm := newBaseModel("arrow-phase1", n)
	sc := new(splitScratch)
	for qi := range scs {
		q := &scs[qi]
		blocks := sc.scenarioBlocks(n, q, bm)
		if len(blocks) != len(q.Tickets) {
			return 0, 0, fmt.Errorf("scenario %d: %d blocks for %d tickets", qi, len(blocks), len(q.Tickets))
		}
		var supports []string
		var firstOf []int
		for z := range q.Tickets {
			got, want := blocks[z], buildTicketBlock(n, q, z, bm)
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
				supports, firstOf = append(supports, string(lit)), append(firstOf, z)
				continue
			}
			first := blocks[firstOf[s]]
			if len(got.covers) > 0 && &got.covers[0] != &first.covers[0] || len(got.load) > 0 && &got.load[0] != &first.load[0] {
				return 0, 0, fmt.Errorf("scenario %d ticket %d: a block of its own, though ticket %d lights the same links", qi, z, firstOf[s])
			}
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
