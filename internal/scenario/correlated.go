package scenario

import (
	"container/heap"
	"fmt"
	"sort"

	"github.com/arrow-te/arrow/internal/obs"
)

// Group is one shared-risk link group (SRLG): a named set of fibers that
// share a physical conduit or WDM shelf and therefore fail TOGETHER with
// probability Prob, independently of the per-fiber marginals. See the
// package comment for the full correlated-failure probability model.
type Group struct {
	Name   string
	Fibers []int
	// Prob is the probability that the shared conduit is cut in an epoch,
	// taking every member fiber down at once.
	Prob float64
}

// EnumOptions tunes EnumerateCorrelated.
type EnumOptions struct {
	// K is the maximum number of simultaneously failed ELEMENTS (individual
	// fibers and SRLGs both count as one element; an SRLG element expands to
	// all its member fibers in the cut set). K <= 0 enumerates nothing: the
	// set holds only the healthy mass. K above the element count is clamped.
	K int
	// Cutoff drops scenarios with probability < Cutoff, exactly like
	// Enumerate's cutoff. Because enumeration is best-first and element
	// probabilities are < 0.5 (see the package comment), the first candidate
	// below the cutoff certifies that every unexplored candidate is below it
	// too.
	Cutoff float64
	// TargetMass, when > 0, stops enumeration once the covered probability
	// mass (healthy state plus enumerated scenarios) reaches it — e.g. 0.9999
	// keeps exactly the most probable scenarios explaining 99.99% of the
	// distribution, regardless of how many that takes.
	TargetMass float64
	// MaxEnumerated, when > 0, caps the number of DISTINCT cut sets emitted.
	// Element subsets that merge into an already-emitted cut set (SRLG
	// overlaps) refine its probability without counting against the cap.
	MaxEnumerated int
	// Recorder receives the scenario.enumerated / scenario.pruned counters.
	// Nil costs nothing and never changes the result.
	Recorder obs.Recorder
}

// candidate is one frontier state of the best-first search: a subset of the
// odds-sorted element order, represented by its positions (increasing; the
// last position drives expansion) plus its canonical element-index tuple and
// exact probability.
type candidate struct {
	positions []int // indices into the odds-descending element order
	elems     []int // the same elements as original indices, ascending
	prob      float64
}

// candHeap orders candidates by descending probability; exact ties break
// toward smaller cardinality, then lexicographically smaller element tuples
// — the same order Enumerate's stable sort leaves its insertion order in,
// which is what makes the k=2, no-group case byte-identical to Enumerate.
type candHeap []*candidate

func (h candHeap) Len() int { return len(h) }
func (h candHeap) Less(a, b int) bool {
	if h[a].prob != h[b].prob {
		return h[a].prob > h[b].prob
	}
	if len(h[a].elems) != len(h[b].elems) {
		return len(h[a].elems) < len(h[b].elems)
	}
	for i := range h[a].elems {
		if h[a].elems[i] != h[b].elems[i] {
			return h[a].elems[i] < h[b].elems[i]
		}
	}
	return false
}
func (h candHeap) Swap(a, b int)       { h[a], h[b] = h[b], h[a] }
func (h *candHeap) Push(x interface{}) { *h = append(*h, x.(*candidate)) }
func (h *candHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// EnumerateCorrelated enumerates k-simultaneous-failure scenarios over the
// correlated element model (per-fiber marginals plus SRLGs), best-first by
// descending probability, without ever materialising the 2^n failure
// lattice. With no groups, K=2, TargetMass=0 and MaxEnumerated=0 the result
// is byte-identical to Enumerate(failProb, cutoff) — same scenarios, same
// order, same floating-point probabilities and residual.
//
// The search walks the subset lattice of the odds-sorted element order with
// the classic two-child scheme (extend the subset with the next element, or
// replace its last element with the next): every nonempty subset of size
// <= K is reached exactly once, and because element odds are < 1 both
// children have probability <= their parent, so a max-heap frontier pops
// candidates in globally nonincreasing probability order. Candidates below
// the cutoff — and their entire unexplored subtrees — are pruned, counted
// in scenario.pruned; emitted cut sets count in scenario.enumerated.
//
// Element subsets that map to the same cut set (an SRLG expansion overlaps
// another element's fibers) MERGE: the probability mass is added to the
// first-emitted (most probable) entry for that cut set, so no mass is
// double-counted and downstream consumers see each distinct cut once.
func EnumerateCorrelated(failProb []float64, groups []Group, opt EnumOptions) *Set {
	nf := len(failProb)
	ne := nf + len(groups)
	probOf := func(e int) float64 {
		if e < nf {
			return failProb[e]
		}
		return groups[e-nf].Prob
	}

	healthy := 1.0
	for e := 0; e < ne; e++ {
		healthy *= 1 - probOf(e)
	}
	s := &Set{FailProb: append([]float64(nil), failProb...), HealthyProb: healthy}

	k := opt.K
	if k > ne {
		k = ne
	}
	if k <= 0 || ne == 0 {
		s.ResidualProb = 1 - healthy
		if s.ResidualProb < 0 {
			s.ResidualProb = 0
		}
		return s
	}

	odds := make([]float64, ne)
	for e := range odds {
		if p := probOf(e); p >= 1 {
			odds[e] = 1e18
		} else {
			odds[e] = p / (1 - p)
		}
	}
	// Element order for the lattice walk: descending odds, index-ascending
	// on ties, so the most probable subsets are discovered first.
	order := make([]int, ne)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return odds[order[a]] > odds[order[b]] })

	// canonical fills in a candidate's ascending element tuple and its exact
	// probability, multiplied in ascending element-index order — the same
	// association order Enumerate uses, which keeps probabilities bit-equal.
	canonical := func(c *candidate) {
		c.elems = make([]int, len(c.positions))
		for i, p := range c.positions {
			c.elems[i] = order[p]
		}
		sort.Ints(c.elems)
		c.prob = healthy
		for _, e := range c.elems {
			c.prob *= odds[e]
		}
	}

	var (
		h          candHeap
		pruned     int64
		covered    = healthy
		byCut      = map[string]int{}
		cutScratch = make([]int, 0, 8)
	)
	push := func(c *candidate) {
		canonical(c)
		if c.prob < opt.Cutoff {
			pruned++ // this candidate and its whole subtree are below cutoff
			return
		}
		heap.Push(&h, c)
	}
	push(&candidate{positions: []int{0}})

	for h.Len() > 0 {
		c := heap.Pop(&h).(*candidate)
		if c.prob < opt.Cutoff {
			// Best-first: everything still on the frontier is no more
			// probable than c, so the enumeration is complete.
			pruned += int64(1 + h.Len())
			break
		}
		// Expand the cut set: union of member fibers of every element.
		cutScratch = cutScratch[:0]
		for _, e := range c.elems {
			if e < nf {
				cutScratch = append(cutScratch, e)
			} else {
				cutScratch = append(cutScratch, groups[e-nf].Fibers...)
			}
		}
		sort.Ints(cutScratch)
		cut := cutScratch[:0:0]
		for i, f := range cutScratch {
			if i == 0 || f != cutScratch[i-1] {
				cut = append(cut, f)
			}
		}
		key := fmt.Sprint(cut)
		if idx, ok := byCut[key]; ok {
			s.Scenarios[idx].Prob += c.prob // merge overlapping expansions
		} else {
			if opt.MaxEnumerated > 0 && len(s.Scenarios) >= opt.MaxEnumerated {
				pruned += int64(1 + h.Len())
				break
			}
			byCut[key] = len(s.Scenarios)
			s.Scenarios = append(s.Scenarios, Scenario{Cut: cut, Prob: c.prob})
		}
		covered += c.prob
		if opt.TargetMass > 0 && covered >= opt.TargetMass {
			pruned += int64(h.Len())
			break
		}
		// Children: extend with the next element in odds order, and replace
		// the last element with it. Each subset is generated exactly once.
		last := c.positions[len(c.positions)-1]
		if last+1 < ne {
			if len(c.positions) < k {
				ext := make([]int, len(c.positions)+1)
				copy(ext, c.positions)
				ext[len(c.positions)] = last + 1
				push(&candidate{positions: ext})
			}
			sib := make([]int, len(c.positions))
			copy(sib, c.positions)
			sib[len(sib)-1] = last + 1
			push(&candidate{positions: sib})
		}
	}

	s.ResidualProb = 1 - covered
	if s.ResidualProb < 0 {
		s.ResidualProb = 0
	}
	obs.Add(opt.Recorder, "scenario.enumerated", int64(len(s.Scenarios)))
	obs.Add(opt.Recorder, "scenario.pruned", pruned)
	return s
}
