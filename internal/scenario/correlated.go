package scenario

import (
	"container/heap"
	"slices"
	"sort"

	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/pool"
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
	// Cutoff drops scenarios with probability < Cutoff. Because element
	// probabilities are < 0.5 (see the package comment), no subset is more
	// probable than the subset it extends, so a candidate bounded below the
	// cutoff is pruned with its whole unexplored subtree.
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

// candidate is one state of the best-first search: a subset of the
// odds-sorted element order, represented by its positions (increasing; the
// last position drives expansion) plus its canonical element-index tuple,
// its exact probability and its search key.
type candidate struct {
	positions []int // indices into the odds-descending element order
	elems     []int // the same elements as original indices, ascending
	// prob multiplies healthy by the odds in ascending element order, the
	// order a plain singles+pairs loop uses; key multiplies the same factors
	// in position order, which makes it exactly nonincreasing along the
	// lattice walk (every child multiplies its parent's prefix by a factor
	// no larger, and rounding is monotone). prob is not: it can exceed its
	// parent's by a rounding, most easily among tied odds.
	prob, key float64
	// buf backs positions and elems: positions from its start, elems from
	// its middle. It holds two tuples of the enumeration's largest size, so
	// a candidate done with serves the next one as it is.
	buf []int
}

// candHeap is the emission order: descending probability, exact ties toward
// smaller cardinality, then lexicographically smaller element tuples — the
// order a stable sort by probability leaves singles-then-pairs in, which is
// what makes the k=2, no-group case list single and double cuts exactly as
// the tests' singles+pairs oracle does.
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

// searchHeap is the search frontier, by descending key.
type searchHeap struct{ candHeap }

func (h searchHeap) Less(a, b int) bool { return h.candHeap[a].key > h.candHeap[b].key }

// enumScratch is the working memory of one EnumerateCorrelated at a time:
// the search frontier, the candidates waiting to be emitted and those done
// with, and the cut sets emitted so far. It only grows, so an enumeration no
// larger than one it served before allocates nothing in it; the Set an
// enumeration returns shares none of its memory.
type enumScratch struct {
	search searchHeap
	ready  candHeap
	free   []*candidate
	// cuts lists the emitted cut sets in emission order, cut i's fibers being
	// fibers[cuts[i].lo:cuts[i].hi]. byCut maps a cut's hash to its index; a
	// cut whose hash is taken by another cut takes the next free value.
	cuts   []emitted
	fibers []int
	byCut  map[uint64]int
	cut    []int // the cut set at hand
}

// emitted is one emitted cut set: its fibers' span and its merged
// probability.
type emitted struct {
	lo, hi int
	prob   float64
}

// enumPool hands scratches from one enumeration to the next.
var enumPool pool.Free[enumScratch]

// reset empties the scratch for a new enumeration.
func (sc *enumScratch) reset() {
	sc.search.candHeap, sc.ready = sc.search.candHeap[:0], sc.ready[:0]
	sc.cuts, sc.fibers = sc.cuts[:0], sc.fibers[:0]
	if sc.byCut == nil {
		sc.byCut = map[uint64]int{}
	}
	clear(sc.byCut)
}

// find returns the index of the emitted cut set with exactly cut's fibers,
// or -1 and the key under which byCut is to record cut.
func (sc *enumScratch) find(cut []int) (idx int, key uint64) {
	key = 14695981039346656037 // FNV-1a over the fibers
	for _, f := range cut {
		key ^= uint64(f)
		key *= 1099511628211
	}
	for {
		idx, ok := sc.byCut[key]
		if !ok {
			return -1, key
		}
		if e := sc.cuts[idx]; slices.Equal(sc.fibers[e.lo:e.hi], cut) {
			return idx, key
		}
		key++
	}
}

// EnumerateCorrelated enumerates k-simultaneous-failure scenarios over the
// correlated element model (per-fiber marginals plus SRLGs), best-first by
// descending probability, without ever materialising the 2^n failure
// lattice. With no groups, K=2, TargetMass=0 and MaxEnumerated=0 the result
// is every single and double cut at or above the cutoff, most probable
// first, ties singles first and then by element tuple — byte-identical to
// the plain singles+pairs loop the tests keep as its oracle.
//
// The search walks the subset lattice of the odds-sorted element order with
// the classic two-child scheme (extend the subset with the next element, or
// replace its last element with the next): every nonempty subset of size
// <= K is reached exactly once, and because element odds are < 1 both
// children have a search key <= their parent's, so a max-heap frontier pops
// candidates in nonincreasing key order. A candidate's probability is its
// key up to a few roundings, so a popped candidate waits in a second heap,
// in emission order, until no candidate still unexplored could reach its
// probability; emission is then exactly in descending probability, with no
// float tie or rounding able to reorder it. Candidates whose key bounds
// them below the cutoff — and their entire unexplored subtrees — are
// pruned, as are explored candidates below it, counted in scenario.pruned;
// emitted cut sets count in scenario.enumerated.
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

	// ceil bounds the probability of any candidate whose key is at most key:
	// both are products of the same at most k+1 factors, each rounded at
	// most k times (a relative error of k·2^-53 apiece, plus an absolute
	// 2^-1074 per rounding should the product be subnormal).
	relSlack := float64(4 * float64(k+1) * 0x1p-53)
	absSlack := float64(2 * float64(k+1) * 0x1p-1074)
	ceil := func(key float64) float64 { return float64(key*(1+relSlack)) + absSlack }

	sc := enumPool.Get()
	defer enumPool.Put(sc)
	sc.reset()
	// get hands out a candidate of n elements, one done with when there is
	// one; put takes one back.
	get := func(n int) *candidate {
		var c *candidate
		if last := len(sc.free) - 1; last >= 0 {
			c, sc.free = sc.free[last], sc.free[:last]
		} else {
			c = new(candidate)
		}
		if len(c.buf) < 2*k {
			c.buf = make([]int, 2*k)
		}
		c.positions, c.elems = c.buf[:n], c.buf[k:k+n]
		return c
	}
	put := func(c *candidate) { sc.free = append(sc.free, c) }

	// canonical fills in a candidate's ascending element tuple, its
	// probability and its key.
	canonical := func(c *candidate) {
		c.key = healthy
		for i, p := range c.positions {
			c.elems[i] = order[p]
			c.key *= odds[order[p]]
		}
		slices.Sort(c.elems)
		c.prob = healthy
		for _, e := range c.elems {
			c.prob *= odds[e]
		}
	}

	var (
		pruned  int64
		covered = healthy
	)
	push := func(c *candidate) {
		canonical(c)
		if ceil(c.key) < opt.Cutoff {
			pruned++ // this candidate and its whole subtree are below cutoff
			put(c)
			return
		}
		heap.Push(&sc.search, c)
	}
	// emit records c's cut set, merging it into an emitted one with the same
	// fibers, and reports whether the enumeration goes on.
	emit := func(c *candidate) bool {
		defer put(c)
		// Expand the cut set: union of member fibers of every element.
		cut := sc.cut[:0]
		for _, e := range c.elems {
			if e < nf {
				cut = append(cut, e)
			} else {
				cut = append(cut, groups[e-nf].Fibers...)
			}
		}
		slices.Sort(cut)
		cut = slices.Compact(cut)
		sc.cut = cut
		if idx, h := sc.find(cut); idx >= 0 {
			sc.cuts[idx].prob += c.prob // merge overlapping expansions
		} else {
			if opt.MaxEnumerated > 0 && len(sc.cuts) >= opt.MaxEnumerated {
				pruned++
				return false
			}
			sc.byCut[h] = len(sc.cuts)
			lo := len(sc.fibers)
			sc.fibers = append(sc.fibers, cut...)
			sc.cuts = append(sc.cuts, emitted{lo: lo, hi: len(sc.fibers), prob: c.prob})
		}
		covered += c.prob
		return !(opt.TargetMass > 0 && covered >= opt.TargetMass)
	}
	root := get(1)
	root.positions[0] = 0
	push(root)

	for {
		// Emit every waiting candidate that no unexplored one can precede:
		// the frontier's top key bounds every probability still unseen.
		for sc.ready.Len() > 0 && (sc.search.Len() == 0 || sc.ready[0].prob > ceil(sc.search.candHeap[0].key)) {
			if !emit(heap.Pop(&sc.ready).(*candidate)) {
				pruned += int64(sc.ready.Len() + sc.search.Len())
				sc.search.candHeap, sc.ready = sc.search.candHeap[:0], sc.ready[:0]
			}
		}
		if sc.search.Len() == 0 {
			break
		}
		c := heap.Pop(&sc.search).(*candidate)
		// Children: extend with the next element in odds order, and replace
		// the last element with it. Each subset is generated exactly once.
		n := len(c.positions)
		last := c.positions[n-1]
		if last+1 < ne {
			if n < k {
				ext := get(n + 1)
				copy(ext.positions, c.positions)
				ext.positions[n] = last + 1
				push(ext)
			}
			sib := get(n)
			copy(sib.positions, c.positions)
			sib.positions[n-1] = last + 1
			push(sib)
		}
		if c.prob < opt.Cutoff {
			pruned++
			put(c)
			continue
		}
		heap.Push(&sc.ready, c)
	}

	// The emitted cut sets, copied out at their final size: one slice of
	// scenarios, and every cut's fibers in one array.
	if len(sc.cuts) > 0 {
		fibers := slices.Clone(sc.fibers[:len(sc.fibers):len(sc.fibers)])
		if fibers == nil {
			fibers = []int{}
		}
		s.Scenarios = make([]Scenario, len(sc.cuts))
		for i, e := range sc.cuts {
			s.Scenarios[i] = Scenario{Cut: fibers[e.lo:e.hi:e.hi], Prob: e.prob}
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
