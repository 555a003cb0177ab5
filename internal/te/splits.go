package te

import (
	"fmt"
	"math/bits"
	"slices"

	"github.com/arrow-te/arrow/internal/lp"
	"github.com/arrow-te/arrow/internal/pool"
)

// splitTable is the demand-independent half of ARROW's two-phase TE on one
// network: for each flow's tunnel set, each scenario whose failed links one
// of the set's tunnels crosses, and each restoration support of that
// scenario's tickets (the failed links a ticket lights), how the set's
// tunnels split into residual and restorable ones, and which of them cross
// each failed link. Phase I's blocks and pricing, Phase II's (10) and (11)
// rows and the reference loads are all read off it through one solve's flow
// order (splitView), so a flow reaches a row only through its tunnel set.
//
// A solve fills a table of its own and keeps none: its view comes from a
// pool and fills the table on the arrays the previous solve left.
type splitTable struct {
	links   int
	tunnels [][]Tunnel
	scs     []RestorableScenario
	sets    []setSplits // [f]: flow f's tunnel set's entry

	support [][]int32   // [qi][z]: the index of ticket z's support among qi's
	reps    [][]int32   // [qi][s]: the first ticket that lights support s
	supAt   []int       // [qi]: where qi's supports start in a list of every scenario's
	segAt   []int       // [qi]: where qi's load segments start in a list of every scenario's
	linkAt  []int       // [qi]: where qi's failed links start in a list of every scenario's
	totalR  [][]float64 // [qi][z]: ticket z's sum_e r_e^{z,q}, over qi's failed links in order
	failing [][]failAt  // [link]: every position it holds among a scenario's failed links, ascending
	litAt   []int       // [qi]: where qi's supports start in lit, one flag per failed link each
	lit     []bool      // whether a support lights a failed link (!(Gbps <= 0))
	// The arrays behind support, reps and totalR, and init's scratch.
	supportFlat, repsFlat []int32
	totalRFlat            []float64
	gbpsAt                []int
}

// callView is the view one solve on n reads its rows off, over a table of
// its own of n's tunnels, one set per flow. With winners (in range,
// checkWinners) it holds only what Phase II reads for them: each scenario's
// splits and loads under its winner's support; with nil, everything Phase I
// reads. The solve hands it back with release.
func callView(n *Network, scs []RestorableScenario, winners []int) *splitView {
	v := viewPool.Get()
	t := &v.t
	t.links, t.tunnels, t.scs = len(n.LinkCap), n.Tunnels, scs
	t.init(winners)
	var only []int32
	if winners != nil {
		v.only = resize(v.only, len(scs))
		for qi, z := range winners {
			v.only[qi] = t.support[qi][z]
		}
		only = v.only
	}
	flows := len(n.Tunnels)
	t.sets = slices.Grow(t.sets[:0], flows)[:flows]
	for f := range t.sets {
		t.fill(f, &v.fill, only)
	}
	v.build(only)
	v.base(n)
	return v
}

// setSplits is the entry of a set of the given number of tunnels: a record
// for every scenario that touches the set, and the distinct
// (residual, restorable) pairs those records use. Tunnel masks are w words,
// bit ti for tunnel ti.
type setSplits struct {
	tunnels, w int
	by         []touch
	// masks holds the distinct pairs, first seen first, 2w words each:
	// pair id's residual mask, then its restorable one. A flow's cover rows
	// are deduplicated by id, as equal pairs make equal rows. cover[id] is
	// whether constraints (4) and (10) hold a row for the pair: something
	// was lost (else the row is implied by (1)) and something is left (else
	// it is vacuous).
	masks []uint64
	cover []bool
	// rowOf[id] is the distinct cover row of pair id: pairs whose residual
	// and restorable tunnels together are the same set make the same row.
	// rows holds each distinct row's tunnels, w words each, first seen
	// first.
	rowOf []int32
	rows  []uint64
	// cross and ids back every record's cross and split.
	cross []uint64
	ids   []int32
}

// touch is how scenario q splits one tunnel set: cross holds, for q's i-th
// failed link, the tunnels that cross it, and split the pair of each
// support. Support s loads link i with the restorable tunnels that cross
// it, cross[i] & rst.
type touch struct {
	q     int
	cross []uint64
	split []int32
}

// split is a set's residual tunnels res (T_f^q) and restorable tunnels rst
// (Y_f^{z,q}), and whether they make a cover row.
type split struct {
	res, rst []uint64
	cover    bool
}

// mask is m's i-th mask of w words.
func mask(m []uint64, w, i int) []uint64 { return m[i*w : (i+1)*w : (i+1)*w] }

// resize returns xs at length n, every element zero, on xs's array when it
// is large enough.
func resize[T any](xs []T, n int) []T {
	xs = slices.Grow(xs[:0], n)[:n]
	clear(xs)
	return xs
}

// init builds the scenario-level part of t over t.scs. A ticket's support is which of its
// scenario's failed links it lights, those whose restored capacity
// restorable does not read as dark (!(Gbps <= 0)): the tickets of one
// support make the same rows and differ only in totalR. With winners, only
// each scenario's winner is classified, as its one support: every other
// ticket's support reads -1 and its totalR 0.
func (t *splitTable) init(winners []int) {
	nz := 0
	for qi := range t.scs {
		nz += len(t.scs[qi].Tickets)
	}
	n := len(t.scs)
	t.supportFlat, t.repsFlat, t.totalRFlat = resize(t.supportFlat, nz), slices.Grow(t.repsFlat[:0], nz), resize(t.totalRFlat, nz)
	t.support, t.reps, t.totalR = resize(t.support, n), resize(t.reps, n), resize(t.totalR, n)
	t.supAt, t.segAt, t.linkAt, t.litAt = resize(t.supAt, n+1), resize(t.segAt, n+1), resize(t.linkAt, n+1), resize(t.litAt, n)
	t.failing = slices.Grow(t.failing[:0], t.links)[:t.links]
	for e := range t.failing {
		t.failing[e] = t.failing[e][:0]
	}
	support, totalR := t.supportFlat, t.totalRFlat
	lits := t.lit[:0]
	for qi := range t.scs {
		q := &t.scs[qi]
		nt, k := len(q.Tickets), len(q.FailedLinks)
		t.support[qi], support = support[:nt:nt], support[nt:]
		t.totalR[qi], totalR = totalR[:nt:nt], totalR[nt:]
		start := len(t.repsFlat)
		t.litAt[qi] = len(lits)
		// gbpsAt[i] is where the tickets hold failed link i's capacity, as
		// TicketGbps finds it (-1: nowhere, 0 Gbps).
		t.gbpsAt = t.gbpsAt[:0]
		for _, link := range q.FailedLinks {
			t.gbpsAt = append(t.gbpsAt, slices.Index(q.TicketLinks, link))
		}
		for z, tk := range q.Tickets {
			if winners != nil && z != winners[qi] {
				t.support[qi][z] = -1
				continue
			}
			from := len(lits) // where z's flags go
			totalR := 0.0     // sum_e r_e^{z,q}, over q's failed links in order
			for _, at := range t.gbpsAt {
				g := 0.0
				if at >= 0 {
					g = tk.Gbps[at]
				}
				lits = append(lits, !(g <= 0))
				totalR += g
			}
			t.totalR[qi][z] = totalR
			// Supports light distinct links: z's is the one that lights
			// what z does, or a new one.
			ql, ns := lits[t.litAt[qi]:from], len(t.repsFlat)-start
			y := 0
			for y < ns && !slices.Equal(ql[y*k:(y+1)*k], lits[from:]) {
				y++
			}
			t.support[qi][z] = int32(y)
			if y < ns {
				lits = lits[:from]
			} else {
				t.repsFlat = append(t.repsFlat, int32(z))
			}
		}
		t.reps[qi] = t.repsFlat[start:len(t.repsFlat):len(t.repsFlat)]
		t.supAt[qi+1] = t.supAt[qi] + len(t.reps[qi])
		t.segAt[qi+1] = t.segAt[qi] + (1+len(t.reps[qi]))*k
		t.linkAt[qi+1] = t.linkAt[qi] + k
		for i, link := range q.FailedLinks {
			if link >= 0 && link < t.links { // else no tunnel crosses it
				t.failing[link] = append(t.failing[link], failAt{int32(qi), int32(i)})
			}
		}
	}
	t.lit = lits
}

// failAt is position i of scenario q's failed links.
type failAt struct{ q, i int32 }

// litOf is which of scenario qi's failed links support s lights, in order.
func (t *splitTable) litOf(qi, s int) []bool {
	k := len(t.scs[qi].FailedLinks)
	at := t.litAt[qi] + s*k
	return t.lit[at : at+k : at+k]
}

// fillScratch is fill's working memory: the scenarios that touch a set,
// rec[q], the index of scenario q's record plus one (0: none), and the mask
// of every tunnel.
type fillScratch struct {
	qs  []int32
	rec []int32
	all []uint64
}

// fill writes flow f's entry, sets[f], on its arrays where they are large
// enough: every support's split, or only support only[qi] of each scenario
// qi when only is not nil (the others' split ids are -1).
func (t *splitTable) fill(f int, sc *fillScratch, only []int32) {
	s, ts := &t.sets[f], t.tunnels[f]
	if len(sc.rec) < len(t.scs) {
		sc.rec = make([]int32, len(t.scs))
	}
	qs := sc.qs[:0] // in the order the set's tunnels first reach them
	for _, tn := range ts {
		for _, e := range tn.Links {
			for _, fa := range t.failing[e] {
				if sc.rec[fa.q] == 0 {
					sc.rec[fa.q] = 1
					qs = append(qs, fa.q)
				}
			}
		}
	}
	sc.qs = qs
	w := (len(ts) + 63) / 64
	all := resize(sc.all, w) // every tunnel of the set
	for ti := range ts {
		all[ti>>6] |= 1 << (ti & 63)
	}
	sc.all = all
	words, ids := 0, 0
	for j, q := range qs {
		sc.rec[q] = int32(j + 1)
		words += len(t.scs[q].FailedLinks) * w
		ids += len(t.reps[q])
	}
	s.tunnels, s.w = len(ts), w
	s.by, s.cross, s.ids = resize(s.by, len(qs)), resize(s.cross, words), resize(s.ids, ids)
	s.masks, s.cover, s.rowOf, s.rows = s.masks[:0], s.cover[:0], s.rowOf[:0], s.rows[:0]
	cross, idArena := s.cross, s.ids
	for j, qi := range qs {
		k, ns := len(t.scs[qi].FailedLinks), len(t.reps[qi])
		by := &s.by[j]
		by.q = int(qi)
		by.cross, cross = cross[:k*w:k*w], cross[k*w:]
		by.split, idArena = idArena[:ns:ns], idArena[ns:]
	}
	// A tunnel crosses every position its links hold among a scenario's
	// failed links: a link listed twice is crossed at both.
	for ti, tn := range ts {
		for _, e := range tn.Links {
			for _, fa := range t.failing[e] {
				mask(s.by[sc.rec[fa.q]-1].cross, w, int(fa.i))[ti>>6] |= 1 << (ti & 63)
			}
		}
	}
	for j, qi := range qs {
		sc.rec[qi] = 0
		by := &s.by[j]
		for si := range t.reps[qi] {
			if only != nil && int32(si) != only[qi] {
				by.split[si] = -1
				continue
			}
			// The support's pair goes in at the end of masks, and out again
			// if an earlier pair equals it. A tunnel is restorable if every
			// failed link it crosses is lit: rst first gathers the tunnels
			// that cross a failed link, res those that cross a dark one.
			at := len(s.masks)
			s.masks = append(s.masks, make([]uint64, 2*w)...)
			res, rst := s.masks[at:at+w], s.masks[at+w:]
			for i, lit := range t.litOf(int(qi), si) {
				for x, word := range mask(by.cross, w, i) {
					rst[x] |= word
					if !lit {
						res[x] |= word
					}
				}
			}
			for x := range res {
				crossing, dark := rst[x], res[x]
				res[x], rst[x] = all[x]&^crossing, crossing&^dark
			}
			by.split[si] = s.intern(at, only == nil)
		}
	}
}

// intern returns the id of the pair masks[at:] holds. With dedup, an
// earlier equal pair's id, the new one dropped from masks: Phase I keys
// its cover rows on it. Phase II reads each pair once, and skips the search;
// it keys its cover rows on a new pair's distinct row, which intern files
// in rowOf.
func (s *setSplits) intern(at int, dedup bool) int32 {
	pair := s.masks[at:]
	for id := range s.cover {
		if !dedup {
			break
		}
		if slices.Equal(s.masks[2*id*s.w:2*(id+1)*s.w], pair) {
			s.masks = s.masks[:at]
			return int32(id)
		}
	}
	k := 0
	for _, word := range pair {
		k += bits.OnesCount64(word)
	}
	s.cover = append(s.cover, k != s.tunnels && k != 0)
	// The pair's row is the union of its halves, which are disjoint.
	at = len(s.rows)
	for x := range s.w {
		s.rows = append(s.rows, pair[x]|pair[s.w+x])
	}
	row := 0
	for !slices.Equal(s.rows[row*s.w:(row+1)*s.w], s.rows[at:]) {
		row++
	}
	if row*s.w < at {
		s.rows = s.rows[:at]
	}
	s.rowOf = append(s.rowOf, int32(row))
	return int32(len(s.cover) - 1)
}

// splitView is a split table, t, seen through one solve's flows: for each
// scenario, the flows whose tunnels its failed links touch, ascending, each
// with its set's record for the scenario, and the loads of the scenario the
// solve reads written out as variables. Every other flow keeps all its
// tunnels and adds no row to any ARROW model. Variables are numbered as
// every base model of the solve numbers them (baseModelLike): b_f, then
// f's a_{f,t}, flow by flow. A view and its scratch come from viewPool and
// go back to it when the solve is done with them (release).
type splitView struct {
	t       splitTable
	touched [][]flowTouch
	// vars[at[2j]:at[2j+1]] is load segment j = segAt[qi]+i*(ns+1)+s+1:
	// the load on scenario qi's i-th failed link under support s (of ns),
	// or the reference load for s = -1 (load). A segment the view was not
	// built for is (-1, -1).
	vars []lp.Var
	at   []int32
	// crossing[crossAt[p]:crossAt[p+1]] are the flows with a tunnel across
	// failed link p = linkAt[qi]+i, ascending: the only ones its loads read.
	crossing []*flowTouch
	crossAt  []int32
	// coverSeen marks the cover rows in the model being built, flow f's
	// from seenAt[f], one per split of its set: Phase I's master keys them
	// by split, each Phase II by the split's distinct row (rowOf). prices
	// is Phase I's pricing memo, one per support (supAt).
	seenAt    []int
	coverSeen []bool
	prices    []supportPrice
	// capHead and caps file the (11) rows a Phase II has kept by their
	// load: capHead[x] is 1 + the index in caps of the last kept row whose
	// load starts with variable x (0: none), and each kept row links to the
	// one before it with the same first variable.
	capHead []int32
	caps    []capKey

	// Phase I's scratch: inMaster[qi][z] (on inMasterFlat) is whether
	// ticket z of scenario qi has its block in the master, picks a pricing
	// sweep's pick per scenario and weight the canonical objective's
	// per-variable weight.
	inMaster     [][]bool
	inMasterFlat []bool
	picks        []pricePick
	weight       []float64

	// like is the variable layout and tunnel–link incidence every base
	// model of the solve is built on (baseModelLike), and the scratch their
	// rows are assembled in: n's holder's layout and incidence, or, on a
	// network with none, layout and cross, built for the solve (base).
	like   baseModel
	layout varLayout
	cross  crossTable
	// winners is Phase I's pick and firsts the all-ticket-0 fallback's
	// winners; loads is pickWinners' scratch.
	winners, firsts []int
	loads           []float64

	// only is the one support per scenario a Phase II view is built for.
	only   []int32
	flat   []flowTouch
	count  []int
	hits   []hit
	cursor []int32
	fill   fillScratch
}

var viewPool pool.Free[splitView]

// flowTouch is flow f's record for one scenario; b is b_f's variable, and
// a_{f,t} is b+1+t.
type flowTouch struct {
	f   int
	b   lp.Var
	set *setSplits
	by  *touch
}

// build lays v out over its filled table. It writes out every load, or
// with only, those of support only[qi] of each scenario qi.
func (v *splitView) build(only []int32) {
	t := &v.t
	links := t.linkAt[len(t.scs)]
	v.touched = resize(v.touched, len(t.scs))
	v.seenAt = resize(v.seenAt, len(t.sets))
	v.count = resize(v.count, len(t.scs))
	covers, total := 0, 0
	for f := range t.sets {
		s := &t.sets[f]
		v.seenAt[f] = covers
		covers += len(s.cover)
		for _, by := range s.by {
			v.count[by.q]++
		}
		total += len(s.by)
	}
	v.coverSeen = resize(v.coverSeen, covers)
	v.prices = resize(v.prices, t.supAt[len(t.scs)])
	v.flat = resize(v.flat, total)
	flat := v.flat
	for qi, c := range v.count {
		v.touched[qi], flat = flat[:0:c], flat[c:]
	}
	// One pass over the flows, ascending, files each under its scenario and
	// notes every failed link p = linkAt[qi]+i it crosses; a stable counting
	// sort then groups the notes by link.
	v.hits, v.crossAt = v.hits[:0], resize(v.crossAt, links+1)
	b := lp.Var(0)
	for f := range t.sets {
		s := &t.sets[f]
		for j := range s.by {
			by := &s.by[j]
			v.touched[by.q] = append(v.touched[by.q], flowTouch{f: f, b: b, set: s, by: by})
			ft := &v.touched[by.q][len(v.touched[by.q])-1]
			for i := range t.scs[by.q].FailedLinks {
				if p := t.linkAt[by.q] + i; slices.ContainsFunc(mask(by.cross, s.w, i), nonzero) {
					v.hits = append(v.hits, hit{int32(p), ft})
					v.crossAt[p+1]++
				}
			}
		}
		b += lp.Var(1 + s.tunnels)
	}
	for p := range links {
		v.crossAt[p+1] += v.crossAt[p]
	}
	v.crossing = resize(v.crossing, len(v.hits))
	v.cursor = append(v.cursor[:0], v.crossAt[:links]...)
	for _, h := range v.hits {
		v.crossing[v.cursor[h.p]] = h.ft
		v.cursor[h.p]++
	}
	v.vars, v.at = v.vars[:0], v.at[:0]
	for qi := range t.scs {
		for i := range t.scs[qi].FailedLinks {
			p := t.linkAt[qi] + i
			crossing := v.crossing[v.crossAt[p]:v.crossAt[p+1]]
			for s := -1; s < len(t.reps[qi]); s++ {
				if only != nil && int32(s) != only[qi] {
					v.at = append(v.at, -1, -1)
					continue
				}
				v.at = append(v.at, int32(len(v.vars)))
				for _, ft := range crossing {
					v.vars = ft.loadVars(v.vars, i, s)
				}
				v.at = append(v.at, int32(len(v.vars)))
			}
		}
	}
}

// capKey is a kept (11) row: its load, its handle, and 1 + the index in
// caps of the kept row before it whose load starts with the same variable
// (0: none).
type capKey struct {
	load []lp.Var
	c    lp.Constr
	next int32
}

// resetCaps forgets every kept (11) row, for a model of vars variables.
func (v *splitView) resetCaps(vars int) {
	v.capHead = resize(v.capHead, vars)
	v.caps = v.caps[:0]
}

// capOf returns the index in caps of the kept (11) row whose load is load
// (not empty), or -1.
func (v *splitView) capOf(load []lp.Var) int {
	for k := v.capHead[load[0]]; k != 0; k = v.caps[k-1].next {
		if slices.Equal(v.caps[k-1].load, load) {
			return int(k - 1)
		}
	}
	return -1
}

// keepCap files c as the kept (11) row of load (not empty, no kept row's).
func (v *splitView) keepCap(load []lp.Var, c lp.Constr) {
	v.caps = append(v.caps, capKey{load: load, c: c, next: v.capHead[load[0]]})
	v.capHead[load[0]] = int32(len(v.caps))
}

// hit is a flow's record that crosses failed link p.
type hit struct {
	p  int32
	ft *flowTouch
}

func nonzero(word uint64) bool { return word != 0 }

// base fills v.like with n's variable layout and tunnel–link incidence:
// the holder's, which n shares with its Scaled copies, or, when n has none,
// built on v's arrays. The incidence depends on the order of n's flows, so
// a view keeps none from one solve to the next.
func (v *splitView) base(n *Network) {
	if n.half != nil {
		l := n.layout()
		v.like.a, v.like.b, v.like.cross = l.a, l.b, n.incidence()
		return
	}
	v.layout.number(n)
	v.like.a, v.like.b, v.like.cross = v.layout.a, v.layout.b, v.cross.build(n)
}

// release hands v, its table and its scratch back for the next solve to
// build in. Nothing may read v after.
func (v *splitView) release() {
	v.t.tunnels, v.t.scs = nil, nil
	v.like.a, v.like.b, v.like.cross = nil, nil, nil
	clear(v.flat)
	clear(v.crossing)
	clear(v.hits)
	clear(v.caps)
	viewPool.Put(v)
}

// split is ft's pair under support s and its id.
func (ft *flowTouch) split(s int) (id int, sp split) {
	id = int(ft.by.split[s])
	w := ft.set.w
	m := ft.set.masks[2*id*w : 2*(id+1)*w]
	return id, split{res: m[:w:w], rst: m[w:], cover: ft.set.cover[id]}
}

// cross is ft's tunnels across its scenario's i-th failed link.
func (ft *flowTouch) cross(i int) []uint64 { return mask(ft.by.cross, ft.set.w, i) }

// loadVars appends to dst a_{f,t} for every tunnel t of ft on its
// scenario's i-th failed link, ascending: those restorable under support s,
// or every one when s < 0.
func (ft *flowTouch) loadVars(dst []lp.Var, i, s int) []lp.Var {
	var rst []uint64
	if s >= 0 {
		_, sp := ft.split(s)
		rst = sp.rst
	}
	for w, word := range ft.cross(i) {
		if rst != nil {
			word &= rst[w]
		}
		for ; word != 0; word &= word - 1 {
			dst = append(dst, ft.b+1+lp.Var(w<<6|bits.TrailingZeros64(word)))
		}
	}
	return dst
}

// coverRow appends to dst flow ft.f's guarantee row of constraints (4) and
// (10) under sp: its residual plus restorable tunnels carry b_f.
func (ft *flowTouch) coverRow(dst lp.Expr, sp split) lp.Expr {
	for _, m := range [2][]uint64{sp.res, sp.rst} {
		for w, word := range m {
			for ; word != 0; word &= word - 1 {
				dst = dst.Plus(1, ft.b+1+lp.Var(w<<6|bits.TrailingZeros64(word)))
			}
		}
	}
	return dst.Plus(-1, ft.b)
}

// coverValue is coverRow's left-hand side at x, summed term by term.
func (ft *flowTouch) coverValue(sp split, x []float64) float64 {
	acc := 0.0
	for _, m := range [2][]uint64{sp.res, sp.rst} {
		for w, word := range m {
			for ; word != 0; word &= word - 1 {
				acc += x[ft.b+1+lp.Var(w<<6|bits.TrailingZeros64(word))]
			}
		}
	}
	return acc - x[ft.b]
}

// load is the load on scenario qi's i-th failed link, the allocation on its
// tunnels ascending (f, t): the restorable ones under support s, of
// constraints (5) and (11), or every one when s < 0, the reference load.
func (v *splitView) load(qi, s, i int) []lp.Var {
	j := v.t.segAt[qi] + i*(len(v.t.reps[qi])+1) + s + 1
	if v.at[2*j] < 0 {
		panic(fmt.Sprintf("te: scenario %d support %d: a load the view was not asked for", qi, s))
	}
	return v.vars[v.at[2*j]:v.at[2*j+1]]
}

// hasLoad reports whether support s of scenario qi loads any failed link,
// that is, restores some tunnel.
func (v *splitView) hasLoad(qi, s int) bool {
	for i := range v.t.scs[qi].FailedLinks {
		if len(v.load(qi, s, i)) > 0 {
			return true
		}
	}
	return false
}

// appendLoad appends to dst a term +1 x for every variable of load, in order.
func appendLoad(dst lp.Expr, load []lp.Var) lp.Expr {
	for _, x := range load {
		dst = dst.Plus(1, x)
	}
	return dst
}

// sumLoad adds to acc, one term at a time in appendLoad's order, x's value
// of every variable of load.
func sumLoad(acc float64, load []lp.Var, x []float64) float64 {
	for _, v := range load {
		acc += x[v]
	}
	return acc
}
