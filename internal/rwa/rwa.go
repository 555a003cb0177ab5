// Package rwa implements ARROW's Routing and Wavelength Assignment module
// (Appendix A.2 of the paper): given a fiber-cut scenario, it finds k
// surrogate fiber paths for each failed IP link (k-shortest paths bounded by
// modulation reach), then solves the relaxed wavelength-assignment LP
// (constraints 14–17) whose fractional solution seeds LotteryTicket
// generation. It also provides the integral greedy assignment used for
// ticket feasibility checking and for the restoration-ratio measurements of
// §2.3.
package rwa

import (
	"fmt"
	"math"
	"slices"

	"github.com/arrow-te/arrow/internal/graph"
	"github.com/arrow-te/arrow/internal/lp"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/optical"
	"github.com/arrow-te/arrow/internal/pool"
	"github.com/arrow-te/arrow/internal/spectrum"
)

// Request describes one RWA problem: restore the IP links failed by Cut.
type Request struct {
	Net *optical.Network
	Cut []int // fiber IDs cut in this scenario

	// K is the number of surrogate fiber paths per failed link (default 3).
	K int
	// AllowTuning permits transponder frequency retuning: a restored
	// wavelength may use any slot free end-to-end instead of only its
	// original slot (§5 "Other factors affecting the latency").
	AllowTuning bool
	// AllowModulationChange permits dropping to a lower-rate modulation when
	// the surrogate path exceeds the original format's reach (Appendix A.1).
	// When false, paths beyond the original reach are discarded.
	AllowModulationChange bool

	// Recorder receives per-solve metrics (failed links, surrogate path
	// options, LP effort) and is forwarded into the assignment LP. A nil
	// Recorder costs nothing and never changes the solution.
	Recorder obs.Recorder

	// NoWarm disables warm-starting the assignment LP from a slack basis.
	// The assignment LP is slack-feasible by construction (all rows are <=
	// with nonnegative rhs), so the warm start deterministically skips
	// phase 1. The LP is degenerate, so a cold start (NoWarm) can end on
	// another optimal vertex and change the tickets rounded from it.
	NoWarm bool

	// HealthEvery forwards the LP engine's numerical-health probe period
	// into the assignment LP (see lp.Options.HealthEvery). Zero keeps
	// probing off; the probes never change the solve.
	HealthEvery int

	// Memo, when set, is shared by the solves of one plan: it answers the
	// surrogate-path searches from ranked lists, hands out one copy of each
	// distinct option set and answers each assignment-LP block it has solved
	// before (see Memo). It never changes a Result's content, only whether
	// its Options are shared. It must have been made for Net.
	Memo *Memo
}

func (r *Request) k() int {
	if r.K <= 0 {
		return 3
	}
	return r.K
}

// PathOption is one usable surrogate restoration fiber path for a failed
// IP link, with the slots free end-to-end (wavelength continuity already
// applied) and the modulation the path length supports.
type PathOption struct {
	LinkID     int
	Fibers     []int
	LengthKm   float64
	Modulation spectrum.Modulation
	Slots      []int

	// What Solve works out once per option so that no later pass over it has
	// to: prepared says Slots is ascending and orig lists, ascending, those
	// of them the link's own wavelengths occupy (AssignIntegral tries these
	// first). An option built by hand has none of it and is prepared on the
	// fly.
	prepared bool
	orig     []int
}

// Result is the outcome of the relaxed RWA solve. Of its Request it keeps
// only what a later assignment reads — the network and whether transponders
// may retune — so a Result holds no pointer to the request it was solved
// from, and the request need not outlive the solve.
type Result struct {
	// Net is the request's network: the options' fibers and slots lie in it.
	Net *optical.Network
	// AllowTuning is the request's: without it, an assignment gives each
	// failed wavelength its original slot or none.
	AllowTuning bool
	// Failed lists the failed IP link IDs, defining the index order of all
	// per-link vectors (the "1..n" of Algorithm 1).
	Failed []int
	// FracWaves is the relaxed LP's (possibly fractional) restorable
	// wavelength count per failed link.
	FracWaves []float64
	// GbpsPerWave is the effective per-wavelength data rate used to convert
	// wavelength counts to bandwidth for each failed link (Algorithm 1
	// line 12). It is the most conservative modulation among the link's
	// usable surrogate paths.
	GbpsPerWave []float64
	// OrigWaves is gamma_e: the pre-failure wavelength count per failed link.
	OrigWaves []int
	// Options lists each failed link's surrogate path options. A solve with
	// a Memo shares them with every other solve of the memo that found the
	// same options for the link: treat them, and the slices inside them, as
	// read-only.
	Options [][]PathOption
	// Objective is the LP's total restorable wavelength count, the sum of
	// FracWaves. It bounds the total of every integral assignment.
	Objective float64
	// Health holds the numerical-health reports of the assignment LP's
	// blocks when Request.HealthEvery > 0; a block the Memo answered carries
	// the report of the solve that answered it.
	Health []*lp.HealthReport
}

// scratch is the working memory of one Solve or AssignIntegral at a time:
// everything they need that is sized by the network (fibers, slots, fibers x
// slots) or by the assignment model and that no Result keeps. It only grows,
// so a scratch that has served a network serves it again without allocating.
// Solve and AssignIntegral pass scratches to each other through scratchPool;
// a Result or Assignment never shares memory with one.
type scratch struct {
	failed  []int              // the request's failed links, as Solve finds them
	cut     []bool             // by fiber: cut in the request at hand
	spectra []*spectrum.Bitmap // the network's SpectrumUnderCut for it
	common  *spectrum.Bitmap   // one path's end-to-end spectrum
	orig    stamps             // slots the link at hand's own wavelengths occupy

	// One link's surrogate options as surrogatePaths builds them: the paths
	// a memo returned, each option's scalar fields, and its fibers, slots
	// and original slots as spans of ints. key is their content key.
	paths []graph.Path
	opts  []PathOption
	spans []optionSpans
	ints  []int
	key   []byte

	// By failed link, the number of its option set in the request's memo
	// (0 without a memo or without options).
	sets []uint32

	// findBlocks' union-find forest over the failed links and the first link
	// to use each (fiber, slot), where used has it; a block's links.
	root, owner, members []int

	// The assignment model of one block. Variables are numbered in (link,
	// path option, slot position) order: the k-th slot of option o is
	// variable optBase[o]+k, and the block's i-th link's options are
	// optBase[linkOpt[i]:linkOpt[i+1]].
	model   *lp.Model
	basis   lp.Basis
	sol     lp.Solution // the model's solution, read before the next solve
	optBase []int
	linkOpt []int
	// addGroupRows' input (entry i is variable vars[i] in bucket keys[i])
	// and working memory.
	keys   []int
	vars   []lp.Var
	bucket []int
	sorted []lp.Var
	expr   lp.Expr

	// Spectrum occupancy: which (fiber, slot) pairs, as fiber*slots+slot,
	// and which slots of the link at hand are claimed.
	used     stamps
	slotUsed stamps

	// AssignIntegral's link order, its staged (path, slot) pairs with each
	// link's span of them, and the sorted form of an unprepared option.
	order, count       []int
	pairs, span        [][2]int
	sortedSlots, origs []int
}

// scratchPool hands scratches from one call to the next.
var scratchPool pool.Free[scratch]

// stamps is a set over [0, n) that empties in O(1): i is a member while
// at[i] holds gen.
type stamps struct {
	at  []uint32
	gen uint32
}

// reset empties the set and sizes it for [0, n).
func (s *stamps) reset(n int) {
	if cap(s.at) < n {
		s.at, s.gen = make([]uint32, n), 0
	}
	s.at = s.at[:n]
	s.gen++
	if s.gen == 0 { // wrapped: stale stamps could match again
		clear(s.at[:cap(s.at)])
		s.gen = 1
	}
}

func (s *stamps) has(i int) bool { return s.at[i] == s.gen }
func (s *stamps) add(i int)      { s.at[i] = s.gen }

// claim takes slot s on every fiber of the path for the link at hand and
// reports whether it could: not if any of those (fiber, slot) pairs is taken
// already or — without tuning — if the link already reuses s.
func (sc *scratch) claim(fibers []int, s, slots int, tuning bool) bool {
	if !tuning && sc.slotUsed.has(s) {
		return false
	}
	for _, f := range fibers {
		if sc.used.has(f*slots + s) {
			return false
		}
	}
	for _, f := range fibers {
		sc.used.add(f*slots + s)
	}
	sc.slotUsed.add(s)
	return true
}

// Solve runs the two-step RWA: route surrogate paths, then solve the
// relaxed wavelength-assignment LP.
func Solve(req *Request) (*Result, error) {
	sc := scratchPool.Get()
	defer scratchPool.Put(sc)
	return sc.solve(req)
}

func (sc *scratch) solve(req *Request) (*Result, error) {
	if req.Memo != nil && req.Memo.net != req.Net {
		panic("rwa: Request.Memo was made for another network")
	}
	obs.Add(req.Recorder, "rwa.solves", 1)
	res := &Result{Net: req.Net, AllowTuning: req.AllowTuning}
	sc.failed = req.Net.AppendFailedLinks(sc.failed[:0], req.Cut)
	n := len(sc.failed)
	if n == 0 {
		return res, nil
	}
	obs.Observe(req.Recorder, "rwa.failed_links", float64(n))
	// The per-link vectors lie in one array per type, each capped at its own
	// end.
	ints, floats := make([]int, 2*n), make([]float64, 2*n)
	copy(ints, sc.failed)
	res.Failed, res.OrigWaves = ints[:n:n], ints[n:]
	res.GbpsPerWave, res.FracWaves = floats[:n:n], floats[n:]
	res.Options = make([][]PathOption, n)
	sc.cut = req.Net.CutMask(sc.cut, req.Cut)
	sc.spectra = req.Net.SpectrumUnderCutInto(sc.spectra, sc.cut, res.Failed)
	if sc.common == nil || sc.common.Len() != req.Net.SlotCount {
		sc.common = spectrum.NewBitmap(req.Net.SlotCount)
	}

	sc.sets = slices.Grow(sc.sets[:0], n)[:n]
	for i, lid := range res.Failed {
		link := req.Net.LinkByID(lid)
		res.OrigWaves[i] = len(link.Waves)
		res.Options[i], sc.sets[i] = sc.surrogatePaths(req, link)
		// Effective modulation: most conservative usable path, defaulting
		// to the link's own modulation when no path exists.
		rate := linkModulation(link).GbpsPerWavelength
		for _, opt := range res.Options[i] {
			if opt.Modulation.GbpsPerWavelength < rate {
				rate = opt.Modulation.GbpsPerWavelength
			}
		}
		res.GbpsPerWave[i] = rate
		obs.Observe(req.Recorder, "rwa.surrogate_paths", float64(len(res.Options[i])))
	}

	if err := sc.solveBlocks(req, res); err != nil {
		return nil, err
	}
	return res, nil
}

// linkModulation returns the modulation of the link's first wavelength (the
// generator provisions homogeneous bundles, matching the paper's
// simplification in footnote 3).
func linkModulation(l *optical.IPLink) spectrum.Modulation {
	if len(l.Waves) == 0 {
		return spectrum.Table6[0]
	}
	return l.Waves[0].Modulation
}

// optionSpans locates one option's fibers, slots and original slots in
// scratch.ints: ints[fibers:slots], ints[slots:orig] and ints[orig:end].
type optionSpans struct{ fibers, slots, orig, end int }

// surrogatePaths computes up to K usable surrogate restoration paths for a
// failed link: k-shortest paths on the optical graph avoiding cut fibers,
// bounded by modulation reach, each annotated with its continuity slots. It
// builds them in sc, then copies them out — or, with a memo, returns the
// memo's copy of the same options and its number there.
func (sc *scratch) surrogatePaths(req *Request, link *optical.IPLink) ([]PathOption, uint32) {
	g := req.Net.Graph()

	// Reach bound: with modulation change allowed, the most robust format's
	// reach bounds the search; otherwise the original modulation's reach.
	origMod := linkModulation(link)
	maxReach := origMod.ReachKm
	if req.AllowModulationChange {
		for _, m := range spectrum.Table6 {
			if m.ReachKm > maxReach {
				maxReach = m.ReachKm
			}
		}
	}

	// Yen's algorithm on the shared optical graph with the cut fibers masked
	// out: the paths of a copy built without them, found without building it
	// (or read off the memo's ranked list, which gives the same paths).
	src, dst := graph.Node(link.Src), graph.Node(link.Dst)
	paths := sc.paths[:0]
	if req.Memo != nil {
		paths = req.Memo.paths.KShortestPathsAvoiding(paths, src, dst, req.k(), maxReach, sc.cut)
	} else {
		paths = g.KShortestPathsAvoiding(src, dst, req.k(), maxReach, sc.cut)
	}
	sc.markOrig(link, req.Net.SlotCount)

	sc.opts, sc.spans, sc.ints = sc.opts[:0], sc.spans[:0], sc.ints[:0]
	for _, p := range paths {
		mod := origMod
		if p.Weight > origMod.ReachKm {
			if !req.AllowModulationChange {
				continue
			}
			m, ok := spectrum.BestModulation(p.Weight)
			if !ok {
				continue
			}
			mod = m
		}
		sp := optionSpans{fibers: len(sc.ints)}
		for _, eid := range p.Edges {
			sc.ints = append(sc.ints, g.Edge(eid).Label)
		}
		sp.slots = len(sc.ints)
		sc.ints = sc.appendUsableSlots(sc.ints, req, link, sc.ints[sp.fibers:sp.slots])
		sp.orig = len(sc.ints)
		if sp.orig == sp.slots {
			sc.ints = sc.ints[:sp.fibers]
			continue
		}
		if req.AllowTuning {
			sc.ints = sc.appendOrig(sc.ints, sc.ints[sp.slots:sp.orig])
		}
		sp.end = len(sc.ints)
		sc.spans = append(sc.spans, sp)
		sc.opts = append(sc.opts, PathOption{LinkID: link.ID, LengthKm: p.Weight, Modulation: mod, prepared: true})
	}
	if req.Memo != nil {
		clear(paths) // the memo's paths, not to be held past this call
		sc.paths = paths[:0]
	}
	if len(sc.opts) == 0 {
		return nil, 0
	}
	if req.Memo != nil {
		return req.Memo.intern(sc, req.AllowTuning)
	}
	return sc.ownOptions(req.AllowTuning), 0
}

// ownOptions copies the options built in sc into memory of their own, every
// fiber, slot and original slot of them in one array.
func (sc *scratch) ownOptions(tuning bool) []PathOption {
	ints := append(make([]int, 0, len(sc.ints)), sc.ints...)
	out := append(make([]PathOption, 0, len(sc.opts)), sc.opts...)
	for i, sp := range sc.spans {
		opt := &out[i]
		opt.Fibers = ints[sp.fibers:sp.slots:sp.slots]
		opt.Slots = ints[sp.slots:sp.orig:sp.orig]
		switch {
		case !tuning:
			opt.orig = opt.Slots // only original slots qualify
		case sp.end > sp.orig:
			opt.orig = ints[sp.orig:sp.end:sp.end]
		}
	}
	return out
}

// markOrig makes sc.orig the set of slots the link's own wavelengths occupy.
func (sc *scratch) markOrig(link *optical.IPLink, slots int) {
	sc.orig.reset(slots)
	for _, w := range link.Waves {
		sc.orig.add(w.Slot)
	}
}

// appendOrig appends to dst those of slots that are in sc.orig, in order.
func (sc *scratch) appendOrig(dst, slots []int) []int {
	for _, s := range slots {
		if sc.orig.has(s) {
			dst = append(dst, s)
		}
	}
	return dst
}

// appendUsableSlots appends to dst, ascending, the slots free on every fiber
// of the path. Without frequency tuning, only the failed wavelengths'
// original slots qualify.
func (sc *scratch) appendUsableSlots(dst []int, req *Request, link *optical.IPLink, fibers []int) []int {
	if len(fibers) == 0 {
		return dst
	}
	common := sc.common
	common.CopyFrom(sc.spectra[fibers[0]])
	for _, f := range fibers[1:] {
		common.IntersectInto(sc.spectra[f])
	}
	if req.AllowTuning {
		return common.AppendAvailable(dst)
	}
	lo := len(dst)
	sc.slotUsed.reset(common.Len())
	for _, w := range link.Waves {
		if !sc.slotUsed.has(w.Slot) && common.Available(w.Slot) {
			sc.slotUsed.add(w.Slot)
			dst = append(dst, w.Slot)
		}
	}
	slices.Sort(dst[lo:])
	return dst
}

// findBlocks makes sc.root a union-find forest over the failed links of res
// whose trees, rooted at their first link, are the assignment LP's
// independent blocks: links share a row only through a (fiber, slot).
func (sc *scratch) findBlocks(res *Result) {
	slots, keys := res.Net.SlotCount, len(res.Net.Fibers)*res.Net.SlotCount
	sc.used.reset(keys)
	if cap(sc.owner) < keys {
		sc.owner = make([]int, keys)
	}
	owner := sc.owner[:keys]
	sc.root = sc.root[:0]
	for li := range res.Failed {
		sc.root = append(sc.root, li)
	}
	for li, opts := range res.Options {
		for _, opt := range opts {
			for _, s := range opt.Slots {
				for _, f := range opt.Fibers {
					if k := f*slots + s; !sc.used.has(k) {
						sc.used.add(k)
						owner[k] = li
					} else if a, b := sc.find(owner[k]), sc.find(li); a != b {
						sc.root[max(a, b)] = min(a, b)
					}
				}
			}
		}
	}
}

// find returns the root of li's tree, halving the path to it on the way.
func (sc *scratch) find(li int) int {
	for sc.root[li] != li {
		sc.root[li] = sc.root[sc.root[li]]
		li = sc.root[li]
	}
	return li
}

// block returns, in Failed order, the links of the block whose first link
// is first, or nil when there is none (a link without options has none).
func (sc *scratch) block(res *Result, first int) []int {
	if sc.find(first) != first || len(res.Options[first]) == 0 {
		return nil
	}
	links := sc.members[:0]
	for li := first; li < len(sc.root); li++ {
		if sc.find(li) == first {
			links = append(links, li)
		}
	}
	sc.members = links
	return links
}

// solveBlocks solves the assignment LP of res block by block, through the
// request's memo, and sums the objective in Failed order.
func (sc *scratch) solveBlocks(req *Request, res *Result) error {
	sc.findBlocks(res)
	for first := range res.Failed {
		links := sc.block(res, first)
		if links == nil {
			continue
		}
		health, err := req.Memo.block(sc, req, res, links)
		if err != nil {
			return err
		}
		if health != nil {
			res.Health = append(res.Health, health)
		}
	}
	for _, w := range res.FracWaves {
		res.Objective += w
	}
	return nil
}

// buildModel builds the wavelength-assignment model (Appendix A.2,
// constraints 14–17) of the failed links links of res (in Failed order) in
// sc.model, with xi binary when integer is set and relaxed to [0,1]
// otherwise, maximising the total restored wavelength count. Rows and
// variables go unnamed: nothing reads an RWA model's names, and lp derives
// one from the index if something ever does.
//
// Row order decides the simplex vertex, so it is fixed: the (fiber, slot)
// rows by ascending fiber then slot, the per-link totals in Failed order,
// then — without tuning — each link's original-slot rows by ascending slot;
// within a row, variables ascend. The model is a function of the links'
// IDs, options and gamma_e and of tuning alone.
func (sc *scratch) buildModel(res *Result, links []int, name string, integer bool) *lp.Model {
	if sc.model == nil {
		sc.model = lp.NewModel(name)
	}
	m := sc.model
	m.Reset()
	m.SetName(name)
	m.SetMaximize(true)

	slots := res.Net.SlotCount
	sc.optBase, sc.linkOpt = sc.optBase[:0], sc.linkOpt[:0]
	sc.keys, sc.vars = sc.keys[:0], sc.vars[:0]
	for _, li := range links {
		sc.linkOpt = append(sc.linkOpt, len(sc.optBase))
		for _, opt := range res.Options[li] {
			sc.optBase = append(sc.optBase, m.NumVars())
			for _, s := range opt.Slots {
				var v lp.Var
				if integer {
					v = m.AddBinVar(1, "")
				} else {
					v = m.AddVar(0, 1, 1, "")
				}
				for _, f := range opt.Fibers {
					sc.keys = append(sc.keys, f*slots+s)
					sc.vars = append(sc.vars, v)
				}
			}
		}
	}
	// Sentinels close the last link and the last option.
	sc.linkOpt = append(sc.linkOpt, len(sc.optBase))
	sc.optBase = append(sc.optBase, m.NumVars())

	// (14): each (fiber, slot) carries at most one restored wavelength.
	sc.addGroupRows(m, len(res.Net.Fibers)*slots, 1)
	// (17): a link restores at most its gamma_e wavelengths.
	for i, li := range links {
		lo, hi := sc.optBase[sc.linkOpt[i]], sc.optBase[sc.linkOpt[i+1]]
		if lo == hi {
			continue
		}
		expr := sc.expr[:0]
		for v := lo; v < hi; v++ {
			expr = append(expr, lp.Term{Var: lp.Var(v), Coef: 1})
		}
		sc.expr = expr
		m.AddConstr(expr, lp.LE, float64(res.OrigWaves[li]), "")
	}
	// Without tuning, each original slot can restore at most one of the
	// link's wavelengths across all paths.
	if !res.AllowTuning {
		for i, li := range links {
			sc.keys, sc.vars = sc.keys[:0], sc.vars[:0]
			for pi, opt := range res.Options[li] {
				base := sc.optBase[sc.linkOpt[i]+pi]
				for k, s := range opt.Slots {
					sc.keys = append(sc.keys, s)
					sc.vars = append(sc.vars, lp.Var(base+k))
				}
			}
			sc.addGroupRows(m, slots, 2)
		}
	}
	return m
}

// addGroupRows adds one row "the bucket's variables sum to at most 1" for
// every bucket in [0, buckets) that holds at least minSize of the entries
// (sc.keys, sc.vars), in ascending bucket order with each row's variables in
// entry order: a stable counting sort of the entries.
func (sc *scratch) addGroupRows(m *lp.Model, buckets, minSize int) {
	if cap(sc.bucket) < buckets+1 {
		sc.bucket = make([]int, buckets+1)
	}
	next := sc.bucket[:buckets+1] // where bucket b's next entry goes
	clear(next)
	for _, b := range sc.keys {
		next[b+1]++
	}
	for b := 1; b <= buckets; b++ {
		next[b] += next[b-1]
	}
	if cap(sc.sorted) < len(sc.vars) {
		sc.sorted = make([]lp.Var, len(sc.vars))
	}
	sorted := sc.sorted[:len(sc.vars)]
	for i, b := range sc.keys {
		sorted[next[b]] = sc.vars[i]
		next[b]++
	}
	// next[b] is now where bucket b ends.
	lo := 0
	for b := 0; b < buckets; b++ {
		hi := next[b]
		if hi > lo && hi-lo >= minSize {
			expr := sc.expr[:0]
			for _, v := range sorted[lo:hi] {
				expr = append(expr, lp.Term{Var: v, Coef: 1})
			}
			sc.expr = expr
			m.AddConstr(expr, lp.LE, 1, "")
		}
		lo = hi
	}
}

// solveBlock solves the relaxed assignment LP of the block links, writes
// their FracWaves and returns the LP's health report. The all-slack start is
// primal feasible (every row is <= with a nonnegative rhs), so phase 1 is
// skipped; NoWarm solves it cold instead.
func (sc *scratch) solveBlock(req *Request, res *Result, links []int) (*lp.HealthReport, error) {
	m := sc.buildModel(res, links, "rwa", false)
	var lpo *lp.Options
	if req.Recorder != nil || req.HealthEvery > 0 {
		lpo = &lp.Options{Recorder: req.Recorder, HealthEvery: req.HealthEvery}
	}
	var basis *lp.Basis // nil: cold
	if !req.NoWarm {
		basis = &sc.basis
		basis.ResetSlack(m)
	}
	sol, err := lp.SolveInto(&sc.sol, m, basis, lpo)
	if err != nil {
		return nil, fmt.Errorf("rwa assignment LP: %w", err)
	}
	if err := sol.Status.Err(); err != nil {
		return nil, fmt.Errorf("rwa assignment LP: %w", err)
	}
	obs.Add(req.Recorder, "rwa.block_solves", 1)
	for i, li := range links {
		total := 0.0
		for _, x := range sol.X[sc.optBase[sc.linkOpt[i]]:sc.optBase[sc.linkOpt[i+1]]] {
			total += x
		}
		res.FracWaves[li] = math.Min(total, float64(res.OrigWaves[li]))
	}
	return sol.Health, nil
}

// Assignment is an integral wavelength assignment: for each failed link
// (by Result index), the chosen (path option, slot) pairs.
type Assignment struct {
	// PerLink[i] lists (pathIndex, slot) pairs for failed link i: nil when
	// the link gets none. The lists are parts of one array, link after link
	// (see AssignInto).
	PerLink [][][2]int
}

// Waves returns the number of restored wavelengths for failed link i.
func (a *Assignment) Waves(i int) int { return len(a.PerLink[i]) }

// AssignIntegral greedily constructs an integral assignment that restores
// target[i] wavelengths for failed link i (first-fit over paths and slots,
// links with fewest options first). It returns the assignment and whether
// every target was met. Targets are clamped to the link's original
// wavelength count. The greedy check is sound (a returned complete
// assignment is always physically feasible) but incomplete: it may fail on
// feasible targets; callers treat that as "ticket infeasible", matching the
// paper's conservative feasibility filter.
//
// The options of res must lie in res.Net (its fibers, its slots); those
// of a Result built by hand rather than by Solve may list their slots in any
// order.
func AssignIntegral(res *Result, target []int) (*Assignment, bool) {
	a := new(Assignment)
	return a, AssignInto(a, res, target)
}

// AssignInto is AssignIntegral into dst: it overwrites dst, reusing its
// per-link slice and the array its pairs lie in, so a caller that reads an
// assignment and drops it allocates nothing once dst has grown to the
// largest result it serves. Nothing else may hold dst's lists.
//
// The pairs lie in one array in link order, and the first nonempty list
// reaches to the array's end: that is how the next call finds the array.
// Every other list ends at its own last pair, so appending to it cannot
// overwrite the next link's.
func AssignInto(dst *Assignment, res *Result, target []int) bool {
	sc := scratchPool.Get()
	defer scratchPool.Put(sc)
	return sc.assignInto(dst, res, target)
}

func (sc *scratch) assignInto(dst *Assignment, res *Result, target []int) bool {
	ok := sc.assign(res, target)
	n := len(res.Failed)
	own := dst.pairArray()
	if cap(own) < len(sc.pairs) {
		own = make([][2]int, 0, len(sc.pairs))
	}
	clear(dst.PerLink)
	if dst.PerLink == nil || cap(dst.PerLink) < n {
		dst.PerLink = make([][][2]int, n)
	}
	dst.PerLink = dst.PerLink[:n]
	for li, sp := range sc.span[:n] {
		if sp[1] == sp[0] {
			continue
		}
		lo := len(own)
		own = append(own, sc.pairs[sp[0]:sp[1]]...)
		if lo == 0 {
			dst.PerLink[li] = own[:len(own):cap(own)]
		} else {
			dst.PerLink[li] = own[lo:len(own):len(own)]
		}
	}
	return ok
}

// pairArray returns the array an earlier AssignInto laid a's pairs out in,
// emptied: the first nonempty list starts it and reaches to its end.
func (a *Assignment) pairArray() [][2]int {
	for _, l := range a.PerLink {
		if len(l) > 0 {
			return l[:0]
		}
	}
	return nil
}

// Feasible reports whether AssignIntegral meets every target, without
// building the assignment: the feasibility filter's question.
func Feasible(res *Result, target []int) bool {
	sc := scratchPool.Get()
	defer scratchPool.Put(sc)
	return sc.assign(res, target)
}

// assign runs the greedy assignment, leaving the chosen (path, slot) pairs
// in sc.pairs — link li's are sc.pairs[sc.span[li][0]:sc.span[li][1]] — and
// reports whether every target was met.
func (sc *scratch) assign(res *Result, target []int) bool {
	n := len(res.Failed)
	net := res.Net
	slots := net.SlotCount
	tuning := res.AllowTuning
	sc.used.reset(len(net.Fibers) * slots)

	// Links with the fewest (path, slot) options first, ties in Failed
	// order: an insertion sort, which is stable.
	order, count := sc.order[:0], sc.count[:0]
	for li := 0; li < n; li++ {
		c := SlotCapacity(res, li)
		order, count = append(order, li), append(count, c)
		j := li
		for ; j > 0 && count[j-1] > c; j-- {
			order[j], count[j] = order[j-1], count[j-1]
		}
		order[j], count[j] = li, c
	}
	sc.order, sc.count = order, count

	// The chosen pairs are staged link after link in that order; span[li]
	// is where link li's lie.
	pairs := sc.pairs[:0]
	if cap(sc.span) < n {
		sc.span = make([][2]int, n)
	}
	span := sc.span[:n]
	ok := true
	for _, li := range order {
		want := target[li]
		if want > res.OrigWaves[li] {
			want = res.OrigWaves[li]
		}
		lo := len(pairs)
		sc.slotUsed.reset(slots) // original-slot reuse guard (no-tuning mode)
		for pi := range res.Options[li] {
			if len(pairs)-lo >= want {
				break
			}
			opt := &res.Options[li][pi]
			all, orig := opt.Slots, opt.orig
			if !opt.prepared {
				all, orig = sc.prepare(opt, net.LinkByID(res.Failed[li]), slots)
			}
			// Prefer the link's original frequencies: the paper keeps the same
			// slot whenever possible to avoid transponder retuning latency.
			for _, s := range orig {
				if len(pairs)-lo >= want {
					break
				}
				if sc.claim(opt.Fibers, s, slots, tuning) {
					pairs = append(pairs, [2]int{pi, s})
				}
			}
			// Then the others, ascending: all is ascending and orig is the
			// subsequence of it just tried.
			tried := 0
			for _, s := range all {
				if len(pairs)-lo >= want {
					break
				}
				if tried < len(orig) && orig[tried] == s {
					tried++
					continue
				}
				if sc.claim(opt.Fibers, s, slots, tuning) {
					pairs = append(pairs, [2]int{pi, s})
				}
			}
		}
		span[li] = [2]int{lo, len(pairs)}
		if len(pairs)-lo < want {
			ok = false
		}
	}
	sc.pairs = pairs
	return ok
}

// prepare does for an option built by hand what Solve does for its own:
// returns its slots ascending and, of those, the link's original ones. Both
// live in sc until the next call.
func (sc *scratch) prepare(opt *PathOption, link *optical.IPLink, slots int) (all, orig []int) {
	all = append(sc.sortedSlots[:0], opt.Slots...)
	slices.Sort(all)
	sc.markOrig(link, slots)
	orig = sc.appendOrig(sc.origs[:0], all)
	sc.sortedSlots, sc.origs = all, orig
	return all, orig
}

// SlotCapacity returns an upper bound on the wavelengths failed link li can
// ever recover: the total (path, slot) pairs across its surrogate options,
// ignoring spectrum contention with other links. A rounding target above
// this bound is infeasible regardless of assignment order; a target within
// it that AssignIntegral still cannot realise failed on cross-link spectrum
// clashes instead.
func SlotCapacity(res *Result, li int) int {
	c := 0
	for _, opt := range res.Options[li] {
		c += len(opt.Slots)
	}
	return c
}

// IntegralWaves runs AssignIntegral's greedy for target and returns what it
// restores per failed link — the assignment's Waves(i) — and whether every
// target was met, without building the assignment.
func IntegralWaves(res *Result, target []int) ([]int, bool) {
	out := make([]int, len(res.Failed))
	return out, IntegralWavesInto(out, res, target)
}

// IntegralWavesInto is IntegralWaves into dst, which holds one entry per
// failed link. dst may be target itself: the greedy has read every target
// before the first count is written.
func IntegralWavesInto(dst []int, res *Result, target []int) bool {
	sc := scratchPool.Get()
	defer scratchPool.Put(sc)
	ok := sc.assign(res, target)
	for li, sp := range sc.span[:len(res.Failed)] {
		dst[li] = sp[1] - sp[0]
	}
	return ok
}

// MaxIntegralWaves runs the greedy assignment asking for every link's full
// wavelength count and returns the per-link restored counts. This is the
// integral analogue of the LP objective, used for restoration-ratio
// measurements (Fig. 6).
func MaxIntegralWaves(res *Result) []int {
	out, _ := IntegralWaves(res, res.OrigWaves)
	return out
}

// RestorationRatio computes U_phi for cutting exactly fiber phi: restored
// bandwidth over provisioned bandwidth (1.0 when the fiber carries nothing).
func RestorationRatio(net *optical.Network, fiber int, k int, allowTuning, allowModChange bool) (float64, error) {
	res, err := Solve(&Request{Net: net, Cut: []int{fiber}, K: k, AllowTuning: allowTuning, AllowModulationChange: allowModChange})
	if err != nil {
		return 0, err
	}
	provisioned := 0.0
	for _, li := range res.Failed {
		provisioned += net.LinkByID(li).CapacityGbps()
	}
	if provisioned == 0 {
		return 1, nil
	}
	counts := MaxIntegralWaves(res)
	restored := 0.0
	for i := range res.Failed {
		restored += float64(float64(counts[i]) * res.GbpsPerWave[i])
	}
	return restored / provisioned, nil
}
