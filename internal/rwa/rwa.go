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
	"strconv"

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

	// WarmFrom supplies already-solved constituent Results (typically the
	// single-fiber cuts making up this request's multi-fiber cut) whose
	// optimal assignments compositionally warm-start this solve. For each
	// failed link, the first source that also failed that link contributes
	// its chosen (path, slot) variables; the union is restricted to remain
	// feasible (no two adopted wavelengths share a fiber-slot, per-link
	// totals respect gamma_e), so the composed point always skips phase 1.
	// Sources must carry VarBasis (solved with ExportBasis). Composition is
	// a deterministic function of the request and sources alone: results
	// cannot vary with worker scheduling. Ignored when NoWarm is set.
	WarmFrom []*Result

	// ExportBasis makes the solve retain a canonical per-variable basis-
	// status map on the Result (Result.VarBasis) so it can serve as a
	// WarmFrom source for later, larger cut sets.
	ExportBasis bool

	// HealthEvery forwards the LP engine's numerical-health probe period
	// into the assignment LP (see lp.Options.HealthEvery). Zero keeps
	// probing off; the probes never change the solve.
	HealthEvery int

	// Memo, when set, is shared by the solves of one plan: it answers the
	// surrogate-path searches from ranked lists and hands out one copy of
	// each distinct option set (see Memo). It never changes a Result's
	// content, only whether its Options are shared. It must have been made
	// for Net.
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
	// first); key is pathKey(Fibers), filled when the solve exports or
	// composes a basis. An option built by hand has none of it and is
	// prepared on the fly.
	prepared bool
	orig     []int
	key      string
}

// Result is the outcome of the relaxed RWA solve.
type Result struct {
	Req *Request
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
	// Objective is the LP's total restorable wavelength count.
	Objective float64
	// Health is the assignment LP's numerical-health report, present only
	// when Request.HealthEvery > 0 and the LP actually ran.
	Health *lp.HealthReport
	// VarBasis maps each assignment variable's canonical cross-model key to
	// its basis status at the LP optimum (variables nonbasic at lower bound
	// are omitted — they carry no information). Populated only when
	// Request.ExportBasis is set and the LP ran; it is what a later solve's
	// WarmFrom consumes.
	VarBasis map[WarmKey]lp.BasisStatus
	// Warm reports what the LP's warm-start machinery did (nil when the LP
	// was skipped or ran cold via NoWarm).
	Warm *lp.WarmInfo
	// ComposedVars counts the variables adopted from WarmFrom sources into
	// this solve's starting basis (0 on non-compositional solves).
	ComposedVars int
}

// WarmKey canonically identifies one assignment variable across solves of
// different cut sets: the failed IP link's global ID, the surrogate fiber
// path, and the spectrum slot. Local (link, path) indices differ between a
// single-cut and a multi-cut model, so compositional warm starts match
// variables by this key instead.
type WarmKey struct {
	Link int
	Path string // canonical fiber-path key, see pathKey
	Slot int
}

// pathKey renders a surrogate fiber path as a canonical map key, the way
// fmt.Sprint would: "[3 17 4]".
func pathKey(fibers []int) string {
	b := make([]byte, 0, 2+4*len(fibers))
	b = append(b, '[')
	for i, f := range fibers {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(f), 10)
	}
	return string(append(b, ']'))
}

// scratch is the working memory of one Solve or AssignIntegral at a time:
// everything they need that is sized by the network (fibers, slots, fibers x
// slots) or by the assignment model and that no Result keeps. It only grows,
// so a scratch that has served a network serves it again without allocating.
// Solve and AssignIntegral pass scratches to each other through scratchPool;
// a Result or Assignment never shares memory with one.
type scratch struct {
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

	// The assignment model. Variables are numbered in (link, path option,
	// slot position) order: the k-th slot of option o is variable
	// optBase[o]+k, and link li's options are optBase[linkOpt[li]:linkOpt[li+1]].
	model   *lp.Model
	basis   lp.Basis
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
	res := &Result{Req: req}
	res.Failed = req.Net.FailedLinks(req.Cut)
	if len(res.Failed) == 0 {
		return res, nil
	}
	obs.Observe(req.Recorder, "rwa.failed_links", float64(len(res.Failed)))
	sc.cut = req.Net.CutMask(sc.cut, req.Cut)
	sc.spectra = req.Net.SpectrumUnderCutInto(sc.spectra, sc.cut, res.Failed)
	if sc.common == nil || sc.common.Len() != req.Net.SlotCount {
		sc.common = spectrum.NewBitmap(req.Net.SlotCount)
	}
	res.Options = make([][]PathOption, len(res.Failed))
	res.GbpsPerWave = make([]float64, len(res.Failed))
	res.OrigWaves = make([]int, len(res.Failed))
	res.FracWaves = make([]float64, len(res.Failed))

	for i, lid := range res.Failed {
		link := req.Net.LinkByID(lid)
		res.OrigWaves[i] = len(link.Waves)
		res.Options[i] = sc.surrogatePaths(req, link)
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

	if err := sc.solveAssignmentLP(req, res); err != nil {
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
// memo's copy of the same options.
func (sc *scratch) surrogatePaths(req *Request, link *optical.IPLink) []PathOption {
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
		return nil
	}
	if req.Memo != nil {
		return req.Memo.intern(sc, req.AllowTuning)
	}
	return sc.ownOptions(req.AllowTuning, req.ExportBasis || len(req.WarmFrom) > 0)
}

// ownOptions copies the options built in sc into memory of their own, every
// fiber, slot and original slot of them in one array, with their pathKey when
// withKey is set.
func (sc *scratch) ownOptions(tuning, withKey bool) []PathOption {
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
		if withKey {
			opt.key = pathKey(opt.Fibers)
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

// buildModel builds the wavelength-assignment model of res (Appendix A.2,
// constraints 14–17) in sc.model, with xi binary when integer is set and
// relaxed to [0,1] otherwise, maximising the total restored wavelength
// count. Rows and variables go unnamed: nothing reads an RWA model's names,
// and lp derives one from the index if something ever does.
//
// Row order decides the simplex vertex, so it is fixed: the (fiber, slot)
// rows by ascending fiber then slot, the per-link totals in Failed order,
// then — without tuning — each link's original-slot rows by ascending slot;
// within a row, variables ascend.
func (sc *scratch) buildModel(res *Result, name string, integer bool) *lp.Model {
	if sc.model == nil {
		sc.model = lp.NewModel(name)
	}
	m := sc.model
	m.Reset()
	m.SetName(name)
	m.SetMaximize(true)

	slots := res.Req.Net.SlotCount
	sc.optBase, sc.linkOpt = sc.optBase[:0], sc.linkOpt[:0]
	sc.keys, sc.vars = sc.keys[:0], sc.vars[:0]
	for li := range res.Failed {
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
	sc.addGroupRows(m, len(res.Req.Net.Fibers)*slots, 1)
	// (17): a link restores at most its gamma_e wavelengths.
	for li := range res.Failed {
		lo, hi := sc.optBase[sc.linkOpt[li]], sc.optBase[sc.linkOpt[li+1]]
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
	if !res.Req.AllowTuning {
		for li := range res.Failed {
			sc.keys, sc.vars = sc.keys[:0], sc.vars[:0]
			for pi, opt := range res.Options[li] {
				base := sc.optBase[sc.linkOpt[li]+pi]
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

// solveAssignmentLP builds and solves the relaxed wavelength-assignment LP
// (Appendix A.2, constraints 14–17 with xi relaxed to [0,1]), maximising
// the total restored wavelength count.
func (sc *scratch) solveAssignmentLP(req *Request, res *Result) error {
	m := sc.buildModel(res, "rwa", false)
	if m.NumVars() == 0 {
		return nil // nothing restorable
	}
	var lpo *lp.Options
	if req.Recorder != nil || req.HealthEvery > 0 {
		lpo = &lp.Options{Recorder: req.Recorder, HealthEvery: req.HealthEvery}
	}
	var basis *lp.Basis // nil: cold
	if !req.NoWarm {
		// All rows are <= with nonnegative rhs, so the all-slack basis is
		// primal feasible and the warm start skips phase 1 entirely. With
		// WarmFrom sources, the slack basis is further seeded with the
		// constituent solves' chosen variables (restricted to stay
		// feasible), so phase 2 also starts near the composed optimum.
		basis = &sc.basis
		basis.ResetSlack(m)
		if len(req.WarmFrom) > 0 {
			res.ComposedVars = sc.composeWarmBasis(req, basis, res)
			obs.Add(req.Recorder, "rwa.compose_adopted", int64(res.ComposedVars))
		}
	}
	sol, err := lp.SolveWithBasis(m, basis, lpo)
	if err != nil {
		return fmt.Errorf("rwa assignment LP: %w", err)
	}
	if err := sol.Status.Err(); err != nil {
		return fmt.Errorf("rwa assignment LP: %w", err)
	}
	res.Health = sol.Health
	res.Warm = sol.Warm
	if req.ExportBasis && sol.Basis != nil {
		res.VarBasis = map[WarmKey]lp.BasisStatus{}
		v := 0
		for li := range res.Failed {
			for _, opt := range res.Options[li] {
				for _, s := range opt.Slots {
					if st := sol.Basis.VarStatus[v]; st != lp.BasisAtLower {
						res.VarBasis[WarmKey{Link: res.Failed[li], Path: opt.key, Slot: s}] = st
					}
					v++
				}
			}
		}
	}
	for li := range res.Failed {
		total := 0.0
		for _, x := range sol.X[sc.optBase[sc.linkOpt[li]]:sc.optBase[sc.linkOpt[li+1]]] {
			total += x
		}
		res.FracWaves[li] = math.Min(total, float64(res.OrigWaves[li]))
		res.Objective += res.FracWaves[li]
	}
	return nil
}

// composeWarmBasis seeds a slack basis with the union of the WarmFrom
// sources' chosen assignment variables, restricted to stay primal feasible
// in the combined model. For each failed link the FIRST source that also
// failed it contributes: every variable the source's optimum held basic or
// at its upper bound is adopted AT UPPER (wavelength fully restored on that
// path and slot) provided no previously adopted variable already claims one
// of its fiber-slots, the link's gamma_e quota is not exhausted, and — in
// no-tuning mode — the original slot is not already reused. Those three
// guards are exactly constraints (14), (17) and the orig-slot rows, so the
// composed basic point is feasible by construction and SolveWithBasis skips
// phase 1. Variables unique to the multi-cut model (paths that traverse the
// other cut's fibers exist only in the singles) drop out naturally: their
// keys simply miss.
//
// The adoption order — links in Failed order, path options in rank order,
// slots in option order — and the first-match source rule are deterministic
// functions of the request alone, preserving the pipeline's reproducibility
// contract at any worker count. Returns the number of adopted variables.
func (sc *scratch) composeWarmBasis(req *Request, basis *lp.Basis, res *Result) int {
	slots := req.Net.SlotCount
	sc.used.reset(len(req.Net.Fibers) * slots)
	adopted := 0
	for li, lid := range res.Failed {
		var src *Result
	sources:
		for _, s := range req.WarmFrom {
			if s == nil || len(s.VarBasis) == 0 {
				continue
			}
			for _, sl := range s.Failed {
				if sl == lid {
					src = s
					break sources
				}
			}
		}
		if src == nil {
			continue
		}
		quota := res.OrigWaves[li]
		sc.slotUsed.reset(slots) // per-link original-slot guard (no tuning)
	options:
		for pi, opt := range res.Options[li] {
			base := sc.optBase[sc.linkOpt[li]+pi]
			for k, s := range opt.Slots {
				if quota <= 0 {
					break options
				}
				st, ok := src.VarBasis[WarmKey{Link: lid, Path: opt.key, Slot: s}]
				if !ok || (st != lp.BasisBasic && st != lp.BasisAtUpper) {
					continue
				}
				if !sc.claim(opt.Fibers, s, slots, req.AllowTuning) {
					continue
				}
				basis.VarStatus[base+k] = lp.BasisAtUpper
				quota--
				adopted++
			}
		}
	}
	return adopted
}

// Assignment is an integral wavelength assignment: for each failed link
// (by Result index), the chosen (path option, slot) pairs.
type Assignment struct {
	// PerLink[i] lists (pathIndex, slot) pairs for failed link i.
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
// The options of res must lie in res.Req.Net (its fibers, its slots); those
// of a Result built by hand rather than by Solve may list their slots in any
// order.
func AssignIntegral(res *Result, target []int) (*Assignment, bool) {
	sc := scratchPool.Get()
	defer scratchPool.Put(sc)
	return sc.assignIntegral(res, target)
}

func (sc *scratch) assignIntegral(res *Result, target []int) (*Assignment, bool) {
	ok := sc.assign(res, target)
	a := &Assignment{PerLink: make([][][2]int, len(res.Failed))}
	if len(sc.pairs) > 0 {
		own := append([][2]int(nil), sc.pairs...)
		for li, sp := range sc.span[:len(res.Failed)] {
			if sp[1] > sp[0] {
				a.PerLink[li] = own[sp[0]:sp[1]:sp[1]]
			}
		}
	}
	return a, ok
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
	net := res.Req.Net
	slots := net.SlotCount
	tuning := res.Req.AllowTuning
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
	sc := scratchPool.Get()
	defer scratchPool.Put(sc)
	ok := sc.assign(res, target)
	out := make([]int, len(res.Failed))
	for li, sp := range sc.span[:len(res.Failed)] {
		out[li] = sp[1] - sp[0]
	}
	return out, ok
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
		restored += float64(counts[i]) * res.GbpsPerWave[i]
	}
	return restored / provisioned, nil
}
