// Package ticket implements ARROW's LotteryTicket abstraction (§3.2):
// partial restoration candidates generated from the relaxed RWA solution by
// repeated randomized rounding (Algorithm 1), the feasibility filter that
// drops candidates violating the optical constraints, and the probabilistic
// optimality guarantee of Theorem 3.1.
package ticket

import (
	"math"
	"math/rand"
	"slices"
	"strconv"

	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/pool"
	"github.com/arrow-te/arrow/internal/rwa"
)

// Ticket is one LotteryTicket R^{z,q}: for each failed IP link of a
// scenario (in rwa.Result.Failed order), a restorable wavelength count and
// the corresponding bandwidth.
type Ticket struct {
	// Waves[i] is the restored wavelength count for failed link i.
	Waves []int
	// Gbps[i] = Waves[i] * GbpsPerWave[i] (Algorithm 1 line 12).
	Gbps []float64
}

// TotalGbps returns the ticket's total restored bandwidth.
func (t *Ticket) TotalGbps() float64 {
	s := 0.0
	for _, g := range t.Gbps {
		s += g
	}
	return s
}

// Key returns the wave counts the way fmt.Sprint would print them,
// "[2 0 3]": two tickets have the same key exactly when they are duplicates.
func (t *Ticket) Key() string {
	b := make([]byte, 0, 2+3*len(t.Waves))
	b = append(b, '[')
	for i, w := range t.Waves {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(w), 10)
	}
	return string(append(b, ']'))
}

// Options configures LotteryTicket generation.
type Options struct {
	// Count is |Z|, the number of tickets to generate (before filtering).
	Count int
	// Stride is delta, the maximum rounding stride (default 2).
	//
	// Note on fidelity: Algorithm 1 line 9 literally reads
	// min(ceil(lambda)+x1, orig) with x1 in [1,delta], which would make
	// plain ceil(lambda) unreachable — contradicting the paper's own
	// footnote 2 example (6.3 rounds to 7 w.p. 0.3). We therefore use the
	// offset x1-1, so delta=1 degenerates to classic randomized rounding
	// and larger strides widen exploration, matching Theorem 3.1's 1/delta
	// stride-probability.
	Stride int
	// Seed makes generation deterministic.
	Seed int64
	// CheckFeasibility drops tickets whose integral assignment cannot be
	// constructed in the optical domain (§3.2 "Handling LotteryTickets'
	// feasibility").
	CheckFeasibility bool
	// Dedup removes duplicate tickets after generation.
	Dedup bool
	// Recorder receives generation metrics (rounding attempts, infeasible
	// and duplicate drops). A nil Recorder costs nothing and never changes
	// the generated tickets.
	Recorder obs.Recorder
	// Ledger, when non-nil, records one event per generated or rejected
	// ticket, tagged with Scenario. Rejections are classified: targets
	// beyond any link's rwa.SlotCapacity are rounding_infeasible, failed
	// assignments within capacity are spectrum_clash, and dedup drops are
	// duplicate. Same contract as Recorder: nil costs nothing.
	Ledger *ledger.Ledger
	// Scenario tags this batch's ledger events with the scenario's
	// enumerated index.
	Scenario int
}

func (o Options) stride() int {
	if o.Stride <= 0 {
		return 2
	}
	return o.Stride
}

// Probabilities of the non-fractional rounding rule (Appendix A.2): when
// the LP returns an integer, round up w.p. 0.3, down w.p. 0.3, keep w.p. 0.4.
const (
	nonFracUp   = 0.3
	nonFracDown = 0.3
)

// Compose builds the composed-from-singles restoration candidate for a
// multi-fiber cut into tk, whose vectors hold one entry per failed link of
// res: each failed link's target wave count comes from the first
// constituent single-cut solve (in cut order) that failed it — waves[f] is
// fiber f's pre-staged failed-link -> integral-wave map, absent when the
// fiber has no pre-staged solve — clamped to the link's original count. The
// greedy integral assignment then realises the targets under the combined
// cut's spectrum contention, and the REALISED counts (not the targets)
// become the ticket, so the composed candidate is always physically
// feasible; links whose single-cut restoration paths died with the other
// fibers simply realise less. The targets are worked out in tk.Waves, which
// the realised counts then overwrite. Compose reports false when nothing at
// all could be restored.
func Compose(tk *Ticket, res *rwa.Result, cut []int, waves map[int]map[int]int) bool {
	target := tk.Waves
	for i, lid := range res.Failed {
		target[i] = 0
		for _, f := range cut {
			ws := waves[f]
			if ws == nil {
				continue
			}
			if w, ok := ws[lid]; ok {
				target[i] = w
				break
			}
		}
		if target[i] > res.OrigWaves[i] {
			target[i] = res.OrigWaves[i]
		}
	}
	rwa.IntegralWavesInto(tk.Waves, res, target)
	total := 0
	for i, w := range tk.Waves {
		tk.Gbps[i] = float64(w) * res.GbpsPerWave[i]
		total += w
	}
	return total > 0
}

// Extend returns tks one ticket longer, the new ticket's vectors n long.
// It reuses the ticket past tks' end, vectors included, when there is one
// with room, and overwrites nothing else; the new vectors' contents are
// whatever they held.
func Extend(tks []Ticket, n int) []Ticket {
	if len(tks) == cap(tks) {
		return append(tks, Ticket{Waves: make([]int, n), Gbps: make([]float64, n)})
	}
	tks = tks[:len(tks)+1]
	tk := &tks[len(tks)-1]
	if cap(tk.Waves) < n || cap(tk.Gbps) < n {
		tk.Waves, tk.Gbps = make([]int, n), make([]float64, n)
	}
	tk.Waves, tk.Gbps = tk.Waves[:n], tk.Gbps[:n]
	return tks
}

// Clone returns a copy of tks in memory of its own, at its exact size: one
// slice of tickets, every ticket's wave counts in one array and its
// bandwidths in another. Each vector is capped at its own length, so
// appending to one cannot overwrite the next ticket's.
func Clone(tks []Ticket) []Ticket {
	if tks == nil {
		return nil
	}
	n := 0
	for _, tk := range tks {
		n += len(tk.Waves)
	}
	out := make([]Ticket, len(tks))
	waves, gbps := make([]int, n), make([]float64, n)
	for i, tk := range tks {
		k := len(tk.Waves)
		copy(waves, tk.Waves)
		copy(gbps, tk.Gbps)
		out[i] = Ticket{Waves: waves[:k:k], Gbps: gbps[:k:k]}
		waves, gbps = waves[k:], gbps[k:]
	}
	return out
}

// rngPool hands generators from one Generate to the next.
var rngPool = pool.Free[rand.Rand]{New: func() *rand.Rand { return rand.New(rand.NewSource(0)) }}

// fracEps is the tolerance below which an LP value counts as integral.
const fracEps = 1e-9

// Generate runs Algorithm 1: it derives |Z| LotteryTickets from the relaxed
// RWA solution by randomized rounding. The RWA itself (Algorithm 1 line 2)
// must already be solved and is passed as res.
func Generate(res *rwa.Result, opts Options) []Ticket {
	out := AppendGenerated(nil, res, opts)
	if len(out) == 0 {
		return nil
	}
	return out
}

// AppendGenerated is Generate appending the tickets it keeps to dst. Each
// rounding is drawn into the ticket past dst's end (Extend), so a caller
// that hands the same dst back, emptied, draws into vectors it already has;
// nothing may hold the vectors of dst's tickets past its length. Dedup
// compares a draw with the tickets this call kept, not with dst's own.
func AppendGenerated(dst []Ticket, res *rwa.Result, opts Options) []Ticket {
	// Seed puts a Rand in the state rand.New(rand.NewSource(seed)) starts in,
	// so a generator (5 KB of state) is re-seeded instead of built per batch.
	rng := rngPool.Get()
	defer rngPool.Put(rng)
	rng.Seed(opts.Seed)
	delta := opts.stride()
	n := len(res.Failed)
	kept := len(dst)
	infeasible, duplicates := 0, 0
	for z := 0; z < opts.Count; z++ {
		// A rejected draw is cut off again, and its vectors serve the next.
		dst = Extend(dst, n)
		tk := &dst[len(dst)-1]
		for e := 0; e < n; e++ {
			tk.Waves[e] = roundOnce(rng, res.FracWaves[e], res.OrigWaves[e], delta)
			tk.Gbps[e] = float64(tk.Waves[e]) * res.GbpsPerWave[e]
		}
		if opts.CheckFeasibility {
			if reason := infeasibility(res, tk.Waves); reason != "" {
				infeasible++
				if opts.Ledger != nil {
					opts.Ledger.Emit(ledger.Event{
						Kind: ledger.KindTicketRejected, Scenario: opts.Scenario,
						Ticket: z, Reason: reason, Gbps: tk.TotalGbps(),
					})
				}
				dst = dst[:len(dst)-1]
				continue
			}
		}
		if opts.Dedup && holds(dst[kept:len(dst)-1], tk.Waves) {
			duplicates++
			if opts.Ledger != nil {
				opts.Ledger.Emit(ledger.Event{
					Kind: ledger.KindTicketRejected, Scenario: opts.Scenario,
					Ticket: z, Reason: ledger.RejectDuplicate, Gbps: tk.TotalGbps(),
				})
			}
			dst = dst[:len(dst)-1]
			continue
		}
		if opts.Ledger != nil {
			opts.Ledger.Emit(ledger.Event{
				Kind: ledger.KindTicketGenerated, Scenario: opts.Scenario,
				Ticket: z, Gbps: tk.TotalGbps(),
			})
		}
	}
	if r := opts.Recorder; r != nil {
		generated := len(dst) - kept
		r.Add("ticket.rounding_attempts", int64(opts.Count))
		r.Add("ticket.infeasible", int64(infeasible))
		r.Add("ticket.duplicates", int64(duplicates))
		r.Add("ticket.generated", int64(generated))
		r.Observe("ticket.yield_per_batch", float64(generated))
	}
	return dst
}

// holds reports whether one of tks has exactly these wave counts: the dedup
// rule, under which two tickets are duplicates when their Waves are equal.
func holds(tks []Ticket, waves []int) bool {
	for i := range tks {
		if slices.Equal(tks[i].Waves, waves) {
			return true
		}
	}
	return false
}

// infeasibility says why the greedy integral assignment cannot realise
// waves, or returns "" when it can. A clamped target above its link's
// standalone slot capacity is a rounding that overshot (rounding_infeasible):
// the greedy places at most that many wavelengths on the link, so it need not
// be run. A rounding within every capacity that the greedy still cannot
// realise lost to cross-link spectrum contention (spectrum_clash), and so
// did one whose clamped total, an integer, exceeds the LP optimum (plus half
// a wavelength for rounding): the optimum bounds every integral assignment.
func infeasibility(res *rwa.Result, waves []int) ledger.RejectReason {
	total := 0
	for li, w := range waves {
		w = min(w, res.OrigWaves[li])
		if w > rwa.SlotCapacity(res, li) {
			return ledger.RejectRounding
		}
		total += w
	}
	if float64(total) > res.Objective+0.5 || !rwa.Feasible(res, waves) {
		return ledger.RejectSpectrumClash
	}
	return ""
}

// roundOnce applies the two-step randomized rounding of Algorithm 1
// (lines 5–11) to one link's fractional wavelength count.
func roundOnce(rng *rand.Rand, lambda float64, orig, delta int) int {
	offset := rng.Intn(delta) // x1 - 1: stride offset in [0, delta)
	frac := lambda - math.Floor(lambda)
	if frac < fracEps || frac > 1-fracEps {
		// Non-fractional case (Appendix A.2): explicit 0.3/0.3/0.4 rule
		// with stride x1 = offset+1.
		v := int(math.Round(lambda))
		switch p := rng.Float64(); {
		case p < nonFracUp:
			return clamp(v+offset+1, 0, orig)
		case p < nonFracUp+nonFracDown:
			return clamp(v-offset-1, 0, orig)
		default:
			return clamp(v, 0, orig)
		}
	}
	if rng.Float64() < frac { // round up (line 8-9)
		return clamp(int(math.Ceil(lambda))+offset, 0, orig)
	}
	return clamp(int(math.Floor(lambda))-offset, 0, orig) // line 11
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// RoundProbability returns the probability that roundOnce(lambda, orig,
// delta) produces exactly target. This is the per-link factor of kappa in
// Theorem 3.1 (1/delta times the round-up/down probability, with boundary
// clamping accounted for).
func RoundProbability(lambda float64, orig, target, delta int) float64 {
	if target < 0 || target > orig {
		return 0
	}
	frac := lambda - math.Floor(lambda)

	if frac < fracEps || frac > 1-fracEps {
		v := clamp(int(math.Round(lambda)), 0, orig)
		p := 0.0
		if target == v {
			p += 1 - nonFracUp - nonFracDown
		}
		// Up: value clamp(v+x1, 0, orig), x1 in [1,delta].
		p += float64(nonFracUp * strideHitProb(v, target, delta, orig, +1))
		// Down: value clamp(v-x1, 0, orig).
		p += float64(nonFracDown * strideHitProb(v, target, delta, orig, -1))
		return p
	}

	p := 0.0
	up := int(math.Ceil(lambda))
	down := int(math.Floor(lambda))
	// Round up: value = clamp(up+offset, 0, orig), offset in [0, delta).
	p += float64(frac * offsetHitProb(up, target, delta, orig, +1))
	// Round down: value = clamp(down-offset, 0, orig).
	p += float64((1 - frac) * offsetHitProb(down, target, delta, orig, -1))
	return p
}

// offsetHitProb returns P[clamp(base + dir*offset, 0, orig) == target] with
// offset uniform in [0, delta).
func offsetHitProb(base, target, delta, orig, dir int) float64 {
	hits := 0
	for o := 0; o < delta; o++ {
		if clamp(base+dir*o, 0, orig) == target {
			hits++
		}
	}
	return float64(hits) / float64(delta)
}

// strideHitProb returns P[clamp(base + dir*x1, 0, orig) == target] with x1
// uniform in [1, delta].
func strideHitProb(base, target, delta, orig, dir int) float64 {
	hits := 0
	for x := 1; x <= delta; x++ {
		if clamp(base+dir*x, 0, orig) == target {
			hits++
		}
	}
	return float64(hits) / float64(delta)
}

// Kappa computes the probability (Theorem 3.1, Eq. 13) that a single
// generated ticket equals the given target restoration vector.
func Kappa(res *rwa.Result, target []int, delta int) float64 {
	if delta <= 0 {
		delta = 2
	}
	k := 1.0
	for e := range res.Failed {
		k *= RoundProbability(res.FracWaves[e], res.OrigWaves[e], target[e], delta)
	}
	return k
}

// Rho computes the probability (Theorem 3.1, Eq. 12) that at least one of
// numTickets independently generated tickets is the optimal one, given the
// single-draw probability kappa.
func Rho(kappa float64, numTickets int) float64 {
	return 1 - math.Pow(1-kappa, float64(numTickets))
}
