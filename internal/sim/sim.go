// Package sim replays failure timelines against a solved TE plan: fiber
// cuts arrive as a Poisson process, repairs follow the paper's measured
// repair-time distribution (§2.2: median nine hours, 10% over a day), and
// between events the network delivers whatever the TE plan plus ARROW's
// precomputed restoration allow. It turns the static availability metric of
// §6.1 into an operational months-long view: time-weighted delivered
// traffic, time at full service, and how often the WAN is in a failure
// state nobody planned for.
package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"github.com/arrow-te/arrow/internal/availability"
	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/par"
	"github.com/arrow-te/arrow/internal/stats"
	"github.com/arrow-te/arrow/internal/te"
)

// Event is one timeline occurrence: a fiber going down or coming back.
type Event struct {
	TimeH float64
	Fiber int
	Up    bool
}

// TimelineOptions configures failure-timeline generation: the horizon, the
// cut rate and the seed. Repair times always follow the §2.2 lognormal
// (repairMedianH, repairSigma).
type TimelineOptions struct {
	// DurationH is the horizon in hours.
	DurationH float64
	// CutsPerMonth is the fleet-wide fiber-cut rate (the paper measures
	// ~16/month on the production backbone; scale to your fiber count).
	CutsPerMonth float64
	Seed         int64
}

// The §2.2 repair-time calibration: lognormal with a 9 h median and a
// log-space standard deviation of 0.7655.
const (
	repairMedianH = 9
	repairSigma   = 0.7655
)

func (o TimelineOptions) withDefaults() TimelineOptions {
	if o.DurationH <= 0 {
		o.DurationH = 30 * 24
	}
	if o.CutsPerMonth <= 0 {
		o.CutsPerMonth = 4
	}
	return o
}

// GenerateTimeline builds a deterministic cut/repair event sequence for
// nFibers fibers: exponential inter-arrival times at the configured rate,
// uniformly random victim fibers (re-cutting an already-down fiber extends
// nothing and is skipped), lognormal repair durations.
func GenerateTimeline(nFibers int, opt TimelineOptions) []Event {
	opt = opt.withDefaults()
	rng := rand.New(rand.NewSource(opt.Seed))
	ratePerH := opt.CutsPerMonth / (30 * 24)
	downUntil := make([]float64, nFibers) // 0 = up

	var events []Event
	t := 0.0
	for {
		t += rng.ExpFloat64() / ratePerH
		if t >= opt.DurationH {
			break
		}
		f := rng.Intn(nFibers)
		if downUntil[f] > t {
			continue // already down
		}
		repair := stats.LogNormal(rng, math.Log(repairMedianH), repairSigma)
		up := t + repair
		downUntil[f] = up
		events = append(events, Event{TimeH: t, Fiber: f, Up: false})
		if up < opt.DurationH {
			events = append(events, Event{TimeH: up, Fiber: f, Up: true})
		}
	}
	sort.SliceStable(events, func(a, b int) bool { return events[a].TimeH < events[b].TimeH })
	return events
}

// Projector maps a set of cut fibers to the failed IP links.
type Projector func(cut []int) []int

// Runner replays a timeline against one solved TE allocation.
type Runner struct {
	Net     *te.Network
	Alloc   *te.Allocation
	Project Projector
	// ECMPRebalance selects equal re-spreading semantics (for the ECMP TE).
	ECMPRebalance bool
	// Latency, when non-nil, makes the replay restoration-latency-aware:
	// each cut that fails IP links draws a restoration latency and the
	// precomputed plan only takes effect once that window elapses — before
	// it, the interval is evaluated without restoration. nil keeps the
	// historical instantaneous-restoration semantics.
	Latency LatencyModel
	// LatencySeed seeds the dedicated latency-draw stream. Draws happen in
	// the sequential event sweep, so reports stay identical for every
	// worker count.
	LatencySeed int64
	// Label tags this replay's sim_summary ledger event (e.g. "legacy" /
	// "noise_loading") so paired latency-model runs can be told apart.
	Label string
	// AttributeLoss additionally emits one attribution ledger event per
	// distinct fiber-cut set seen during the replay, carrying its
	// time-weighted share of lost delivery (the operational counterpart of
	// the static internal/attr decomposition). Events are aggregated and
	// emitted from the sequential integration pass in a sorted order, so
	// the stream is identical at every worker count; without a ledger on the
	// Run context the switch is inert.
	AttributeLoss bool

	// plans maps a canonical failed-link-set key to the precomputed
	// restoration of that scenario (empty for TEs without restoration).
	plans map[string]te.Restoration
}

// NewRunner builds a runner. scenarios/restored (parallel slices) register
// the precomputed restoration plans; pass nil restored for baseline TEs.
func NewRunner(net *te.Network, alloc *te.Allocation, project Projector,
	scenarios []te.FailureScenario, restored []te.Restoration) *Runner {
	r := &Runner{Net: net, Alloc: alloc, Project: project, plans: map[string]te.Restoration{}}
	for i, sc := range scenarios {
		var plan te.Restoration
		if restored != nil {
			plan = restored[i]
		}
		r.plans[linkSetKey(sc.FailedLinks)] = plan
	}
	return r
}

func linkSetKey(links []int) string {
	s := append([]int(nil), links...)
	sort.Ints(s)
	return fmt.Sprint(s)
}

// Report summarises a timeline replay.
type Report struct {
	// Delivered is the time-weighted average delivered demand fraction.
	Delivered float64
	// FullServiceFrac is the fraction of time at >= 99.9% delivery.
	FullServiceFrac float64
	// Worst is the lowest delivered fraction over the horizon.
	Worst float64
	// UnplannedHours is time spent in failure states with no precomputed
	// restoration plan (ARROW falls back to no restoration there).
	UnplannedHours float64
	// RestoringHours is time spent inside restoration-latency windows —
	// failed state present, plan drawn but not yet in effect (0 without a
	// LatencyModel).
	RestoringHours float64
	// RestoreLatency summarises the restoration-latency draws of the replay
	// in seconds (zero-count without a LatencyModel).
	RestoreLatency stats.Summary
	// Intervals is the number of distinct network states evaluated.
	Intervals int
}

// interval is one constant network state of the replay: the fibers down
// between two consecutive events. restoring marks the slice of a failure
// interval still inside a restoration-latency window.
type interval struct {
	fromH, toH float64
	cut        []int // sorted
	restoring  bool
}

// intervals sweeps the (time-sorted) events once and returns the list of
// positive-length constant states covering [0, durationH], plus the
// restoration-latency draws (seconds) made along the way. With a
// LatencyModel configured, every cut that fails IP links opens a restoring
// window and failure intervals are split at the window boundary. All
// randomness is consumed here, in event order, so the result is independent
// of how the interval evaluations are later scheduled.
func (r *Runner) intervals(events []Event, durationH float64) ([]interval, []float64) {
	var out []interval
	var draws []float64
	down := map[int]bool{}
	restoringUntil := 0.0
	var lrng *rand.Rand
	if r.Latency != nil {
		lrng = rand.New(rand.NewSource(r.LatencySeed))
	}
	downSet := func() []int {
		cut := make([]int, 0, len(down))
		for f := range down {
			cut = append(cut, f)
		}
		sort.Ints(cut)
		return cut
	}
	emit := func(fromH, toH float64) {
		if toH <= fromH {
			return
		}
		cut := downSet()
		if len(cut) > 0 && fromH < restoringUntil {
			mid := math.Min(toH, restoringUntil)
			out = append(out, interval{fromH: fromH, toH: mid, cut: cut, restoring: true})
			if toH <= mid {
				return
			}
			fromH = mid
		}
		out = append(out, interval{fromH: fromH, toH: toH, cut: cut})
	}
	t := 0.0
	for _, e := range events {
		if e.TimeH > durationH {
			break
		}
		emit(t, e.TimeH)
		t = e.TimeH
		if e.Up {
			delete(down, e.Fiber)
		} else {
			down[e.Fiber] = true
			if lrng != nil {
				if failed := r.Project(downSet()); len(failed) > 0 {
					l := r.Latency.RestoreLatencySec(lrng, failed)
					draws = append(draws, l)
					if until := t + l/3600; until > restoringUntil {
						restoringUntil = until
					}
				}
			}
		}
	}
	emit(t, durationH)
	return out, draws
}

// intervalEval is one interval's evaluated delivery.
type intervalEval struct {
	delivered float64
	unplanned bool // failure state with no precomputed restoration plan
}

// Run replays the events over the horizon and integrates delivery. The
// per-interval evaluations fan out over ctx's worker budget (each
// interval's state is fixed by the event sweep, the plan lookup table is
// read-only, and the integration happens afterwards in time order), so the
// report is identical for every worker count.
//
// ctx carries the sinks, none of which changes the Report: its recorder
// (obs.FromContext) receives sim.intervals, sim.unplanned_intervals,
// sim.restoring_intervals and a sim.run span and is handed to the worker
// pool; its ledger (ledger.FromContext) one sim_summary event with the
// interval count and the time-weighted delivered fraction; its stage
// profiler (obs.ProfilerFrom) the sim.replay stage. The replay is pure
// computation and is not cancelled by ctx.
func (r *Runner) Run(ctx context.Context, events []Event, durationH float64) *Report {
	defer obs.ProfilerFrom(ctx).Stage("sim.replay")()
	ev := &availability.Evaluator{Net: r.Net, Alloc: r.Alloc, ECMPRebalance: r.ECMPRebalance}
	ivs, draws := r.intervals(events, durationH)

	rec := obs.FromContext(ctx)
	var runStart time.Time
	if rec != nil {
		runStart = time.Now()
	}
	evals, err := par.Map(context.WithoutCancel(ctx), par.WorkersFrom(ctx), len(ivs), func(_ context.Context, i int) (intervalEval, error) {
		iv := ivs[i]
		out := intervalEval{delivered: 1}
		if len(iv.cut) > 0 {
			failed := r.Project(iv.cut)
			if len(failed) > 0 {
				restored, planned := r.plans[linkSetKey(failed)]
				out.unplanned = !planned
				if iv.restoring {
					// Inside the latency window the plan exists but the
					// optical layer hasn't finished applying it.
					restored = te.Restoration{}
				}
				out.delivered = ev.Delivered(&availability.ScenarioEval{Failed: failed, Restored: restored})
			}
		} else {
			out.delivered = ev.Delivered(&availability.ScenarioEval{})
		}
		return out, nil
	})
	if err != nil {
		// The evaluation function never fails and the context is never
		// cancelled; this branch is unreachable but kept explicit.
		panic(err)
	}

	rep := &Report{Worst: math.Inf(1)}
	for i, iv := range ivs {
		dt := iv.toH - iv.fromH
		e := evals[i]
		if e.unplanned {
			rep.UnplannedHours += dt
		}
		if iv.restoring {
			rep.RestoringHours += dt
		}
		rep.Delivered += float64(e.delivered * dt)
		if e.delivered >= 0.999 {
			rep.FullServiceFrac += dt
		}
		if e.delivered < rep.Worst {
			rep.Worst = e.delivered
		}
		rep.Intervals++
	}
	rep.Delivered /= durationH
	rep.FullServiceFrac /= durationH
	if math.IsInf(rep.Worst, 1) {
		rep.Worst = 1
	}
	rep.RestoreLatency = stats.Summarize(draws)
	if rec != nil {
		unplanned, restoring := 0, 0
		for i, e := range evals {
			if e.unplanned {
				unplanned++
			}
			if ivs[i].restoring {
				restoring++
			}
		}
		rec.Add("sim.intervals", int64(rep.Intervals))
		rec.Add("sim.unplanned_intervals", int64(unplanned))
		rec.Add("sim.restoring_intervals", int64(restoring))
		rec.SpanDone("sim.run", 0, runStart, time.Since(runStart))
	}
	if led := ledger.FromContext(ctx); led != nil {
		led.Emit(ledger.Event{
			Kind: ledger.KindSimSummary, Scenario: -1, Mode: r.Label,
			Count: rep.Intervals, Fraction: rep.Delivered,
			FullService: rep.FullServiceFrac, RestoringH: rep.RestoringHours,
			Detail: fmt.Sprintf("unplanned_h=%.3f worst=%.4f", rep.UnplannedHours, rep.Worst),
		})
		if r.AttributeLoss {
			r.emitLossAttribution(led, ivs, evals, durationH)
		}
	}
	return rep
}

// cutLoss aggregates one distinct fiber-cut set's replay exposure.
type cutLoss struct {
	cut      []int
	hours    float64
	lossFrac float64 // time-weighted share of lost delivery over the horizon
}

// emitLossAttribution folds the evaluated intervals into per-cut
// time-weighted loss contributions and emits them as attribution events
// (Detail "sim_cut", Links = the cut fiber set). The fold runs after the
// parallel evaluation, in time order, and emission is sorted by loss
// descending (ties by cut key), so the event stream is deterministic at
// every worker count.
func (r *Runner) emitLossAttribution(led *ledger.Ledger, ivs []interval, evals []intervalEval, durationH float64) {
	agg := map[string]*cutLoss{}
	var keys []string
	for i, iv := range ivs {
		if len(iv.cut) == 0 {
			continue
		}
		dt := iv.toH - iv.fromH
		key := linkSetKey(iv.cut)
		cl := agg[key]
		if cl == nil {
			cl = &cutLoss{cut: iv.cut}
			agg[key] = cl
			keys = append(keys, key)
		}
		cl.hours += dt
		cl.lossFrac += (1 - evals[i].delivered) * dt / durationH
	}
	sort.SliceStable(keys, func(a, b int) bool {
		ca, cb := agg[keys[a]], agg[keys[b]]
		if ca.lossFrac != cb.lossFrac {
			return ca.lossFrac > cb.lossFrac
		}
		return keys[a] < keys[b]
	})
	for _, key := range keys {
		cl := agg[key]
		led.Emit(ledger.Event{
			Kind: ledger.KindAttribution, Scenario: -1, Mode: r.Label,
			Links: append([]int(nil), cl.cut...), DurSec: cl.hours * 3600,
			Fraction: cl.lossFrac, Detail: "sim_cut",
		})
	}
}
