// Package ledger is ARROW's restoration flight recorder: a structured,
// concurrency-safe stream of typed per-run decision events. Where the
// metrics registry (internal/obs) answers "how much work happened", the
// ledger answers "why did scenario q end up with this restoration plan" —
// which scenarios were enumerated and kept, which LotteryTickets were
// generated or rejected (and for what reason), how the two-phase TE LP
// solves went (with their optimality certificates), which ticket won each
// scenario and how much capacity it revived, and what demand remained
// unmet.
//
// The package follows the same nil-default seam as obs.Recorder: a nil
// *Ledger is the disabled state, call sites guard event construction behind
// a nil check, and recording must never change control flow, iteration
// order, RNG consumption, or floating-point results of the instrumented
// code. cmd/arrow-report renders a recorded ledger into the per-scenario
// run report.
package ledger

import (
	"context"
	"log/slog"
	"sync"

	"github.com/arrow-te/arrow/internal/lp"
)

// SchemaVersion identifies the ledger JSON layout. Bump it whenever an
// event field is renamed, removed, or changes meaning (adding fields is
// compatible).
const SchemaVersion = 1

// Kind is the type tag of one ledger event.
type Kind string

// Event kinds, in rough pipeline order.
const (
	// KindEnumerated is a run-level event: Count scenarios cleared the
	// probability cutoff.
	KindEnumerated Kind = "scenarios_enumerated"
	// KindScenario records one RELEVANT scenario kept in the pipeline:
	// Scenario is the pipeline index the TE and the report use, Enum the
	// enumerated (probability-ordered) index ticket events are tagged with.
	KindScenario Kind = "scenario"
	// KindTicketGenerated records one LotteryTicket that survived
	// feasibility filtering and deduplication (Scenario = enumerated index).
	KindTicketGenerated Kind = "ticket_generated"
	// KindTicketRejected records one rounding attempt dropped by the
	// feasibility filter or the dedup pass (Scenario = enumerated index).
	KindTicketRejected Kind = "ticket_rejected"
	// KindSolveStart / KindSolveEnd bracket one LP or MILP solve; the end
	// event carries the status and the solution certificate.
	KindSolveStart Kind = "solve_start"
	KindSolveEnd   Kind = "solve_end"
	// KindWarmStart records one warm-started solve's outcome: Solver names
	// the model, Status is "phase1_skipped", "dual" (the dual simplex took
	// the solve), "accepted" or "rejected", and Count carries the pivots
	// saved versus a cold start.
	KindWarmStart Kind = "warm_start"
	// KindPricingRound records one column-generation sweep over the deferred
	// tickets of the phase-I restricted master: Round is the sweep index,
	// Count the columns priced in, Gbps the worst (most negative) reduced
	// cost seen, and Detail the master size after the appends. The final
	// sweep of a run has Count 0 — the priced-out certificate.
	KindPricingRound Kind = "pricing_round"
	// KindWinner records the winning ticket of one scenario with its
	// restored capacity and restored-capacity fraction.
	KindWinner Kind = "winner"
	// KindUnmetDemand is a run-level event: residual demand the final
	// allocation could not admit.
	KindUnmetDemand Kind = "unmet_demand"
	// KindSimSummary is a run-level event from the timeline simulator.
	KindSimSummary Kind = "sim_summary"
	// KindEmuEpisode summarises one emulated restoration episode (the
	// optical testbed of internal/emu): mode, end-to-end latency, revived
	// capacity and amplifier work.
	KindEmuEpisode Kind = "emu_episode"
	// KindEmuStage records one timed device action inside an emulated
	// restoration episode (failure detection, a ROADM wave, one amplifier's
	// settling, LACP re-aggregation, TE apply) on the emulated clock.
	KindEmuStage Kind = "emu_stage"
	// KindSolverAnomaly records one typed numerical-health finding from an
	// LP solve run with health probes (lp.Options.HealthEvery): Solver names
	// the model, Anomaly carries the reason code (stall, residual_drift,
	// warm_repair_fallback, cycling_suspect), Phase/Iter locate it in the
	// solve, Value is the reason-specific magnitude and Detail elaborates.
	KindSolverAnomaly Kind = "solver_anomaly"
	// KindSolverHealth summarises one probed solve per phase: Count is the
	// probe count, Value the worst primal residual, and Series the
	// (downsampled) per-probe objective trajectory — the pivot-progress
	// sparkline data of the report.
	KindSolverHealth Kind = "solver_health"
	// KindAttribution records one availability-loss contribution from the
	// post-solve attribution pass (internal/attr): scenario-level events
	// carry Scenario and Fraction (the scenario's share of total loss, in
	// availability units) with Gbps the unmet demand; flow-level events add
	// Flow. Scenario -1 tags the healthy-state contribution.
	KindAttribution Kind = "attribution"
	// KindSensitivity records one shadow-price finding: the marginal
	// objective value (Gbps restored per extra Gbps of capacity) of one
	// phase-II capacity row. Link/Fiber locate the constraint, Value is the
	// dual, and FDLow/FDHigh bracket it with the one-sided finite-difference
	// warm re-solves that validated it.
	KindSensitivity Kind = "sensitivity"
	// KindWhatIf records one warm what-if probe: Detail names the
	// perturbation ("+1 wave fiber 3", "drop scenario 2"), Value the
	// availability gained, and Gbps the capacity spent (0 for analytic
	// scenario drops).
	KindWhatIf Kind = "whatif"
)

// RejectReason classifies a dropped LotteryTicket.
type RejectReason string

// Rejection reasons (KindTicketRejected events).
const (
	// RejectRounding: the rounded wavelength vector asks some link for more
	// waves than its surrogate paths could ever carry, even on an empty
	// spectrum — the randomized rounding overshot physical capacity.
	RejectRounding RejectReason = "rounding_infeasible"
	// RejectSpectrumClash: the vector is within per-link path capacity but
	// the greedy integral assignment could not realise it because the
	// candidate paths contend for the same (fiber, slot) spectrum.
	RejectSpectrumClash RejectReason = "spectrum_clash"
	// RejectDuplicate: an identical ticket was already generated.
	RejectDuplicate RejectReason = "duplicate"
)

// Event is one flight-recorder record. Fields beyond Seq, Kind and Scenario
// are kind-specific and omitted from JSON when empty.
type Event struct {
	// Seq is the arrival sequence number (assigned by Emit). Under a
	// parallel build the interleaving across scenarios is schedule-
	// dependent; per-scenario event order is deterministic.
	Seq int64 `json:"seq"`
	// Kind tags the event type.
	Kind Kind `json:"kind"`
	// Scenario is the event's scenario index, or -1 for run-level events.
	// Ticket events carry the ENUMERATED index; KindScenario events map it
	// to the pipeline index (see Enum).
	Scenario int `json:"scenario"`
	// Enum is the enumerated scenario index a KindScenario event's pipeline
	// index corresponds to (-1 elsewhere).
	Enum int `json:"enum,omitempty"`
	// Prob is the scenario probability (KindScenario).
	Prob float64 `json:"prob,omitempty"`
	// Links lists the failed IP link IDs (KindScenario).
	Links []int `json:"links,omitempty"`
	// Cut lists the fiber IDs cut in this scenario (KindScenario). Multi-
	// fiber entries come from k-failure/SRLG enumeration; reports render
	// them as sorted {f3,f7} labels.
	Cut []int `json:"cut,omitempty"`
	// Ticket is the ticket index within the scenario's candidate set.
	Ticket int `json:"ticket,omitempty"`
	// Reason classifies a rejection (KindTicketRejected).
	Reason RejectReason `json:"reason,omitempty"`
	// Gbps is the event's bandwidth payload: restored capacity for
	// ticket/winner events, residual demand for KindUnmetDemand.
	Gbps float64 `json:"gbps,omitempty"`
	// Fraction is Gbps normalised by its natural denominator: lost link
	// capacity for winner events, total demand for unmet-demand events.
	Fraction float64 `json:"fraction,omitempty"`
	// Solver names the model of a solve event (e.g. "arrow-phase1").
	Solver string `json:"solver,omitempty"`
	// Status is the solve outcome (KindSolveEnd).
	Status string `json:"status,omitempty"`
	// Cert is the solution certificate of a completed solve.
	Cert *lp.Certificate `json:"certificate,omitempty"`
	// Count is the event's cardinality payload (KindEnumerated,
	// KindSimSummary; settled-amplifier count for KindEmuEpisode; columns
	// priced in for KindPricingRound).
	Count int `json:"count,omitempty"`
	// Round is the pricing sweep index (KindPricingRound).
	Round int `json:"round,omitempty"`
	// Mode tags restoration-scheme-paired events: "legacy" or
	// "noise_loading" for emulator episodes/stages and for latency-aware
	// sim summaries replayed under that scheme's latency model.
	Mode string `json:"mode,omitempty"`
	// Stage names the emulated restoration stage (KindEmuStage).
	Stage string `json:"stage,omitempty"`
	// Device identifies the acting device or device group (KindEmuStage).
	Device string `json:"device,omitempty"`
	// Lane is the waterfall lane of an emulated stage: 0 is the serial
	// critical-path lane, each concurrently-settling restoration path gets
	// its own (KindEmuStage).
	Lane int `json:"lane,omitempty"`
	// StartSec / DurSec locate the event on the emulated clock
	// (KindEmuStage; DurSec is the episode total for KindEmuEpisode).
	StartSec float64 `json:"start_sec,omitempty"`
	DurSec   float64 `json:"dur_sec,omitempty"`
	// FullService is the time-at-full-service fraction (KindSimSummary).
	FullService float64 `json:"full_service,omitempty"`
	// RestoringH is time spent inside restoration-latency windows, in
	// hours (KindSimSummary of a latency-aware replay).
	RestoringH float64 `json:"restoring_h,omitempty"`
	// Anomaly is the solver-health reason code (KindSolverAnomaly).
	Anomaly string `json:"anomaly,omitempty"`
	// Phase is the simplex phase of a solver-health event (1 or 2; 0 when
	// the finding precedes phase entry).
	Phase int `json:"phase,omitempty"`
	// Iter is the pivot count a solver-health finding anchors to.
	Iter int `json:"iter,omitempty"`
	// Value is the reason-specific magnitude of a solver-health event.
	Value float64 `json:"value,omitempty"`
	// Series is the downsampled per-probe objective trajectory of one phase
	// (KindSolverHealth).
	Series []float64 `json:"series,omitempty"`
	// Flow is the flow index of a flow-level attribution event (-0 omitted;
	// scenario-level attribution events leave it unset).
	Flow int `json:"flow,omitempty"`
	// Link is the IP-link index of a sensitivity event (KindSensitivity on a
	// per-link capacity row).
	Link int `json:"link,omitempty"`
	// Fiber is the fiber-span index a sensitivity or what-if event
	// aggregates over (-1 when the row maps to no single fiber).
	Fiber int `json:"fiber,omitempty"`
	// FDLow / FDHigh are the one-sided finite-difference derivative bounds
	// that validated a sensitivity event's dual (right and left derivative
	// of the optimal value in the row's RHS).
	FDLow  float64 `json:"fd_low,omitempty"`
	FDHigh float64 `json:"fd_high,omitempty"`
	// Detail carries free-form context (kept short; not for hot paths).
	Detail string `json:"detail,omitempty"`
}

// Ledger is a concurrency-safe append-only event store. The zero value is
// ready to use, but callers normally hold a *Ledger where nil means
// disabled — guard hot-path event construction behind a nil check so the
// off state stays allocation-free.
type Ledger struct {
	mu     sync.Mutex
	seq    int64
	events []Event
	logger *slog.Logger
	subs   []*Subscription
}

// New returns an empty ledger.
func New() *Ledger { return &Ledger{} }

// SetLogger mirrors every subsequently emitted event to lg at Debug level
// (the CLIs wire this to -v). A nil lg disables mirroring.
func (l *Ledger) SetLogger(lg *slog.Logger) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.logger = lg
	l.mu.Unlock()
}

// Emit appends ev (assigning its sequence number). Safe on a nil ledger.
func (l *Ledger) Emit(ev Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.seq++
	ev.Seq = l.seq
	l.events = append(l.events, ev)
	lg := l.logger
	var subs []*Subscription
	if len(l.subs) > 0 {
		l.pruneClosedLocked()
		subs = append(subs, l.subs...)
	}
	l.mu.Unlock()
	if len(subs) > 0 {
		l.publish(&ev, subs)
	}
	if lg != nil {
		lg.LogAttrs(context.Background(), slog.LevelDebug, "ledger",
			slog.String("kind", string(ev.Kind)),
			slog.Int("scenario", ev.Scenario),
			slog.Int("ticket", ev.Ticket),
			slog.String("reason", string(ev.Reason)),
			slog.String("solver", ev.Solver),
			slog.String("status", ev.Status),
			slog.Float64("gbps", ev.Gbps),
			slog.Float64("fraction", ev.Fraction),
		)
	}
}

// Len returns the number of recorded events (0 on nil).
func (l *Ledger) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Events returns a copy of the recorded events in arrival order (nil on a
// nil ledger).
func (l *Ledger) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.events...)
}

// Snapshot is the serialised ledger: schema version plus the event stream.
// It is the ledger section of a run bundle (internal/session), whose reader
// refuses a newer SchemaVersion.
type Snapshot struct {
	SchemaVersion int     `json:"schema_version"`
	Events        []Event `json:"events"`
}

// Snapshot exports the ledger's current state.
func (l *Ledger) Snapshot() *Snapshot {
	return &Snapshot{SchemaVersion: SchemaVersion, Events: l.Events()}
}

type ctxKey struct{}

// WithLedger attaches l to the context. A nil l returns ctx unchanged.
// Mirrors obs.WithRecorder so the public planning API can be instrumented
// without ledger types appearing in its signature.
func WithLedger(ctx context.Context, l *Ledger) context.Context {
	if l == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, l)
}

// FromContext returns the Ledger attached to ctx, or nil.
func FromContext(ctx context.Context) *Ledger {
	l, _ := ctx.Value(ctxKey{}).(*Ledger)
	return l
}
