package lp

import (
	"fmt"
	"math"

	"github.com/arrow-te/arrow/internal/obs"
)

// This file is the solver's numerical-health observatory: per-solve
// iteration probes sampled every Options.HealthEvery pivots, plus typed
// anomaly detectors. Probes read solver state (objective, primal residual,
// degeneracy, eta-file depth) but never write it, so the pivot sequence —
// and therefore every solution byte — is identical with probes on or off.
// The samples and anomalies flush to the Recorder under lp.health.* and are
// attached to the Solution as a HealthReport for callers (the TE layer
// turns them into solver_health / solver_anomaly flight-recorder events).

// AnomalyReason classifies one detected solver-health anomaly.
type AnomalyReason string

// Anomaly reason codes.
const (
	// AnomalyStall: the objective made no relative progress over
	// healthStallWindows consecutive probe windows while the solver kept
	// pivoting — the classic signature of a stalling (heavily degenerate or
	// numerically stuck) simplex.
	AnomalyStall AnomalyReason = "stall"
	// AnomalyResidualDrift: the primal residual ‖Ax−b‖∞ at a probe exceeded
	// healthDriftFactor × feasTol — the factorised basis updates have
	// drifted away from the constraint system they claim to satisfy.
	AnomalyResidualDrift AnomalyReason = "residual_drift"
	// AnomalyWarmRepairFallback: a warm-start basis was unrepairable and the
	// solve fell back to a full cold start. One fallback is survivable; a
	// storm of them means the warm-source plumbing is feeding garbage bases.
	AnomalyWarmRepairFallback AnomalyReason = "warm_repair_fallback"
	// AnomalyCyclingSuspect: the consecutive-degenerate-pivot count crossed
	// the Bland anti-cycling trigger. The solver survives (Bland's rule
	// guarantees termination) but spends pivots fighting a cycle.
	AnomalyCyclingSuspect AnomalyReason = "cycling_suspect"
)

// AnomalyReasons lists every reason code, in stable order. The obs layer
// derives per-reason counter names (lp.health.anomaly.<reason>) from it.
func AnomalyReasons() []AnomalyReason {
	return []AnomalyReason{AnomalyStall, AnomalyResidualDrift, AnomalyWarmRepairFallback, AnomalyCyclingSuspect}
}

// Detector thresholds. They are calibrated so a numerically healthy solve —
// including the standard recorded pipeline — produces zero anomalies, which
// is exactly what CI gates on.
const (
	// healthStallRelTol is the minimum relative objective movement per probe
	// window that counts as progress.
	healthStallRelTol = 1e-10
	// healthStallWindows is how many consecutive no-progress windows raise
	// an AnomalyStall. Short degenerate stretches at a vertex are normal;
	// several whole windows (each HealthEvery pivots wide) are not.
	healthStallWindows = 3
	// healthStallSpanRows additionally requires the flat stretch to span at
	// least this many times nRow pivots before a stall fires: degenerate
	// plateaus in healthy solves scale with the row dimension (network LPs
	// routinely sit flat for a fraction of nRow pivots while walking a
	// degenerate vertex), so a fixed window count alone would false-positive
	// on big healthy models probed at a small interval.
	healthStallSpanRows = 2
	// healthDriftFactor scales feasTol into the residual-drift threshold:
	// residuals are expected near feasTol; three decades above it is drift.
	healthDriftFactor = 1e3
)

// Anomaly is one typed solver-health finding.
type Anomaly struct {
	Reason AnomalyReason `json:"reason"`
	// Phase is the simplex phase the anomaly was detected in (1 or 2; 0 when
	// the anomaly precedes phase entry, e.g. a warm-repair fallback).
	Phase int `json:"phase"`
	// Iter is the pivot count at detection.
	Iter int `json:"iter"`
	// Value is the reason-specific magnitude: the residual for drift, the
	// stalled windows' relative progress for stall, the consecutive
	// degenerate count for cycling, the repair count for fallback.
	Value float64 `json:"value"`
	// Detail is a short human-readable elaboration.
	Detail string `json:"detail"`
}

func (a Anomaly) String() string {
	return fmt.Sprintf("%s@p%d/i%d (%.3g): %s", a.Reason, a.Phase, a.Iter, a.Value, a.Detail)
}

// HealthSample is one probe of the running solver's numerical state.
type HealthSample struct {
	// Iter is the cumulative pivot count at the probe.
	Iter int `json:"iter"`
	// Phase is 1 during the feasibility phase, 2 after; the dual simplex's
	// pivots count as phase 2 (they keep the basis optimal for the true
	// costs while they restore feasibility).
	Phase int `json:"phase"`
	// Obj is the current phase's objective (c·x in the solve sense; the
	// artificial sum during phase 1).
	Obj float64 `json:"obj"`
	// ObjDelta is the relative objective progress since the previous probe
	// of the same phase (-1 on the first probe of a phase).
	ObjDelta float64 `json:"obj_delta"`
	// ResidualInf is the primal residual ‖Ax−b‖∞ over the full column set.
	ResidualInf float64 `json:"residual_inf"`
	// DegenRatio is the degenerate fraction of the pivots in this window.
	DegenRatio float64 `json:"degen_ratio"`
	// EtaDepth is the eta-file length (pivots since last refactorisation).
	EtaDepth int `json:"eta_depth"`
	// Refactors is the cumulative refactorisation count.
	Refactors int `json:"refactors"`
}

// HealthReport is the per-solve health record attached to a Solution when
// Options.HealthEvery > 0.
type HealthReport struct {
	// Every is the probe interval the solve ran with.
	Every int `json:"every"`
	// Samples are the probes in pivot order.
	Samples []HealthSample `json:"samples,omitempty"`
	// Anomalies are the detector findings (deduplicated per reason+phase).
	Anomalies []Anomaly `json:"anomalies,omitempty"`
	// MaxResidual is the worst ‖Ax−b‖∞ seen across the probes.
	MaxResidual float64 `json:"max_residual"`
}

// PhaseSeries extracts the objective trajectory of one phase from the
// samples — the per-phase pivot-progress sparkline data the report renders.
// Empty when the phase recorded no probes.
func (h *HealthReport) PhaseSeries(phase int) []float64 {
	if h == nil {
		return nil
	}
	var out []float64
	for _, s := range h.Samples {
		if s.Phase == phase {
			out = append(out, s.Obj)
		}
	}
	return out
}

// healthState is the live probe machinery of one solve.
type healthState struct {
	every     int
	nRow      int
	samples   []HealthSample
	anomalies []Anomaly
	seen      map[AnomalyReason]map[int]bool // reason -> phase -> reported

	phase     int
	lastObj   float64
	haveLast  bool
	lastDegen int // degenTotal at the previous probe
	stallRuns int // consecutive no-progress windows
	maxRes    float64

	res []float64 // probe-owned residual scratch (never shared with pivots)
}

func newHealthState(every, nRow int) *healthState {
	return &healthState{
		every: every,
		nRow:  nRow,
		seen:  map[AnomalyReason]map[int]bool{},
		res:   make([]float64, nRow),
	}
}

// note records an anomaly once per (reason, phase).
func (h *healthState) note(reason AnomalyReason, phase, iter int, value float64, detail string) {
	byPhase := h.seen[reason]
	if byPhase == nil {
		byPhase = map[int]bool{}
		h.seen[reason] = byPhase
	}
	if byPhase[phase] {
		return
	}
	byPhase[phase] = true
	h.anomalies = append(h.anomalies, Anomaly{Reason: reason, Phase: phase, Iter: iter, Value: value, Detail: detail})
}

// report packages the state for Solution.Health (nil state -> nil report).
func (h *healthState) report() *HealthReport {
	if h == nil {
		return nil
	}
	return &HealthReport{Every: h.every, Samples: h.samples, Anomalies: h.anomalies, MaxResidual: h.maxRes}
}

// primalResidualInf computes ‖b − Ax‖∞ over every column (structural,
// slack and artificial: with artificials included, Ax = b is the invariant
// the factorised updates are supposed to preserve, so any departure is
// numerical drift). Read-only on solver state; scratch is probe-owned.
func (sx *simplex) primalResidualInf() float64 {
	res := sx.health.res
	copy(res, sx.b)
	for j := 0; j < sx.nTot; j++ {
		if v := sx.x[j]; v != 0 {
			c := &sx.cols[j]
			for i, r := range c.rows {
				res[r] -= float64(c.vals[i] * v)
			}
		}
	}
	worst := 0.0
	for _, r := range res {
		if a := math.Abs(r); a > worst {
			worst = a
		}
	}
	return worst
}

// record ingests one raw probe measurement, appends the sample, and runs
// the windowed stall and residual-drift detectors. Split from healthProbe
// so the detector logic is unit-testable on synthetic sequences.
func (h *healthState) record(phase, iter int, obj, res float64, degenWin, etaDepth, refactors int, feasTol float64) {
	if phase != h.phase {
		// Phase transition: objective changes meaning, windows reset.
		h.phase = phase
		h.haveLast = false
		h.stallRuns = 0
	}
	if res > h.maxRes {
		h.maxRes = res
	}
	s := HealthSample{
		Iter: iter, Phase: phase, Obj: obj, ObjDelta: -1,
		ResidualInf: res, DegenRatio: float64(degenWin) / float64(h.every),
		EtaDepth: etaDepth, Refactors: refactors,
	}
	if h.haveLast {
		s.ObjDelta = math.Abs(obj-h.lastObj) / (1 + math.Abs(obj))
		if s.ObjDelta <= healthStallRelTol {
			h.stallRuns++
			if h.stallRuns >= healthStallWindows && h.stallRuns*h.every >= healthStallSpanRows*h.nRow {
				h.note(AnomalyStall, phase, iter, s.ObjDelta,
					fmt.Sprintf("no objective progress over %d probe windows (%d pivots)", h.stallRuns, h.stallRuns*h.every))
			}
		} else {
			h.stallRuns = 0
		}
	}
	h.lastObj = obj
	h.haveLast = true
	h.samples = append(h.samples, s)

	if drift := healthDriftFactor * feasTol; res > drift {
		h.note(AnomalyResidualDrift, phase, iter, res,
			fmt.Sprintf("primal residual %.3g above %.3g (= %g × feasTol)", res, drift, healthDriftFactor))
	}
}

// healthProbe takes one sample and runs the windowed detectors. Called from
// iterate every HealthEvery pivots; cost is the active phase's cost vector.
func (sx *simplex) healthProbe(cost []float64, phase1 bool) {
	h := sx.health
	phase := 2
	if phase1 {
		phase = 1
	}
	obj := 0.0
	for j := 0; j < sx.nTot; j++ {
		if v := sx.x[j]; v != 0 {
			obj += float64(cost[j] * v)
		}
	}
	res := sx.primalResidualInf()
	degenWin := sx.degenTotal - h.lastDegen
	h.lastDegen = sx.degenTotal
	h.record(phase, sx.iters, obj, res, degenWin, len(sx.etas), sx.refactors, feasTol)
}

// healthNoteCycling records the Bland-trigger crossing (called from iterate
// when anti-cycling pricing engages and probes are on).
func (sx *simplex) healthNoteCycling(phase1 bool) {
	phase := 2
	if phase1 {
		phase = 1
	}
	sx.health.note(AnomalyCyclingSuspect, phase, sx.iters, float64(sx.degenerate),
		fmt.Sprintf("%d consecutive degenerate pivots engaged Bland's rule", sx.degenerate))
}

// attachHealth hangs the probe record off the solution (no-op without one,
// or when the solve errored before producing a solution).
func (sx *simplex) attachHealth(sol *Solution) {
	if sx.health == nil || sol == nil {
		return
	}
	sol.Health = sx.health.report()
}

// flushHealthMetrics reports the probe record to the recorder under the
// lp.health.* schema (called from flushMetrics; recorder is non-nil).
func (sx *simplex) flushHealthMetrics(r obs.Recorder) {
	h := sx.health
	if h == nil {
		return
	}
	r.Add("lp.health.probes", int64(len(h.samples)))
	r.Add("lp.health.anomalies", int64(len(h.anomalies)))
	for _, a := range h.anomalies {
		r.Add("lp.health.anomaly."+string(a.Reason), 1)
	}
	for _, s := range h.samples {
		r.Observe("lp.health.residual_inf", s.ResidualInf)
		r.Observe("lp.health.degenerate_ratio", s.DegenRatio)
		r.Observe("lp.health.eta_depth", float64(s.EtaDepth))
		if s.ObjDelta >= 0 {
			r.Observe("lp.health.obj_progress", s.ObjDelta)
		}
	}
}
