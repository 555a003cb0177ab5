package lp

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/arrow-te/arrow/internal/obs"
)

// healthFakeRecorder captures the flush for assertions without importing a
// real obs.Registry.
type healthFakeRecorder struct {
	counters map[string]int64
	observed map[string][]float64
}

func newHealthFakeRecorder() *healthFakeRecorder {
	return &healthFakeRecorder{counters: map[string]int64{}, observed: map[string][]float64{}}
}

func (f *healthFakeRecorder) Add(name string, delta int64) { f.counters[name] += delta }
func (f *healthFakeRecorder) Observe(name string, v float64) {
	f.observed[name] = append(f.observed[name], v)
}
func (f *healthFakeRecorder) Gauge(string, float64)                            {}
func (f *healthFakeRecorder) SpanDone(string, int64, time.Time, time.Duration) {}

// healthNetworkModel is a flow LP big enough to pivot for a while.
func healthNetworkModel(seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	const nodes = 40
	type arc struct {
		from, to int
		v        Var
	}
	m := NewModel("health-network")
	m.SetMaximize(true)
	var arcs []arc
	for i := 0; i < nodes; i++ {
		for d := 1; d <= 3; d++ {
			j := (i + d) % nodes
			v := m.AddVar(0, float64(5+rng.Intn(10)), 0, "arc")
			arcs = append(arcs, arc{i, j, v})
		}
	}
	t0 := m.AddVar(0, Inf, 1, "value")
	for n := 0; n < nodes; n++ {
		var e Expr
		for _, a := range arcs {
			if a.to == n {
				e = e.Plus(1, a.v)
			}
			if a.from == n {
				e = e.Plus(-1, a.v)
			}
		}
		switch n {
		case 0:
			e = e.Plus(1, t0)
		case nodes / 2:
			e = e.Plus(-1, t0)
		}
		m.AddConstr(e, EQ, 0, "conserve")
	}
	return m
}

// TestHealthProbesRecordAndStayClean: probes on a healthy solve produce
// samples, a populated report, zero anomalies, and tiny residuals.
func TestHealthProbesRecordAndStayClean(t *testing.T) {
	rec := newHealthFakeRecorder()
	sol, err := Solve(healthNetworkModel(35), &Options{HealthEvery: 4, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status %v", sol.Status)
	}
	h := sol.Health
	if h == nil {
		t.Fatal("Solution.Health nil with HealthEvery set")
	}
	if h.Every != 4 {
		t.Fatalf("Every = %d, want 4", h.Every)
	}
	if len(h.Samples) == 0 {
		t.Fatal("no health samples on a solve with many pivots")
	}
	if len(h.Anomalies) != 0 {
		t.Fatalf("healthy solve produced anomalies: %v", h.Anomalies)
	}
	if h.MaxResidual > 1e-6 {
		t.Fatalf("max residual %g on a healthy solve", h.MaxResidual)
	}
	for i, s := range h.Samples {
		if s.Iter%4 != 0 {
			t.Fatalf("sample %d at iter %d, want multiples of 4", i, s.Iter)
		}
		if s.Phase != 1 && s.Phase != 2 {
			t.Fatalf("sample %d phase %d", i, s.Phase)
		}
		if s.DegenRatio < 0 || s.DegenRatio > 1 {
			t.Fatalf("sample %d degenerate ratio %g out of [0,1]", i, s.DegenRatio)
		}
	}
	// Flush checks.
	if got := rec.counters["lp.health.probes"]; got != int64(len(h.Samples)) {
		t.Fatalf("lp.health.probes = %d, want %d", got, len(h.Samples))
	}
	if got := rec.counters["lp.health.anomalies"]; got != 0 {
		t.Fatalf("lp.health.anomalies = %d, want 0", got)
	}
	if n := len(rec.observed["lp.health.residual_inf"]); n != len(h.Samples) {
		t.Fatalf("residual_inf observations %d, want %d", n, len(h.Samples))
	}
}

// TestHealthProbesOffByDefault: no knob, no report, no health metrics.
func TestHealthProbesOffByDefault(t *testing.T) {
	rec := newHealthFakeRecorder()
	sol, err := Solve(healthNetworkModel(35), &Options{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Health != nil {
		t.Fatal("Health non-nil without HealthEvery")
	}
	if _, ok := rec.counters["lp.health.probes"]; ok {
		t.Fatal("lp.health.probes flushed with probes off")
	}
}

// TestHealthProbesPreserveSolve is the per-solve determinism guarantee:
// probes on (at several intervals) and probes off produce byte-identical
// solutions — same pivots, same vertex, same objective, same basis.
func TestHealthProbesPreserveSolve(t *testing.T) {
	for _, seed := range []int64{35, 99, 4242} {
		m := healthNetworkModel(seed)
		base, err := Solve(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, every := range []int{1, 7, 64} {
			probed, err := Solve(healthNetworkModel(seed), &Options{HealthEvery: every})
			if err != nil {
				t.Fatal(err)
			}
			if probed.Iterations != base.Iterations {
				t.Fatalf("seed %d every %d: %d iterations vs %d unprobed", seed, every, probed.Iterations, base.Iterations)
			}
			if probed.Objective != base.Objective {
				t.Fatalf("seed %d every %d: objective %v vs %v", seed, every, probed.Objective, base.Objective)
			}
			if !reflect.DeepEqual(probed.X, base.X) {
				t.Fatalf("seed %d every %d: solution vector differs with probes on", seed, every)
			}
			if !reflect.DeepEqual(probed.Basis, base.Basis) {
				t.Fatalf("seed %d every %d: final basis differs with probes on", seed, every)
			}
		}
	}
}

// TestHealthWarmSolvesProbed: SolveWithBasis carries the probes too, and a
// healthy warm solve stays anomaly-free.
func TestHealthWarmSolvesProbed(t *testing.T) {
	m := healthNetworkModel(35)
	cold, err := Solve(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := SolveWithBasis(healthNetworkModel(35), cold.Basis, &Options{HealthEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Health == nil {
		t.Fatal("warm Solution.Health nil with HealthEvery set")
	}
	if len(warm.Health.Anomalies) != 0 {
		t.Fatalf("healthy warm solve produced anomalies: %v", warm.Health.Anomalies)
	}
}

// TestHealthStallDetector drives the windowed detector directly: a flat
// objective for healthStallWindows windows raises exactly one stall
// anomaly per phase, and any real progress resets the window.
func TestHealthStallDetector(t *testing.T) {
	h := newHealthState(8, 4)
	// Progress, then a near-flat stretch one window short of the trigger.
	h.record(2, 8, 100, 1e-12, 0, 1, 1, 1e-7)
	h.record(2, 16, 90, 1e-12, 0, 2, 1, 1e-7)
	h.record(2, 24, 90, 1e-12, 0, 3, 1, 1e-7)
	h.record(2, 32, 90, 1e-12, 0, 4, 1, 1e-7)
	if len(h.anomalies) != 0 {
		t.Fatalf("stall fired after %d flat windows: %v", healthStallWindows-1, h.anomalies)
	}
	// Real progress resets the run; flat windows must re-accumulate.
	h.record(2, 40, 80, 1e-12, 0, 5, 1, 1e-7)
	h.record(2, 48, 80, 1e-12, 0, 6, 1, 1e-7)
	h.record(2, 56, 80, 1e-12, 0, 7, 1, 1e-7)
	if len(h.anomalies) != 0 {
		t.Fatalf("stall fired before the window refilled: %v", h.anomalies)
	}
	h.record(2, 64, 80, 1e-12, 0, 8, 1, 1e-7)
	if len(h.anomalies) != 1 || h.anomalies[0].Reason != AnomalyStall {
		t.Fatalf("anomalies = %v, want one stall", h.anomalies)
	}
	if h.anomalies[0].Phase != 2 || h.anomalies[0].Iter != 64 {
		t.Fatalf("stall anomaly at phase %d iter %d", h.anomalies[0].Phase, h.anomalies[0].Iter)
	}
	// Continued stalling does not duplicate the (reason, phase) anomaly.
	h.record(2, 72, 80, 1e-12, 0, 9, 1, 1e-7)
	if len(h.anomalies) != 1 {
		t.Fatalf("stall anomaly duplicated: %v", h.anomalies)
	}
	// A phase change resets both the window and the dedup key.
	h.record(1, 80, 80, 1e-12, 0, 1, 2, 1e-7)
	if len(h.anomalies) != 1 {
		t.Fatalf("phase transition raised an anomaly: %v", h.anomalies)
	}
}

// TestHealthDriftDetector: a residual above healthDriftFactor×feasTol is an
// anomaly; below it is not.
func TestHealthDriftDetector(t *testing.T) {
	h := newHealthState(8, 4)
	h.record(2, 8, 10, 0.9e-4, 0, 1, 1, 1e-7)
	if len(h.anomalies) != 0 {
		t.Fatalf("drift fired below threshold: %v", h.anomalies)
	}
	h.record(2, 16, 9, 2e-4, 0, 2, 1, 1e-7)
	if len(h.anomalies) != 1 || h.anomalies[0].Reason != AnomalyResidualDrift {
		t.Fatalf("anomalies = %v, want one residual_drift", h.anomalies)
	}
	if h.maxRes != 2e-4 {
		t.Fatalf("maxRes = %g, want 2e-4", h.maxRes)
	}
}

// TestHealthWarmFallbackAnomaly: a warm solve forced onto the cold-fallback
// path records the warm_repair_fallback anomaly and still solves correctly.
// The install/factorise repair machinery handles every externally
// constructible basis, so the fallback is exercised via its entry point
// directly, exactly as solveWarm invokes it.
func TestHealthWarmFallbackAnomaly(t *testing.T) {
	m := NewModel("fallback")
	m.SetMaximize(true)
	x := m.AddVar(0, Inf, 3, "x")
	y := m.AddVar(0, Inf, 2, "y")
	m.AddConstr(Expr{}.Plus(1, x).Plus(1, y), LE, 4, "c1")
	m.AddConstr(Expr{}.Plus(1, x).Plus(3, y), LE, 6, "c2")
	sx, err := newSimplex(m, &Options{HealthEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	wi := &WarmInfo{Repairs: 3}
	sx.warm = wi
	sol, err := sx.warmFallbackCold(wi)
	if err != nil {
		t.Fatal(err)
	}
	sx.attachHealth(sol)
	if sol.Status != StatusOptimal || math.Abs(sol.Objective-12) > 1e-6 {
		t.Fatalf("fallback solve: status %v obj %g", sol.Status, sol.Objective)
	}
	var fb *Anomaly
	for i := range sol.Health.Anomalies {
		if sol.Health.Anomalies[i].Reason == AnomalyWarmRepairFallback {
			fb = &sol.Health.Anomalies[i]
		}
	}
	if fb == nil {
		t.Fatalf("anomalies %v, want warm_repair_fallback", sol.Health.Anomalies)
	}
	if fb.Value != 3 {
		t.Fatalf("fallback anomaly value %g, want the repair count 3", fb.Value)
	}
}

// TestHealthPhaseSeries: per-phase extraction returns each phase's
// objective trajectory in order.
func TestHealthPhaseSeries(t *testing.T) {
	h := &HealthReport{Samples: []HealthSample{
		{Phase: 1, Obj: 5}, {Phase: 1, Obj: 2}, {Phase: 2, Obj: -1}, {Phase: 2, Obj: -3},
	}}
	if got := h.PhaseSeries(1); !reflect.DeepEqual(got, []float64{5, 2}) {
		t.Fatalf("phase 1 series %v", got)
	}
	if got := h.PhaseSeries(2); !reflect.DeepEqual(got, []float64{-1, -3}) {
		t.Fatalf("phase 2 series %v", got)
	}
	var nilReport *HealthReport
	if got := nilReport.PhaseSeries(1); got != nil {
		t.Fatalf("nil report series %v", got)
	}
}

// TestHealthFlushAnomalyCounters: per-reason counters come out of the flush.
func TestHealthFlushAnomalyCounters(t *testing.T) {
	sx := &simplex{health: newHealthState(8, 2)}
	sx.health.note(AnomalyStall, 2, 16, 0, "test")
	sx.health.note(AnomalyCyclingSuspect, 1, 8, 40, "test")
	rec := newHealthFakeRecorder()
	sx.flushHealthMetrics(rec)
	if rec.counters["lp.health.anomalies"] != 2 {
		t.Fatalf("anomalies counter %d", rec.counters["lp.health.anomalies"])
	}
	if rec.counters["lp.health.anomaly.stall"] != 1 || rec.counters["lp.health.anomaly.cycling_suspect"] != 1 {
		t.Fatalf("per-reason counters %v", rec.counters)
	}
}

// TestAnomalyReasonsStable guards the reason-code vocabulary the obs layer
// derives counter names from.
func TestAnomalyReasonsStable(t *testing.T) {
	want := []AnomalyReason{"stall", "residual_drift", "warm_repair_fallback", "cycling_suspect"}
	if got := AnomalyReasons(); !reflect.DeepEqual(got, want) {
		t.Fatalf("AnomalyReasons() = %v, want %v", got, want)
	}
	a := Anomaly{Reason: AnomalyStall, Phase: 2, Iter: 10, Value: 0.5, Detail: "d"}
	if s := a.String(); s == "" || s[:5] != "stall" {
		t.Fatalf("String() = %q", s)
	}
	_ = fmt.Sprintf("%v", a)
}

// TestAnomalyCountersInCoreSchema is the conformance test the core counter
// schema's comment promises: every reason code's per-reason
// counter (and the aggregate) must be part of the core counter schema, so
// snapshots always carry the full detector vocabulary even on clean runs.
func TestAnomalyCountersInCoreSchema(t *testing.T) {
	core := map[string]bool{}
	for _, d := range obs.CounterDocs() {
		core[d.Name] = true
	}
	for _, want := range []string{"lp.health.probes", "lp.health.anomalies"} {
		if !core[want] {
			t.Errorf("core counter schema missing %q", want)
		}
	}
	for _, r := range AnomalyReasons() {
		if key := "lp.health.anomaly." + string(r); !core[key] {
			t.Errorf("core counter schema missing per-reason counter %q", key)
		}
	}
}
