package sim

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/arrow-te/arrow/internal/par"
	"github.com/arrow-te/arrow/internal/te"
)

// latencyRunner builds a runner whose single planned scenario restores
// link 0 to full capacity, so delivery is 1.0 once the plan is in effect
// and 2/3 while it is not.
func latencyRunner(model LatencyModel) *Runner {
	n, project := simpleNet()
	al := &te.Allocation{B: []float64{150}, A: [][]float64{{75, 75}}}
	scenarios := []te.FailureScenario{{FailedLinks: []int{0}}}
	restored := []te.Restoration{{Links: []int{0}, Gbps: []float64{100}}}
	r := NewRunner(n, al, project, scenarios, restored)
	r.Latency = model
	return r
}

// TestLatencyWindowDefersRestoration pins the split semantics with an
// analytic one-hour latency: a 50-hour outage spends exactly one hour
// unrestored, and the report accounts for the window.
func TestLatencyWindowDefersRestoration(t *testing.T) {
	r := latencyRunner(ConstLatency{Sec: 3600})
	events := []Event{{TimeH: 10, Fiber: 0, Up: false}, {TimeH: 60, Fiber: 0, Up: true}}
	rep := r.Run(context.Background(), events, 100)

	if math.Abs(rep.RestoringHours-1) > 1e-9 {
		t.Fatalf("restoring %g h, want 1", rep.RestoringHours)
	}
	// [10,11): 100/150 without restoration; [11,60): fully restored.
	want := (99 + 100.0/150) / 100
	if math.Abs(rep.Delivered-want) > 1e-9 {
		t.Fatalf("delivered %g want %g", rep.Delivered, want)
	}
	if math.Abs(rep.FullServiceFrac-0.99) > 1e-9 {
		t.Fatalf("full service %g want 0.99", rep.FullServiceFrac)
	}
	if rep.RestoreLatency.Count != 1 || rep.RestoreLatency.P50 != 3600 {
		t.Fatalf("latency summary %+v", rep.RestoreLatency)
	}

	// The same replay without a latency model never leaves full service.
	r0 := latencyRunner(nil)
	rep0 := r0.Run(context.Background(), events, 100)
	if rep0.FullServiceFrac != 1 || rep0.RestoringHours != 0 || rep0.RestoreLatency.Count != 0 {
		t.Fatalf("zero-latency replay %+v", rep0)
	}
}

// TestLegacyLatencyCostsAvailability is the observatory's sim-side
// acceptance invariant: on the same timeline and seed, a legacy-scale
// restoration latency yields strictly less time at full service than a
// noise-loading-scale one.
func TestLegacyLatencyCostsAvailability(t *testing.T) {
	events := GenerateTimeline(2, TimelineOptions{DurationH: 5000, CutsPerMonth: 40, Seed: 3})

	legacy := latencyRunner(ConstLatency{Sec: 1021})
	noise := latencyRunner(ConstLatency{Sec: 8})
	lrep := legacy.Run(context.Background(), events, 5000)
	nrep := noise.Run(context.Background(), events, 5000)

	if lrep.FullServiceFrac >= nrep.FullServiceFrac {
		t.Fatalf("legacy full service %g not below noise loading %g",
			lrep.FullServiceFrac, nrep.FullServiceFrac)
	}
	if lrep.RestoringHours <= nrep.RestoringHours {
		t.Fatalf("legacy restoring %g h not above noise loading %g h",
			lrep.RestoringHours, nrep.RestoringHours)
	}
	if lrep.RestoreLatency.Count != nrep.RestoreLatency.Count {
		t.Fatalf("draw counts differ: %d vs %d",
			lrep.RestoreLatency.Count, nrep.RestoreLatency.Count)
	}
}

// TestLatencyReportScheduleIndependent pins determinism: latency draws live
// in the sequential sweep, so the report is bit-identical at any worker
// count and across repeated runs.
func TestLatencyReportScheduleIndependent(t *testing.T) {
	events := GenerateTimeline(2, TimelineOptions{DurationH: 3000, CutsPerMonth: 30, Seed: 7})
	base := func(workers int) *Report {
		r := latencyRunner(EmpiricalLatency{SamplesSec: []float64{8, 500, 1021}})
		r.LatencySeed = 11
		return r.Run(par.WithWorkers(context.Background(), workers), events, 3000)
	}
	want := base(1)
	if want.RestoreLatency.Count == 0 || want.RestoringHours == 0 {
		t.Fatalf("timeline exercised no latency windows: %+v", want)
	}
	for _, workers := range []int{2, 4, 8} {
		if got := base(workers); *got != *want {
			t.Fatalf("report differs at parallelism %d:\n got %+v\nwant %+v", workers, got, want)
		}
	}
}

// TestEmpiricalLatencyDraws covers the sample-set model edge cases.
func TestEmpiricalLatencyDraws(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if got := (EmpiricalLatency{}).RestoreLatencySec(rng, []int{0}); got != 0 {
		t.Fatalf("empty sample set drew %g", got)
	}
	one := EmpiricalLatency{SamplesSec: []float64{42}}
	if got := one.RestoreLatencySec(nil, []int{0}); got != 42 {
		t.Fatalf("single sample drew %g", got)
	}
	many := EmpiricalLatency{SamplesSec: []float64{1, 2, 3}}
	seen := map[float64]bool{}
	for i := 0; i < 100; i++ {
		seen[many.RestoreLatencySec(rng, []int{0})] = true
	}
	if len(seen) != 3 {
		t.Fatalf("uniform resampling hit %d of 3 samples", len(seen))
	}
}

// TestHarmlessCutDrawsNoLatency: cuts that fail no IP links must not open
// restoration windows or consume latency randomness.
func TestHarmlessCutDrawsNoLatency(t *testing.T) {
	n, _ := simpleNet()
	al := &te.Allocation{B: []float64{150}, A: [][]float64{{75, 75}}}
	// Projector: fiber 1 is dark, cutting it fails nothing.
	project := func(cut []int) []int {
		var out []int
		for _, f := range cut {
			if f == 0 {
				out = append(out, 0)
			}
		}
		return out
	}
	scenarios := []te.FailureScenario{{FailedLinks: []int{0}}}
	restored := []te.Restoration{{Links: []int{0}, Gbps: []float64{100}}}
	r := NewRunner(n, al, project, scenarios, restored)
	r.Latency = ConstLatency{Sec: 7200}
	events := []Event{{TimeH: 5, Fiber: 1, Up: false}, {TimeH: 50, Fiber: 1, Up: true}}
	rep := r.Run(context.Background(), events, 100)
	if rep.RestoreLatency.Count != 0 || rep.RestoringHours != 0 {
		t.Fatalf("harmless cut opened a latency window: %+v", rep)
	}
	if rep.Delivered != 1 {
		t.Fatalf("harmless cut degraded delivery to %g", rep.Delivered)
	}
}
