package eval

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/sim"
	"github.com/arrow-te/arrow/internal/topo"
	"github.com/arrow-te/arrow/internal/traffic"
)

// pipelineFingerprint reduces a pipeline's artifacts to a comparable string
// covering everything the TE consumes: scenarios and their tickets, the
// naive candidate among them, and the fractional RWA solutions.
func pipelineFingerprint(p *Pipeline) string {
	return fmt.Sprintf("%v|%v|%v", p.Scenarios, p.Plain, func() []any {
		var out []any
		for _, r := range p.RWAResults {
			out = append(out, r.Failed, r.FracWaves, r.OrigWaves, r.GbpsPerWave)
		}
		return out
	}())
}

// ledgerBag canonicalises a ledger into a multiset of events with the
// schedule-dependent fields erased — sequence numbers, and the certificate
// pointer (whose address %+v would otherwise format; certificate CONTENT
// is validated by the solvers themselves on every solve) — for
// cross-worker-count comparison.
func ledgerBag(l *ledger.Ledger) map[string]int {
	bag := map[string]int{}
	for _, ev := range l.Events() {
		ev.Seq = 0
		ev.Cert = nil
		bag[fmt.Sprintf("%+v", ev)]++
	}
	return bag
}

// TestInstrumentationPreservesDeterminism is the observability layer's core
// guarantee: attaching a Recorder (with tracing enabled) and/or a flight-
// recorder Ledger must not change a single byte of any artifact, at any
// worker count. The instrumented builds at Parallelism 1 and 4 are compared
// against the uninstrumented Parallelism-1 baseline.
func TestInstrumentationPreservesDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds several full pipelines")
	}
	build := func(workers int, rec obs.Recorder, led *ledger.Ledger) *Pipeline {
		t.Helper()
		tp, err := topo.B4(6)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := BuildPipelineContext(withSinks(rec, led, nil), tp, PipelineOptions{
			Cutoff: 0.001, NumTickets: 8, Seed: 1, MaxScenarios: 12,
			Parallelism: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	tracingRegistry := func() *obs.Registry {
		r := obs.NewRegistry()
		r.EnableTrace()
		return r
	}

	baseline := build(1, nil, nil)
	want := pipelineFingerprint(baseline)
	regSeq, regPar := tracingRegistry(), tracingRegistry()
	ledSeq, ledPar := ledger.New(), ledger.New()
	for _, tc := range []struct {
		name string
		pl   *Pipeline
	}{
		{"instrumented sequential", build(1, regSeq, nil)},
		{"instrumented parallel", build(4, regPar, nil)},
		{"ledger sequential", build(1, nil, ledSeq)},
		{"ledger parallel", build(4, tracingRegistry(), ledPar)},
	} {
		if got := pipelineFingerprint(tc.pl); got != want {
			t.Errorf("%s pipeline differs from uninstrumented baseline", tc.name)
		}
	}
	// The ledger runs must have recorded a decision stream, and the
	// per-scenario content must be schedule-independent: the sequential and
	// parallel streams may interleave differently but must contain the same
	// events up to sequence numbers.
	if ledSeq.Len() == 0 {
		t.Error("ledger run recorded no events")
	}
	if got, want := ledgerBag(ledPar), ledgerBag(ledSeq); !reflect.DeepEqual(got, want) {
		t.Error("ledger event content differs between worker counts")
	}
	// The instrumented runs must actually have recorded something, or the
	// comparison above proves nothing.
	for name, reg := range map[string]*obs.Registry{"sequential": regSeq, "parallel": regPar} {
		s := reg.Snapshot()
		if s.Counters["rwa.solves"] == 0 || s.Counters["lp.pivots"] == 0 {
			t.Errorf("%s run recorded no work: rwa.solves=%d lp.pivots=%d",
				name, s.Counters["rwa.solves"], s.Counters["lp.pivots"])
		}
	}

	// The TE solve and the timeline replay must be equally oblivious to the
	// recorder. Solve the scheme on the baseline (uninstrumented) and on an
	// instrumented pipeline, then replay instrumented at 1 and 4 workers.
	m := traffic.Generate(traffic.Options{
		Sites: baseline.Topo.NumRouters(), Count: 1, MaxFlows: 40, TotalGbps: 1, Seed: 8,
	})[0]
	base, err := baseline.BaseNetwork(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	n := base.Scaled(3)
	al, restored, err := baseline.SolveScheme(SchemeArrow, n)
	if err != nil {
		t.Fatal(err)
	}
	solveLed := ledger.New()
	instrumented := build(1, tracingRegistry(), solveLed)
	alObs, restoredObs, err := instrumented.SolveScheme(SchemeArrow, n)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(al.B, alObs.B) || !reflect.DeepEqual(al.A, alObs.A) ||
		!reflect.DeepEqual(al.WinningTicket, alObs.WinningTicket) ||
		!reflect.DeepEqual(restored, restoredObs) {
		t.Error("TE allocation differs with a recorder and ledger attached")
	}
	// The solve must have left winner and solve events behind.
	winners, solves := 0, 0
	for _, ev := range solveLed.Events() {
		switch ev.Kind {
		case ledger.KindWinner:
			winners++
		case ledger.KindSolveEnd:
			solves++
			if ev.Cert == nil {
				t.Errorf("solve_end for %s carries no certificate", ev.Solver)
			}
		}
	}
	if winners != len(instrumented.Scenarios) || solves == 0 {
		t.Errorf("ledger recorded %d winners (want %d) and %d solves", winners, len(instrumented.Scenarios), solves)
	}

	const horizon = 90 * 24.0
	events := sim.GenerateTimeline(len(baseline.Topo.Opt.Fibers), sim.TimelineOptions{
		DurationH: horizon, CutsPerMonth: 8, Seed: 17,
	})
	replay := func(workers int, rec obs.Recorder, led *ledger.Ledger) sim.Report {
		r := sim.NewRunner(n, al, func(cut []int) []int { return baseline.Topo.Opt.FailedLinks(cut) },
			baseline.Plain, restored)
		return *r.Run(withSettings(withSinks(rec, led, nil), 0, workers), events, horizon)
	}
	wantRep := replay(1, nil, nil)
	for _, workers := range []int{1, 4} {
		reg := tracingRegistry()
		led := ledger.New()
		if got := replay(workers, reg, led); got != wantRep {
			t.Errorf("instrumented sim report at %d workers differs:\n  want %+v\n  got  %+v", workers, wantRep, got)
		}
		if reg.Snapshot().Counters["sim.intervals"] == 0 {
			t.Errorf("instrumented replay at %d workers recorded no intervals", workers)
		}
		if led.Len() != 1 || led.Events()[0].Kind != ledger.KindSimSummary {
			t.Errorf("replay at %d workers left %d ledger events, want one sim_summary", workers, led.Len())
		}
	}
}
