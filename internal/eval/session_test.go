package eval

import (
	"context"
	"runtime"
	"testing"

	"github.com/arrow-te/arrow/internal/emu"
	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/par"
	"github.com/arrow-te/arrow/internal/plan"
	"github.com/arrow-te/arrow/internal/topo"
)

// withSinks is the context a recorded run reads its sinks from; any of the
// three may be nil.
func withSinks(rec obs.Recorder, led *ledger.Ledger, prof *obs.StageProfiler) context.Context {
	return obs.WithProfiler(ledger.WithLedger(obs.WithRecorder(context.Background(), rec), led), prof)
}

// withSettings attaches a probe period and a worker budget to ctx.
func withSettings(ctx context.Context, healthEvery, workers int) context.Context {
	return par.WithWorkers(obs.WithHealthEvery(ctx, healthEvery), workers)
}

// TestExperimentsReachEverySolve holds the experiments to the session's
// settings: every TE solve an experiment issues, not only its pipeline's
// offline stage, runs under the Config's recorder, health probing and worker
// count.
func TestExperimentsReachEverySolve(t *testing.T) {
	run := func(t *testing.T, id string, cfg Config) *obs.Registry {
		t.Helper()
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %s is not registered", id)
		}
		reg := obs.NewRegistry()
		cfg.Fast, cfg.Seed, cfg.Recorder = true, 1, reg
		if _, err := e.Run(cfg); err != nil {
			t.Fatal(err)
		}
		return reg
	}

	t.Run("table9 probes its TE solves", func(t *testing.T) {
		// table9 builds no pipeline: its only LPs are the two-phase solves.
		reg := run(t, "table9", Config{Parallelism: 1, HealthEvery: 1})
		if reg.Counter("lp.solves") == 0 {
			t.Fatal("table9 recorded no LP solve")
		}
		if got := reg.Counter("lp.health.probes"); got == 0 {
			t.Errorf("lp.health.probes = 0 over %d LP solves at HealthEvery 1", reg.Counter("lp.solves"))
		}
	})

	t.Run("probed experiments are numerically clean", func(t *testing.T) {
		// A probed session of table5, table9 and ablation-alpha: the probes
		// run (table9's LPs alone are too short for a 32-pivot period), find
		// no anomaly, and every certificate passes. table5's sweep is memoised
		// across recorders; dropping the memo makes it solve under this one.
		ResetSweepCache()
		probes := int64(0)
		for _, id := range []string{"table5", "table9", "ablation-alpha"} {
			reg := run(t, id, Config{Parallelism: 1, HealthEvery: 32})
			probes += reg.Counter("lp.health.probes")
			if v := reg.Counter("lp.health.anomalies"); v != 0 {
				t.Errorf("%s: lp.health.anomalies = %d", id, v)
			}
			if v := reg.Counter("lp.cert_failures"); v != 0 {
				t.Errorf("%s: lp.cert_failures = %d", id, v)
			}
		}
		if probes == 0 {
			t.Error("lp.health.probes = 0 over the session at HealthEvery 32")
		}
	})

	t.Run("ablation-alpha honours Parallelism 1", func(t *testing.T) {
		if runtime.NumCPU() < 2 {
			t.Skip("a 1-CPU host runs 1 worker whatever the setting")
		}
		reg := run(t, "ablation-alpha", Config{Parallelism: 1})
		if h, ok := reg.Snapshot().Histograms["par.queue_wait_seconds"]; ok && h.Count > 0 {
			t.Errorf("%d par.queue_wait_seconds observations at Parallelism 1", h.Count)
		}
		if idle := reg.Counter("par.idle_ns"); idle != 0 {
			t.Errorf("par.idle_ns = %d at Parallelism 1", idle)
		}
	})

	t.Run("ablation-alpha records its TE solves", func(t *testing.T) {
		reg := run(t, "ablation-alpha", Config{Parallelism: 1})
		// The same pipeline alone: what ablation-alpha records beyond it is
		// its three te.Arrow solves, each at least a Phase I and a Phase II.
		p := paramsFor("B4", true)
		tp, err := topo.B4(1 + 5)
		if err != nil {
			t.Fatal(err)
		}
		offline := obs.NewRegistry()
		if _, err := BuildPipelineContext(obs.WithRecorder(context.Background(), offline), tp, PipelineOptions{
			Cutoff: p.cutoff, NumTickets: 20, Seed: 1, MaxScenarios: p.maxScenarios, Parallelism: 1,
		}); err != nil {
			t.Fatal(err)
		}
		if te := reg.Counter("lp.solves") - offline.Counter("lp.solves"); te < 6 {
			t.Errorf("the three TE solves counted %d lp.solves, want >= 6", te)
		}
	})
}

// TestContextRouteReachesEverySolve attaches a probe period and a worker
// budget to nothing but the context and holds each layer that reads them to
// both: plan.Build's RWA solves, RunRecorded's pipeline and TE solves, and
// emu's restoration LP all probe, and the fan-outs keep to a budget of one
// worker (no queue waits, no idle time), which their default would not.
func TestContextRouteReachesEverySolve(t *testing.T) {
	const healthEvery, workers = 8, 1
	// probed reports which solvers logged a solver_health summary.
	probed := func(led *ledger.Ledger) map[string]bool {
		out := map[string]bool{}
		for _, ev := range led.Events() {
			if ev.Kind == ledger.KindSolverHealth {
				out[ev.Solver] = true
			}
		}
		return out
	}
	check := func(t *testing.T, reg *obs.Registry, fansOut bool) {
		t.Helper()
		if reg.Counter("lp.health.probes") == 0 {
			t.Errorf("lp.health.probes = 0 with a probe period of %d on the context", healthEvery)
		}
		if !fansOut || runtime.NumCPU() < 2 {
			return
		}
		if reg.Counter("par.tasks") == 0 {
			t.Error("no worker-pool task recorded")
		}
		if h, ok := reg.Snapshot().Histograms["par.queue_wait_seconds"]; ok && h.Count > 0 {
			t.Errorf("%d par.queue_wait_seconds observations at a budget of %d", h.Count, workers)
		}
		if idle := reg.Counter("par.idle_ns"); idle != 0 {
			t.Errorf("par.idle_ns = %d at a budget of %d", idle, workers)
		}
	}

	t.Run("plan.Build", func(t *testing.T) {
		tp, err := topo.B4(6)
		if err != nil {
			t.Fatal(err)
		}
		reg, led := obs.NewRegistry(), ledger.New()
		if _, err := plan.Build(withSettings(withSinks(reg, led, nil), healthEvery, workers), tp.Opt, nil, nil,
			plan.Options{Cutoff: 0.001, Tickets: 4, Seed: 1, MaxScenarios: 4}); err != nil {
			t.Fatal(err)
		}
		check(t, reg, true)
		if !probed(led)["rwa-assign"] {
			t.Error("no RWA solve logged its health")
		}
	})

	t.Run("RunRecorded", func(t *testing.T) {
		reg, led := obs.NewRegistry(), ledger.New()
		pl, _, _, err := RunRecorded(withSettings(withSinks(reg, led, nil), healthEvery, workers), 1, plan.Space{}, false)
		if err != nil {
			t.Fatal(err)
		}
		check(t, reg, true)
		solvers := probed(led)
		for _, s := range []string{"rwa-assign", "arrow-phase1", "arrow-phase2"} {
			if !solvers[s] {
				t.Errorf("no %s solve logged its health (logged: %v)", s, solvers)
			}
		}
		if o := pl.teOpts; o.LP.HealthEvery != healthEvery || o.Parallelism != workers {
			t.Errorf("the pipeline's TE options probe every %d pivots on %d workers, want %d and %d",
				o.LP.HealthEvery, o.Parallelism, healthEvery, workers)
		}
	})

	t.Run("emu.RunRestorationCtx", func(t *testing.T) {
		net, err := emu.Testbed()
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		if _, err := emu.RunRestorationCtx(withSettings(withSinks(reg, nil, nil), healthEvery, 0), net,
			[]int{emu.FiberDC}, emu.Config{NoiseLoading: true, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		check(t, reg, false)
	})
}
