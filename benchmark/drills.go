package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/arrow-te/arrow/internal/availability"
	"github.com/arrow-te/arrow/internal/eval"
	"github.com/arrow-te/arrow/internal/graph"
	"github.com/arrow-te/arrow/internal/lp"
	"github.com/arrow-te/arrow/internal/noise"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/rwa"
	"github.com/arrow-te/arrow/internal/scenario"
	"github.com/arrow-te/arrow/internal/stats"
	"github.com/arrow-te/arrow/internal/te"
	"github.com/arrow-te/arrow/internal/ticket"
	"github.com/arrow-te/arrow/internal/traffic"
)

// A drill calls one layer's public functions directly, on the inputs of the
// workload it belongs to, one call at a time, with a span around each call.
// Drill times are read back from those spans; drill counts come from a
// registry of the drill's own. Every traced run executes every drill, so a
// traced run of any workload reports every per-layer metric.
var drills = []struct {
	workload string
	run      func(e *env, out map[string]float64) error
}{
	{"offline-plan", drillOfflinePlan},
	{"online-te", drillOnlineTE},
	{"cut-reaction", drillCutReaction},
	{"availability-sweep", drillAvailabilitySweep},
}

// runDrills returns the drilled metrics and each drill's spans, by workload.
func runDrills(e *env) (map[string]float64, map[string][]span, error) {
	out := map[string]float64{}
	spans := map[string][]span{}
	for _, d := range drills {
		de := *e
		de.tr = newTracer()
		if err := d.run(&de, out); err != nil {
			return nil, nil, fmt.Errorf("%s drill: %w", d.workload, err)
		}
		spans[d.workload] = de.tr.spans
	}
	return out, spans, nil
}

// spanQuantile is the q-quantile of the named spans' durations, in unit.
func spanQuantile(tr *tracer, name string, q float64, unit time.Duration) float64 {
	return percentile(seconds(tr.durations(name)), q) * float64(time.Second) / float64(unit)
}

func allocBytes(fn func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// drillOfflinePlan walks the offline stage one layer at a time on the B4
// instance: enumeration, cold RWA per cut set, ticket rounding per RWA
// result, then whole plans at one worker against all of them.
func drillOfflinePlan(e *env, out map[string]float64) error {
	tr := e.tr
	off, err := buildOffline(e)
	if err != nil {
		return err
	}
	opt := off.tp.Opt
	opt.Graph() // memoised: build it outside the spans, as the planner does
	probs := scenario.FailureProbabilities(len(opt.Fibers), scenario.DefaultShape, scenario.DefaultScale, instanceSeed)
	groups := make([]scenario.Group, len(off.tp.SRLGs))
	for i, g := range off.tp.SRLGs {
		groups[i] = scenario.Group{Name: g.Name, Fibers: g.Fibers, Prob: g.Prob}
	}
	reg := obs.NewRegistry()
	const enumerations = 5
	var set *scenario.Set
	for i := 0; i < enumerations; i++ {
		end := tr.root("bench.drill_enumerate")
		endCall := tr.begin("scenario.EnumerateCorrelated")
		set = scenario.EnumerateCorrelated(probs, groups, scenario.EnumOptions{K: e.sc.planCutSize, Cutoff: 1e-12, Recorder: reg})
		endCall()
		end()
	}
	out["scenario.enumerate_ms"] = spanQuantile(tr, "scenario.EnumerateCorrelated", 0.5, time.Millisecond)
	out["scenario.cutsets"] = float64(len(set.Scenarios))
	out["scenario.pruned"] = float64(reg.Counter("scenario.pruned")) / enumerations

	cuts := set.Scenarios[:min(e.sc.drillCuts, len(set.Scenarios))]
	request := func(cut []int) *rwa.Request {
		return &rwa.Request{Net: opt, Cut: cut, K: 3, AllowTuning: true, AllowModulationChange: true, Recorder: reg}
	}
	for i, sc := range cuts {
		end := tr.root("bench.drill_cutset")
		endCall := tr.begin("rwa.Solve")
		res, err := rwa.Solve(request(sc.Cut))
		endCall()
		if err == nil && len(res.Failed) > 0 {
			endCall = tr.begin("ticket.Generate")
			ticket.Generate(res, ticket.Options{Count: tickets - 1, Seed: instanceSeed + int64(i)*977, CheckFeasibility: true, Dedup: true})
			endCall()
		}
		end()
		if err != nil {
			return fmt.Errorf("rwa.Solve on cut %v: %w", sc.Cut, err)
		}
	}
	out["rwa.solve_us_p50"] = spanQuantile(tr, "rwa.Solve", 0.5, time.Microsecond)
	out["rwa.solve_us_p90"] = spanQuantile(tr, "rwa.Solve", 0.9, time.Microsecond)
	out["rwa.lp_pivots_per_solve"] = ratio(float64(reg.Counter("lp.pivots")), float64(reg.Counter("rwa.solves")))
	out["ticket.generate_us_p50"] = spanQuantile(tr, "ticket.Generate", 0.5, time.Microsecond)
	// Allocation is read around a second, span-free pass over the same cuts.
	bytes := allocBytes(func() {
		for _, sc := range cuts {
			_, _ = rwa.Solve(request(sc.Cut)) // the pass above checked these solves
		}
	})
	out["rwa.alloc_kb_per_solve"] = float64(bytes) / 1e3 / float64(len(cuts))

	// Parallel scaling of whole plans. With fewer than two cores there is
	// nothing to scale over and both numbers read 0 (invalid).
	const plans = 2
	times := map[int][]float64{}
	for _, workers := range []int{1, e.workers} {
		for slot := 0; slot < plans; slot++ {
			end := tr.root("bench.drill_plan")
			p, dur, err := off.plan(e, slot, workers)
			end()
			if err != nil {
				return err
			}
			times[workers] = append(times[workers], dur.Seconds())
			out["arrow.plan_scenarios"] = float64(p.NumScenarios())
		}
	}
	out["par.speedup"], out["par.efficiency"] = 0, 0
	if e.workers >= 2 {
		out["par.speedup"] = stats.Median(times[1]) / stats.Median(times[e.workers])
		out["par.efficiency"] = out["par.speedup"] / float64(e.workers)
	}
	return nil
}

// drillOnlineTE rebuilds the big instance through eval so the two phases and
// the phase-II master LP can be called and timed on their own.
func drillOnlineTE(e *env, out map[string]float64) error {
	tr := e.tr
	tp, err := e.sc.bigTopo(instanceSeed + 5)
	if err != nil {
		return err
	}
	end := tr.root("bench.drill_te")
	defer end()

	endCall := tr.begin("eval.BuildPipeline")
	pl, err := eval.BuildPipeline(tp, eval.PipelineOptions{Cutoff: e.sc.bigCutoff, NumTickets: tickets, Seed: instanceSeed, Parallelism: 1})
	endCall()
	if err != nil {
		return err
	}
	n, err := tp.TENetwork(scaledMatrices(e, tp)[0].Flows, 4)
	if err != nil {
		return err
	}

	reg := obs.NewRegistry()
	opts := &te.ArrowOptions{LP: &lp.Options{Recorder: reg}, CaptureSensitivity: true}
	endCall = tr.begin("te.ArrowPhase1")
	winners, err := te.ArrowPhase1(n, pl.Scenarios, opts)
	endCall()
	if err != nil {
		return err
	}
	endCall = tr.begin("te.ArrowPhase2")
	al, err := te.ArrowPhase2(n, pl.Scenarios, winners, opts)
	endCall()
	if err != nil {
		return err
	}
	if err := lp.CheckCertificate(al.Cert, 0); err != nil {
		return fmt.Errorf("phase II: %w", err)
	}
	out["te.phase1_s"] = spanQuantile(tr, "te.ArrowPhase1", 0.5, time.Second)
	out["te.phase2_s"] = spanQuantile(tr, "te.ArrowPhase2", 0.5, time.Second)
	out["te.pricing_rounds"] = float64(reg.Counter("te.pricing_rounds"))
	out["te.columns_priced"] = float64(reg.Counter("lp.columns_priced"))
	out["te.phase1_pivot_work"] = float64(reg.Counter("te.phase1_pivot_work"))

	// The phase-II master on its own: one cold solve, then a warm re-solve
	// after one more wavelength on a healthy capacity row.
	master := al.Sens.Model.Clone()
	stats := master.Stats()
	out["te.model_rows"], out["te.model_vars"] = float64(stats.Constrs), float64(stats.Vars)
	out["lp.rows"], out["lp.cols"], out["lp.nnz"] = float64(stats.Constrs), float64(stats.Vars), float64(stats.Nonzeros)
	var cold *lp.Solution
	bytes := allocBytes(func() {
		endCall = tr.begin("lp.Solve")
		cold, err = lp.Solve(master, nil)
		endCall()
	})
	if err != nil {
		return err
	}
	if err := lp.CheckCertificate(cold.Cert, 0); err != nil {
		return fmt.Errorf("cold master solve (%v): %w", cold.Status, err)
	}
	out["lp.cold_solve_s"] = spanQuantile(tr, "lp.Solve", 0.5, time.Second)
	out["lp.cold_pivots"] = float64(cold.Iterations)
	out["lp.us_per_pivot"] = ratio(out["lp.cold_solve_s"]*1e6, float64(cold.Iterations))
	out["lp.alloc_mb_per_solve"] = float64(bytes) / 1e6

	var row *te.CapRow
	for i := range al.Sens.CapRows {
		if al.Sens.CapRows[i].Scenario < 0 {
			row = &al.Sens.CapRows[i]
			break
		}
	}
	if row == nil {
		return fmt.Errorf("phase-II master has no healthy capacity row")
	}
	link := tp.Opt.LinkByID(row.Link)
	rhs := master.RHS(row.Constr)
	master.SetRHS(row.Constr, rhs+link.CapacityGbps()/float64(len(link.Waves)))
	endCall = tr.begin("lp.SolveWithBasis")
	warm, err := lp.SolveWithBasis(master, cold.Basis, nil)
	endCall()
	master.SetRHS(row.Constr, rhs)
	if err != nil {
		return err
	}
	if err := lp.CheckCertificate(warm.Cert, 0); err != nil {
		return fmt.Errorf("warm master re-solve (%v): %w", warm.Status, err)
	}
	out["lp.warm_resolve_ms"] = spanQuantile(tr, "lp.SolveWithBasis", 0.5, time.Millisecond)
	out["lp.warm_pivots"] = float64(warm.Iterations)
	return nil
}

// drillCutReaction takes one reaction apart: the public call, then the cold
// RWA, the integral assignment and the ROADM plan behind it, per planned
// fiber; and the path search under the RWA, per site pair.
func drillCutReaction(e *env, out map[string]float64) error {
	tr := e.tr
	big, err := buildBig(e)
	if err != nil {
		return err
	}
	plan, _, err := big.solve(e, 0)
	if err != nil {
		return err
	}
	cuts := plannedCuts(big.net, plan)
	cuts = cuts[:min(e.sc.drillCuts, len(cuts))]
	for _, f := range cuts {
		end := tr.root("bench.drill_reaction")
		endCall := tr.begin("arrow.OnFiberCut")
		_, err := plan.OnFiberCut(f)
		endCall()
		end()
		if err != nil {
			return err
		}
	}
	opt := big.tp.Opt
	for _, f := range cuts {
		end := tr.root("bench.drill_reaction_layers")
		endCall := tr.begin("rwa.Solve")
		res, err := rwa.Solve(&rwa.Request{Net: opt, Cut: []int{int(f)}, K: 3, AllowTuning: true, AllowModulationChange: true})
		endCall()
		if err != nil {
			end()
			return fmt.Errorf("rwa.Solve on fiber %d: %w", f, err)
		}
		endCall = tr.begin("rwa.AssignIntegral")
		asg, _ := rwa.AssignIntegral(res, res.OrigWaves)
		endCall()
		endCall = tr.begin("noise.BuildPlan")
		noise.BuildPlan(opt, res, asg)
		endCall()
		end()
	}
	react := spanQuantile(tr, "arrow.OnFiberCut", 0.5, time.Microsecond)
	out["arrow.react_p99_ms"] = spanQuantile(tr, "arrow.OnFiberCut", 0.99, time.Millisecond)
	solve := spanQuantile(tr, "rwa.Solve", 0.5, time.Microsecond)
	out["rwa.assign_integral_us_p50"] = spanQuantile(tr, "rwa.AssignIntegral", 0.5, time.Microsecond)
	out["noise.build_plan_us_p50"] = spanQuantile(tr, "noise.BuildPlan", 0.5, time.Microsecond)
	out["arrow.react_glue_frac"] = 1 - ratio(solve+out["rwa.assign_integral_us_p50"]+out["noise.build_plan_us_p50"], react)

	g := opt.Graph()
	for a := 0; a < opt.NumROADMs; a++ {
		for b := a + 1; b < opt.NumROADMs; b++ {
			end := tr.root("bench.drill_ksp")
			endCall := tr.begin("graph.KShortestPaths")
			g.KShortestPaths(graph.Node(a), graph.Node(b), 3, 0)
			endCall()
			end()
		}
	}
	out["graph.ksp_us_p50"] = spanQuantile(tr, "graph.KShortestPaths", 0.5, time.Microsecond)
	return nil
}

// drillAvailabilitySweep builds the fast B4 sweep instance and solves one
// grid cell per scheme at demand scale 3.0, then evaluates each allocation.
func drillAvailabilitySweep(e *env, out map[string]float64) error {
	tr := e.tr
	off, err := buildOffline(e)
	if err != nil {
		return err
	}
	end := tr.root("bench.drill_sweep")
	defer end()
	endCall := tr.begin("eval.BuildPipeline")
	pl, err := eval.BuildPipeline(off.tp, eval.PipelineOptions{Cutoff: 0.001, NumTickets: tickets, Seed: instanceSeed, MaxScenarios: 16, Parallelism: 1})
	endCall()
	if err != nil {
		return err
	}
	out["eval.pipeline_build_ms"] = spanQuantile(tr, "eval.BuildPipeline", 0.5, time.Millisecond)
	out["eval.sweep_cells"] = float64(sweepScales * len(eval.AllSchemes()))

	m := traffic.Generate(traffic.Options{Sites: off.tp.NumRouters(), Count: 1, MaxFlows: 40, TotalGbps: 1, Seed: instanceSeed + 7})[0]
	base, err := pl.BaseNetwork(m, 8)
	if err != nil {
		return err
	}
	n := base.Scaled(3.0)
	cells := []struct {
		scheme eval.Scheme
		span   string
		metric string
	}{
		{eval.SchemeArrow, "te.Arrow", "te.cell_arrow_s"},
		{eval.SchemeArrowNaive, "te.ArrowNaive", "te.cell_naive_s"},
		{eval.SchemeFFC1, "te.FFC1", "te.cell_ffc1_s"},
		{eval.SchemeFFC2, "te.FFC2", "te.cell_ffc2_s"},
		{eval.SchemeTeaVaR, "te.TeaVaR", "te.cell_teavar_s"},
		{eval.SchemeECMP, "te.ECMP", "te.cell_ecmp_s"},
	}
	const evaluations = 20
	for _, c := range cells {
		endCall := tr.begin(c.span)
		al, restored, err := pl.SolveScheme(c.scheme, n)
		endCall()
		if err != nil {
			return fmt.Errorf("%s: %w", c.scheme, err)
		}
		out[c.metric] = spanQuantile(tr, c.span, 0.5, time.Second)
		ev := &availability.Evaluator{Net: n, Alloc: al, ECMPRebalance: c.scheme == eval.SchemeECMP}
		scs := pl.EvalScenarios(restored)
		for i := 0; i < evaluations; i++ {
			endCall := tr.begin("availability.Availability")
			a := ev.Availability(scs)
			endCall()
			if !(a >= 0 && a <= 1) {
				return fmt.Errorf("%s: availability %v outside [0,1]", c.scheme, a)
			}
		}
	}
	out["availability.eval_us_p50"] = spanQuantile(tr, "availability.Availability", 0.5, time.Microsecond)
	return nil
}
