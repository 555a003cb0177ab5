// Benchmarks regenerating every table and figure of the ARROW paper's
// evaluation, plus microbenchmarks of the core components and the ablation
// sweeps called out in DESIGN.md.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Each BenchmarkFigNN / BenchmarkTableNN times one full regeneration of the
// corresponding experiment in fast mode (same comparison structure as the
// paper, reduced sweep sizes for a single core). cmd/arrow-experiments
// prints the actual rows.
package arrow

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"github.com/arrow-te/arrow/internal/emu"
	"github.com/arrow-te/arrow/internal/eval"
	"github.com/arrow-te/arrow/internal/lp"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/par"
	"github.com/arrow-te/arrow/internal/rwa"
	"github.com/arrow-te/arrow/internal/sim"
	"github.com/arrow-te/arrow/internal/te"
	"github.com/arrow-te/arrow/internal/ticket"
	"github.com/arrow-te/arrow/internal/topo"
	"github.com/arrow-te/arrow/internal/traffic"
)

// benchExperiment times one registered experiment end to end.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := eval.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	for i := 0; i < b.N; i++ {
		res, err := e.Run(eval.Config{Fast: true, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// --- measurement-study figures (§2, Appendix) ---

func BenchmarkFig3FailureTickets(b *testing.B)      { benchExperiment(b, "fig3") }
func BenchmarkFig4LostCapacity(b *testing.B)        { benchExperiment(b, "fig4") }
func BenchmarkFig5SpectrumUtilization(b *testing.B) { benchExperiment(b, "fig5") }
func BenchmarkFig6RestorationRatio(b *testing.B)    { benchExperiment(b, "fig6") }
func BenchmarkFig21Deployments(b *testing.B)        { benchExperiment(b, "fig21") }
func BenchmarkFig22IPMapping(b *testing.B)          { benchExperiment(b, "fig22") }

// --- testbed figures (§5, Appendix A.6/A.7) ---

func BenchmarkFig12Restoration(b *testing.B)   { benchExperiment(b, "fig12") }
func BenchmarkFig17PathInflation(b *testing.B) { benchExperiment(b, "fig17") }
func BenchmarkFig19ROADMsPerCut(b *testing.B)  { benchExperiment(b, "fig19") }
func BenchmarkFig20AmpSettling(b *testing.B)   { benchExperiment(b, "fig20") }

// --- simulation figures and tables (§6) ---

func BenchmarkFig13Availability(b *testing.B) { benchExperiment(b, "fig13") }
func BenchmarkFig14TicketCount(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkFig15Runtime(b *testing.B)      { benchExperiment(b, "fig15") }
func BenchmarkFig16RouterPorts(b *testing.B)  { benchExperiment(b, "fig16") }
func BenchmarkTable4Topologies(b *testing.B)  { benchExperiment(b, "table4") }
func BenchmarkTable5Gains(b *testing.B)       { benchExperiment(b, "table5") }
func BenchmarkTable6Modulations(b *testing.B) { benchExperiment(b, "table6") }
func BenchmarkTable8JointSize(b *testing.B)   { benchExperiment(b, "table8") }
func BenchmarkTable9BinaryILP(b *testing.B)   { benchExperiment(b, "table9") }

// --- component microbenchmarks ---

// BenchmarkLPSimplexRaw times the sparse revised simplex on a synthetic
// transportation LP with a few hundred rows, isolating the solver from the
// model builders.
func BenchmarkLPSimplexRaw(b *testing.B) {
	const src, dst = 20, 25
	m := lp.NewModel("bench-transport")
	x := make([][]lp.Var, src)
	for i := range x {
		x[i] = make([]lp.Var, dst)
		for j := range x[i] {
			cost := float64((i*7+j*13)%17 + 1)
			x[i][j] = m.AddVar(0, lp.Inf, cost, "x")
		}
	}
	for i := 0; i < src; i++ {
		var e lp.Expr
		for j := 0; j < dst; j++ {
			e = e.Plus(1, x[i][j])
		}
		m.AddConstr(e, lp.EQ, float64(50+i), "supply")
	}
	for j := 0; j < dst; j++ {
		var e lp.Expr
		for i := 0; i < src; i++ {
			e = e.Plus(1, x[i][j])
		}
		m.AddConstr(e, lp.LE, float64(60+j), "demand")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := lp.Solve(m, nil)
		if err != nil || sol.Status != lp.StatusOptimal {
			b.Fatalf("status %v err %v", sol.Status, err)
		}
	}
}

// BenchmarkLPSolveMedium times the sparse simplex on a mid-size TE-shaped
// LP (the workhorse underneath everything).
func BenchmarkLPSolveMedium(b *testing.B) {
	tp, err := topo.B4(6)
	if err != nil {
		b.Fatal(err)
	}
	m := traffic.Generate(traffic.Options{Sites: tp.NumRouters(), Count: 1, MaxFlows: 60, TotalGbps: 1000, Seed: 6})[0]
	net, err := tp.TENetwork(m.Flows, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := te.MaxThroughput(net); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRWASingleCut times the relaxed RWA for one fiber-cut scenario
// on the synthetic Facebook backbone.
func BenchmarkRWASingleCut(b *testing.B) {
	tp, err := topo.Facebook(6)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rwa.Solve(&rwa.Request{Net: tp.Opt, Cut: []int{i % len(tp.Opt.Fibers)}, K: 3, AllowTuning: true, AllowModulationChange: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTicketGeneration times Algorithm 1 (randomized rounding with
// feasibility filtering) for |Z|=40.
func BenchmarkTicketGeneration(b *testing.B) {
	tp, err := topo.B4(6)
	if err != nil {
		b.Fatal(err)
	}
	res, err := rwa.Solve(&rwa.Request{Net: tp.Opt, Cut: []int{0}, K: 3, AllowTuning: true, AllowModulationChange: true})
	if err != nil {
		b.Fatal(err)
	}
	if len(res.Failed) == 0 {
		b.Skip("cut fails no links on this seed")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ticket.Generate(res, ticket.Options{Count: 40, Seed: int64(i), CheckFeasibility: true})
	}
}

// BenchmarkArrowTwoPhase times the full Phase I + Phase II solve on B4.
func BenchmarkArrowTwoPhase(b *testing.B) {
	pl, n := benchPipeline(b, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := te.Arrow(n, pl.Scenarios, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnlineSolve times one Planner.Solve on the repository
// benchmark's online-te instance, cycling its four matrices in the
// workload's order, and reports the simplex's pivot work and the bytes of
// each solve once a first cycle has sized the pools. CI runs it for one
// iteration; for a before/after use the repository benchmark's online-te
// workload.
func BenchmarkOnlineSolve(b *testing.B) {
	_, p, sets := onlineInstance(b, context.Background())
	for _, ds := range sets {
		if _, err := p.Solve(ds, SolveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	q := freshPlanner(p, reg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Solve(sets[i%len(sets)], SolveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(reg.Counter("lp.pivot_work"))/float64(b.N), "pivot_work/op")
}

// benchPipeline builds the standard B4 benchmark instance.
func benchPipeline(b *testing.B, tickets int) (*eval.Pipeline, *te.Network) {
	b.Helper()
	tp, err := topo.B4(6)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := eval.BuildPipeline(tp, eval.PipelineOptions{Cutoff: 0.001, NumTickets: tickets, Seed: 1, MaxScenarios: 16})
	if err != nil {
		b.Fatal(err)
	}
	m := traffic.Generate(traffic.Options{Sites: tp.NumRouters(), Count: 1, MaxFlows: 40, TotalGbps: 1, Seed: 8})[0]
	base, err := pl.BaseNetwork(m, 8)
	if err != nil {
		b.Fatal(err)
	}
	return pl, base.Scaled(3)
}

// --- parallel scenario engine (worker-pool fan-out) ---

// benchWorkerCounts is the ladder exercised by the parallel benchmarks:
// sequential, two workers, and one worker per core.
func benchWorkerCounts() []int {
	counts := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		counts = append(counts, n)
	}
	return counts
}

// BenchmarkBuildPipeline times the offline per-scenario RWA + LotteryTicket
// stage at increasing worker counts. Outputs are identical at every setting
// (internal/eval TestBuildPipelineDeterministicAcrossParallelism).
func BenchmarkBuildPipeline(b *testing.B) {
	tp, err := topo.B4(6)
	if err != nil {
		b.Fatal(err)
	}
	tp.Opt.Graph() // pre-build the memoised optical graph; time the solves
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pl, err := eval.BuildPipeline(tp, eval.PipelineOptions{
					Cutoff: 0.001, NumTickets: 12, Seed: 1, MaxScenarios: 16,
					Parallelism: w,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(pl.Scenarios) == 0 {
					b.Fatal("empty pipeline")
				}
			}
		})
	}
}

// BenchmarkSimParallel times the failure-timeline replay (per-interval
// delivery evaluations fan out) at increasing worker counts.
func BenchmarkSimParallel(b *testing.B) {
	tp, err := topo.B4(6)
	if err != nil {
		b.Fatal(err)
	}
	pl, n := benchPipeline(b, 12)
	al, restored, err := pl.SolveScheme(eval.SchemeArrow, n)
	if err != nil {
		b.Fatal(err)
	}
	const horizon = 365 * 24.0
	events := sim.GenerateTimeline(len(tp.Opt.Fibers), sim.TimelineOptions{
		DurationH: horizon, CutsPerMonth: 16, Seed: 17,
	})
	project := func(cut []int) []int { return tp.Opt.FailedLinks(cut) }
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := sim.NewRunner(n, al, project, pl.Plain, restored)
				if rep := r.Run(par.WithWorkers(context.Background(), w), events, horizon); rep.Intervals == 0 {
					b.Fatal("no intervals evaluated")
				}
			}
		})
	}
}

// --- ablations (DESIGN.md) ---

// BenchmarkAblationAlpha sweeps the Phase I slack bound alpha, the paper's
// 0.2 / 0.1 / 0.05 sensitivity experiment (§3.3 footnote 4).
func BenchmarkAblationAlpha(b *testing.B) {
	pl, n := benchPipeline(b, 12)
	for _, alpha := range []float64{0.2, 0.1, 0.05} {
		b.Run(fmt.Sprintf("alpha=%.2f", alpha), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := te.Arrow(n, pl.Scenarios, &te.ArrowOptions{Alpha: alpha}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationStride sweeps the rounding stride delta of Algorithm 1.
func BenchmarkAblationStride(b *testing.B) {
	tp, err := topo.B4(6)
	if err != nil {
		b.Fatal(err)
	}
	res, err := rwa.Solve(&rwa.Request{Net: tp.Opt, Cut: []int{1}, K: 3, AllowTuning: true, AllowModulationChange: true})
	if err != nil {
		b.Fatal(err)
	}
	if len(res.Failed) == 0 {
		b.Skip("cut fails no links on this seed")
	}
	for _, delta := range []int{1, 2, 3, 5} {
		b.Run(fmt.Sprintf("delta=%d", delta), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ticket.Generate(res, ticket.Options{Count: 40, Stride: delta, Seed: int64(i), CheckFeasibility: true})
			}
		})
	}
}

// BenchmarkAblationTicketCount scales Phase I with the LotteryTicket
// budget (the Fig. 14/15 driver).
func BenchmarkAblationTicketCount(b *testing.B) {
	for _, tc := range []int{1, 10, 40} {
		b.Run(fmt.Sprintf("Z=%d", tc), func(b *testing.B) {
			pl, n := benchPipeline(b, tc)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := te.Arrow(n, pl.Scenarios, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLPvsILP compares the two-phase LP against the exact binary ILP
// (Table 9) on a small instance.
func BenchmarkLPvsILP(b *testing.B) {
	n := &te.Network{
		LinkCap: []float64{400, 800},
		Flows:   []te.Flow{{Src: 0, Dst: 1, Demand: 100}, {Src: 0, Dst: 1, Demand: 400}},
		Tunnels: [][]te.Tunnel{{{Links: []int{0}}}, {{Links: []int{1}}}},
	}
	scs := []te.RestorableScenario{{
		FailureScenario: te.FailureScenario{Prob: 0.01, FailedLinks: []int{0, 1}},
		TicketLinks:     []int{0, 1},
		Tickets: []ticket.Ticket{
			{Waves: []int{2, 3}, Gbps: []float64{200, 300}},
			{Waves: []int{1, 4}, Gbps: []float64{100, 400}},
			{Waves: []int{3, 2}, Gbps: []float64{300, 200}},
		},
	}}
	b.Run("two-phase-LP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := te.Arrow(n, scs, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary-ILP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := te.BinaryILP(n, scs, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPublicAPI times the full facade flow: build, plan, solve, react.
func BenchmarkPublicAPI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bd := NewBuilder(4, 16)
		fAB := bd.AddFiber(0, 1, 560)
		bd.AddFiber(1, 2, 560)
		fDC := bd.AddFiber(2, 3, 520)
		bd.AddFiber(3, 0, 520)
		if _, err := bd.AddIPLink(0, 1, 2, 200, []FiberID{fAB}); err != nil {
			b.Fatal(err)
		}
		if _, err := bd.AddIPLink(2, 3, 2, 200, []FiberID{fDC}); err != nil {
			b.Fatal(err)
		}
		net, err := bd.Build()
		if err != nil {
			b.Fatal(err)
		}
		planner, err := net.Plan(PlanOptions{Tickets: 8, Cutoff: 1e-4, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		plan, err := planner.Solve([]Demand{{Src: 0, Dst: 1, Gbps: 300}}, SolveOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := plan.OnFiberCut(fDC); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationROADMWaves compares ARROW's two parallel ROADM
// reconfiguration waves against serial per-device reconfiguration
// (Appendix A.6). The metric of interest is the emulated restoration
// latency, reported as a custom benchmark metric.
func BenchmarkAblationROADMWaves(b *testing.B) {
	for _, mode := range []struct {
		name   string
		serial bool
	}{{"parallel-waves", false}, {"serial", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				tr, err := emu.TestbedTrial(context.Background(), emu.Config{NoiseLoading: true, SerialROADM: mode.serial, Seed: 7})
				if err != nil {
					b.Fatal(err)
				}
				last = tr.DoneSec
			}
			b.ReportMetric(last, "restore-sec")
		})
	}
}

// BenchmarkOnlineEpoch runs the repository benchmark's online-te op: one
// Planner.Solve on the online-te instance, cycling its four matrices in the
// workload's order, then the plan's Throughput, Availability, AdmittedGbps
// and SplitRatios. It reports the bytes and allocations of each epoch once a
// first cycle has sized the pools. CI runs it for one iteration; for a
// before/after use the repository benchmark's online-te workload.
func BenchmarkOnlineEpoch(b *testing.B) {
	_, p, sets := onlineInstance(b, context.Background())
	epoch := func(i int) {
		tp, err := p.Solve(sets[i%len(sets)], SolveOptions{})
		if err != nil {
			b.Fatal(err)
		}
		tp.Throughput()
		tp.Availability()
		tp.AdmittedGbps()
		tp.SplitRatios()
	}
	for i := range sets {
		epoch(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		epoch(i)
	}
}
