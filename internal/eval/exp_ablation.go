package eval

import (
	"fmt"

	"github.com/arrow-te/arrow/internal/availability"
	"github.com/arrow-te/arrow/internal/rwa"
	"github.com/arrow-te/arrow/internal/te"
	"github.com/arrow-te/arrow/internal/ticket"
	"github.com/arrow-te/arrow/internal/topo"
	"github.com/arrow-te/arrow/internal/traffic"
)

func init() {
	register(Experiment{
		ID:         "thm31",
		Title:      "Theorem 3.1: probabilistic optimality of LotteryTickets",
		PaperClaim: "rho = 1 - (1 - kappa)^|Z|; more tickets exponentially increase the chance of containing the optimal candidate",
		Run:        runThm31,
	})
	register(Experiment{
		ID:         "ablation-alpha",
		Title:      "Ablation: Phase I slack bound alpha",
		PaperClaim: "the paper evaluates alpha in {0.2, 0.1, 0.05} (§3.3 footnote 4)",
		Run:        runAblationAlpha,
	})
	register(Experiment{
		ID:         "ablation-stride",
		Title:      "Ablation: randomized-rounding stride delta",
		PaperClaim: "delta widens ticket exploration; Theorem 3.1's kappa scales as 1/delta per link",
		Run:        runAblationStride,
	})
}

func runThm31(cfg Config) (*Result, error) {
	tp, err := topo.B4(cfg.Seed + 5)
	if err != nil {
		return nil, err
	}
	// Use the first cut scenario with a genuinely fractional RWA solution.
	var res *rwa.Result
	for f := range tp.Opt.Fibers {
		r, err := rwa.Solve(&rwa.Request{
			Net: tp.Opt, Cut: []int{f}, K: 3, AllowTuning: true, AllowModulationChange: true,
			Recorder: cfg.Recorder, NoWarm: cfg.NoWarm, HealthEvery: cfg.HealthEvery,
		})
		if err != nil {
			return nil, err
		}
		if len(r.Failed) >= 2 && r.Objective > 0 {
			res = r
			break
		}
	}
	if res == nil {
		return nil, fmt.Errorf("thm31: no suitable scenario")
	}
	// Target: the greedy-integral candidate.
	target := rwa.MaxIntegralWaves(res)
	const delta = 2
	kappa := ticket.Kappa(res, target, delta)

	r := &Result{ID: "thm31", Title: "Theorem 3.1 on a B4 fiber-cut scenario",
		Header: []string{"|Z|", "rho (closed form)", "empirical hit rate"}}
	const batches = 400
	for _, z := range []int{1, 5, 10, 20, 40, 80} {
		rho := ticket.Rho(kappa, z)
		hits := 0
		for bIdx := 0; bIdx < batches; bIdx++ {
			tks := ticket.Generate(res, ticket.Options{Count: z, Stride: delta, Seed: cfg.Seed + int64(bIdx)*131})
			for _, tk := range tks {
				match := true
				for i := range target {
					if tk.Waves[i] != target[i] {
						match = false
						break
					}
				}
				if match {
					hits++
					break
				}
			}
		}
		r.AddRow(fi(z), f4(rho), f4(float64(hits)/batches))
	}
	r.AddNote("kappa = %.4f for the target candidate with delta=%d over %d failed links", kappa, delta, len(res.Failed))
	return r, nil
}

func runAblationAlpha(cfg Config) (*Result, error) {
	p := paramsFor("B4", true)
	tp, err := topo.B4(cfg.Seed + 5)
	if err != nil {
		return nil, err
	}
	pl, err := cfg.pipeline(tp, PipelineOptions{Cutoff: p.cutoff, NumTickets: 20, Seed: cfg.Seed, MaxScenarios: p.maxScenarios})
	if err != nil {
		return nil, err
	}
	m := traffic.Generate(traffic.Options{Sites: tp.NumRouters(), Count: 1, MaxFlows: p.maxFlows, TotalGbps: 1, Seed: cfg.Seed + 7})[0]
	base, err := pl.BaseNetwork(m, p.tunnels)
	if err != nil {
		return nil, err
	}
	n := base.Scaled(4.2)
	r := &Result{ID: "ablation-alpha", Title: "ARROW vs Phase I slack bound (B4, 4.2x demand)",
		Header: []string{"alpha", "throughput", "availability"}}
	for _, alpha := range []float64{0.2, 0.1, 0.05} {
		opts := pl.arrowOptions()
		opts.Alpha = alpha
		al, err := te.Arrow(n, pl.Scenarios, opts)
		if err != nil {
			return nil, err
		}
		ev := &availability.Evaluator{Net: n, Alloc: al}
		r.AddRow(f2(alpha), f4(al.Throughput(n)), f4(ev.Availability(pl.EvalScenarios(te.Restorations(pl.Scenarios, al.WinningTicket)))))
	}
	r.AddNote("alpha trades Phase I exploration freedom against plan realism; the paper reports robustness across 0.05-0.2")
	return r, nil
}

func runAblationStride(cfg Config) (*Result, error) {
	p := paramsFor("B4", true)
	tp, err := topo.B4(cfg.Seed + 5)
	if err != nil {
		return nil, err
	}
	m := traffic.Generate(traffic.Options{Sites: tp.NumRouters(), Count: 1, MaxFlows: p.maxFlows, TotalGbps: 1, Seed: cfg.Seed + 7})[0]
	r := &Result{ID: "ablation-stride", Title: "ARROW vs rounding stride (B4, 4.2x demand, |Z|=20)",
		Header: []string{"delta", "distinct feasible tickets/scenario", "throughput"}}
	for _, delta := range []int{1, 2, 3, 5} {
		pl, err := cfg.pipeline(tp, PipelineOptions{Cutoff: p.cutoff, NumTickets: 20, Stride: delta, Seed: cfg.Seed, MaxScenarios: p.maxScenarios})
		if err != nil {
			return nil, err
		}
		distinct := 0.0
		for _, sc := range pl.Scenarios {
			distinct += float64(len(sc.Tickets))
		}
		if len(pl.Scenarios) > 0 {
			distinct /= float64(len(pl.Scenarios))
		}
		base, err := pl.BaseNetwork(m, p.tunnels)
		if err != nil {
			return nil, err
		}
		n := base.Scaled(4.2)
		al, err := te.Arrow(n, pl.Scenarios, pl.arrowOptions())
		if err != nil {
			return nil, err
		}
		r.AddRow(fi(delta), f1(distinct), f4(al.Throughput(n)))
	}
	r.AddNote("larger strides explore more candidates per draw but more get dropped by the feasibility filter")
	return r, nil
}
