package eval

import (
	"context"

	"github.com/arrow-te/arrow/internal/optical"
	"github.com/arrow-te/arrow/internal/par"
	"github.com/arrow-te/arrow/internal/rwa"
	"github.com/arrow-te/arrow/internal/sim"
	"github.com/arrow-te/arrow/internal/stats"
	"github.com/arrow-te/arrow/internal/topo"
	"github.com/arrow-te/arrow/internal/traffic"
)

func init() {
	register(Experiment{
		ID:         "timeline",
		Title:      "One simulated year of cuts and repairs (B4)",
		PaperClaim: "operationalises §6.1: ARROW's restoration keeps delivered traffic high through the §2.2 failure process",
		Run:        runTimeline,
	})
	register(Experiment{
		ID:         "ext-clband",
		Title:      "Extension: C+L-band spectrum (Appendix A.10)",
		PaperClaim: "doubling usable spectrum with L-band raises restoration ratios; ARROW's abstraction is unchanged",
		Run:        runCLBand,
	})
}

func runTimeline(cfg Config) (*Result, error) {
	p := paramsFor("B4", true)
	tp, err := topo.B4(cfg.Seed + 5)
	if err != nil {
		return nil, err
	}
	pl, err := cfg.pipeline(tp, PipelineOptions{Cutoff: p.cutoff, NumTickets: p.tickets, Seed: cfg.Seed, MaxScenarios: p.maxScenarios})
	if err != nil {
		return nil, err
	}
	m := traffic.Generate(traffic.Options{Sites: tp.NumRouters(), Count: 1, MaxFlows: p.maxFlows, TotalGbps: 1, Seed: cfg.Seed + 7})[0]
	base, err := pl.BaseNetwork(m, p.tunnels)
	if err != nil {
		return nil, err
	}
	n := base.Scaled(3.0)

	horizon := 90.0 * 24 // one quarter in fast mode
	if !cfg.Fast {
		horizon = 365 * 24
	}
	events := sim.GenerateTimeline(len(tp.Opt.Fibers), sim.TimelineOptions{
		DurationH: horizon, CutsPerMonth: 8, Seed: cfg.Seed + 17,
	})
	project := func(cut []int) []int { return tp.Opt.FailedLinks(cut) }

	r := &Result{ID: "timeline", Title: "Failure-timeline replay (B4, 3.0x demand)",
		Header: []string{"scheme", "avg delivered", "time at full service", "worst state", "unplanned hours"}}
	// Each scheme's solve + replay is independent of the others: fan out,
	// then emit rows in scheme order.
	schemes := []Scheme{SchemeArrow, SchemeArrowNaive, SchemeFFC1, SchemeECMP}
	rows, err := par.Map(context.Background(), cfg.Parallelism, len(schemes), func(_ context.Context, i int) ([]string, error) {
		s := schemes[i]
		al, restored, err := pl.SolveScheme(s, n)
		if err != nil {
			return nil, err
		}
		runner := sim.NewRunner(n, al, project, pl.Plain, restored)
		runner.ECMPRebalance = s == SchemeECMP
		rep := runner.Run(cfg.ctx(), events, horizon)
		return []string{string(s), f4(rep.Delivered), pct(rep.FullServiceFrac), f4(rep.Worst), f1(rep.UnplannedHours)}, nil
	})
	if err != nil {
		return nil, err
	}
	r.Rows = append(r.Rows, rows...)
	r.AddNote("%d cut/repair events over %.0f days; unplanned hours are failure states outside the probability cutoff, where ARROW falls back to no restoration", len(events), horizon/24)
	return r, nil
}

func runCLBand(cfg Config) (*Result, error) {
	// Build the same B4 overlay on a C-band grid, then re-run every
	// single-cut restoration with the fibers' spectrum DOUBLED (the extra
	// L-band slots arrive free, i.e. fully available for restoration).
	tp, err := topo.B4(cfg.Seed + 5)
	if err != nil {
		return nil, err
	}
	measure := func(extraSlots int) (*stats.CDF, error) {
		var net *optical.Network = tp.Opt
		if extraSlots > 0 {
			net = expandSpectrum(tp, extraSlots)
		}
		var ratios []float64
		for f := range net.Fibers {
			if net.ProvisionedGbpsOnFiber(f) == 0 {
				continue
			}
			u, err := rwa.RestorationRatio(net, f, 3, true, true)
			if err != nil {
				return nil, err
			}
			ratios = append(ratios, u)
		}
		return stats.NewCDF(ratios), nil
	}
	cBand, err := measure(0)
	if err != nil {
		return nil, err
	}
	clBand, err := measure(tp.Opt.SlotCount) // L-band doubles the grid
	if err != nil {
		return nil, err
	}
	r := &Result{ID: "ext-clband", Title: "Restoration ratio: C band vs C+L band (B4)",
		Header: []string{"percentile", "C band U", "C+L band U"}}
	for _, p := range []float64{10, 25, 50, 75, 90} {
		r.AddRow(f1(p), f2(cBand.Percentile(p)), f2(clBand.Percentile(p)))
	}
	r.AddNote("mean restoration ratio: C %.2f -> C+L %.2f; the LotteryTicket abstraction needs no change (Appendix A.10)",
		mean(cBand), mean(clBand))
	return r, nil
}

func mean(c *stats.CDF) float64 {
	s := 0.0
	for _, p := range []float64{5, 15, 25, 35, 45, 55, 65, 75, 85, 95} {
		s += c.Percentile(p)
	}
	return s / 10
}

// expandSpectrum clones the topology's optical network onto a wider grid:
// existing lightpaths keep their slots and paths; the added L-band slots
// arrive free (noise-loaded, per Appendix A.10).
func expandSpectrum(tp *topo.Topology, extra int) *optical.Network {
	src := tp.Opt
	out := optical.NewNetwork(src.NumROADMs, src.SlotCount+extra)
	for _, f := range src.Fibers {
		out.AddFiber(f.A, f.B, f.LengthKm)
	}
	for _, l := range src.IPLinks {
		waves := make([]optical.Lightpath, len(l.Waves))
		copy(waves, l.Waves)
		if _, err := out.Provision(l.Src, l.Dst, waves); err != nil {
			panic(err) // same slots on a wider grid always fit
		}
	}
	return out
}
