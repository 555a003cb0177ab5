package eval

import (
	"context"

	"github.com/arrow-te/arrow/internal/emu"
	"github.com/arrow-te/arrow/internal/noise"
	"github.com/arrow-te/arrow/internal/rwa"
	"github.com/arrow-te/arrow/internal/stats"
	"github.com/arrow-te/arrow/internal/topo"
)

func init() {
	register(Experiment{
		ID:         "fig12",
		Title:      "End-to-end restoration latency: legacy vs ARROW noise loading",
		PaperClaim: "restoring 2.8 Tbps takes 1,021 s with amplifier reconfiguration, 8 s with ARROW (127x)",
		Run:        runFig12,
	})
	register(Experiment{
		ID:         "fig17",
		Title:      "Path inflation of restoration paths",
		PaperClaim: "~50% of restoration paths are shorter than the primary path; all below 5,000 km",
		Run:        runFig17,
	})
	register(Experiment{
		ID:         "fig19",
		Title:      "ROADMs reconfigured per fiber cut",
		PaperClaim: "80% of cuts touch <=10 add/drop and <=6 intermediate ROADMs",
		Run:        runFig19,
	})
	register(Experiment{
		ID:         "fig20",
		Title:      "Legacy amplifier settling on a long chain",
		PaperClaim: "reconfiguring 4 wavelengths across 24 amplifiers takes ~14 minutes",
		Run:        runFig20,
	})
}

func runFig12(cfg Config) (*Result, error) {
	legacy, arrow, err := trialPair(context.Background(), cfg.Seed)
	if err != nil {
		return nil, err
	}
	r := &Result{ID: "fig12", Title: "Testbed restoration trial (fiber DC cut, 2.8 Tbps lost)",
		Header: []string{"mode", "restored (Tbps)", "latency (s)", "amps settled", "survivors disturbed"}}
	disturbed := func(t *emu.Trial) string {
		for _, s := range t.Series {
			if s.SurvivorPowerDB != 0 {
				return "yes"
			}
		}
		return "no"
	}
	r.AddRow("legacy", f1(legacy.RestoredGbps/1000), f1(legacy.DoneSec), fi(legacy.AmpsSettled), disturbed(legacy))
	r.AddRow("ARROW", f1(arrow.RestoredGbps/1000), f1(arrow.DoneSec), fi(arrow.AmpsSettled), disturbed(arrow))
	r.AddNote("speedup: %.0fx (paper: 1021 s vs 8 s = 127x)", legacy.DoneSec/arrow.DoneSec)
	return r, nil
}

func runFig17(cfg Config) (*Result, error) {
	tp, err := topo.Facebook(cfg.Seed + 5)
	if err != nil {
		return nil, err
	}
	inflate := func(allowTuning bool) ([]float64, float64) {
		var ratios []float64
		maxKm := 0.0
		for f := range tp.Opt.Fibers {
			res, err := rwa.Solve(&rwa.Request{Net: tp.Opt, Cut: []int{f}, K: 2,
				AllowTuning: allowTuning, AllowModulationChange: true})
			if err != nil || len(res.Failed) == 0 {
				continue
			}
			counts := rwa.MaxIntegralWaves(res)
			asg, _ := rwa.AssignIntegral(res, counts)
			for li, lid := range res.Failed {
				link := tp.Opt.LinkByID(lid)
				if len(link.Waves) == 0 {
					continue
				}
				primaryKm := tp.Opt.PathLengthKm(link.Waves[0].FiberPath)
				for _, pick := range asg.PerLink[li] {
					opt := res.Options[li][pick[0]]
					if primaryKm > 0 {
						ratios = append(ratios, opt.LengthKm/primaryKm)
					}
					if opt.LengthKm > maxKm {
						maxKm = opt.LengthKm
					}
				}
			}
		}
		return ratios, maxKm
	}
	withTune, maxWith := inflate(true)
	withoutTune, maxWithout := inflate(false)
	r := &Result{ID: "fig17", Title: "Restoration-path / primary-path length ratio",
		Header: []string{"mode", "P(R<=P)", "median ratio", "P90 ratio", "max R-path (km)"}}
	for _, row := range []struct {
		name   string
		ratios []float64
		maxKm  float64
	}{{"with freq tuning", withTune, maxWith}, {"without freq tuning", withoutTune, maxWithout}} {
		if len(row.ratios) == 0 {
			r.AddRow(row.name, "n/a", "n/a", "n/a", "n/a")
			continue
		}
		cdf := stats.NewCDF(row.ratios)
		r.AddRow(row.name, pct(cdf.At(1.0)), f2(cdf.Percentile(50)), f2(cdf.Percentile(90)), f1(row.maxKm))
	}
	r.AddNote("paper: ~50%% of restoration paths shorter than primary; all <5,000 km (so 100G always possible)")
	return r, nil
}

func runFig19(cfg Config) (*Result, error) {
	tp, err := topo.Facebook(cfg.Seed + 5)
	if err != nil {
		return nil, err
	}
	var addDrop, inter []float64
	for f := range tp.Opt.Fibers {
		res, err := rwa.Solve(&rwa.Request{Net: tp.Opt, Cut: []int{f}, K: 2,
			AllowTuning: true, AllowModulationChange: true})
		if err != nil || len(res.Failed) == 0 {
			continue
		}
		counts := rwa.MaxIntegralWaves(res)
		asg, _ := rwa.AssignIntegral(res, counts)
		plan := noise.BuildPlan(tp.Opt, res, asg)
		addDrop = append(addDrop, float64(plan.NumAddDropROADMs()))
		inter = append(inter, float64(plan.NumIntermediateROADMs()))
	}
	ad, in := stats.NewCDF(addDrop), stats.NewCDF(inter)
	r := &Result{ID: "fig19", Title: "ROADMs reconfigured per fiber cut",
		Header: []string{"x", "P(add/drop <= x)", "P(intermediate <= x)"}}
	for _, x := range []float64{0, 2, 4, 6, 8, 10, 14, 20} {
		r.AddRow(f1(x), pct(ad.At(x)), pct(in.At(x)))
	}
	r.AddNote("paper: 80%% of cuts need <=10 add/drop (measured P80=%.0f) and <=6 intermediate (measured P80=%.0f)",
		ad.Percentile(80), in.Percentile(80))
	return r, nil
}

func runFig20(cfg Config) (*Result, error) {
	times := emu.AmpChainSettle(24, emu.Config{Seed: cfg.Seed})
	r := &Result{ID: "fig20", Title: "Sequential amplifier settling, 24-amp chain (2,000 km)",
		Header: []string{"amplifier #", "settled at (s)"}}
	for i, t := range times {
		if i%4 == 3 || i == 0 || i == len(times)-1 {
			r.AddRow(fi(i+1), f1(t))
		}
	}
	r.AddNote("total %.1f minutes (paper: ~14 minutes for 24 amplifier sites)", times[len(times)-1]/60)
	return r, nil
}
