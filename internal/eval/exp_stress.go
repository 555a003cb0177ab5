package eval

import (
	"time"

	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/topo"
	"github.com/arrow-te/arrow/internal/traffic"
)

func init() {
	register(Experiment{
		ID:         "stress-scenarios",
		Title:      "Scenario-space stress: k-failure/SRLG enumeration at 10^4 scenarios",
		PaperClaim: "§6.3 argues the offline stage scales embarrassingly; this pushes the enumerator to 4-way cuts with conduit SRLGs and runs every scenario through RWA (each distinct block solved once) + ticket generation with composed seed tickets",
		Run:        runScenarioStress,
	})
}

// stressOptions is the stress configuration: B4 with its conduit SRLGs,
// up to 5 simultaneous element failures, no probability cutoff — the full
// k<=5 failure lattice of 23 elements, ~3e4 distinct cut sets after SRLG
// expansion merges overlapping subsets. Fast mode trims to 3-way cuts
// (~1.8e3 scenarios) so the registry stays laptop-sized.
func stressOptions(cfg Config) PipelineOptions {
	po := PipelineOptions{
		Cutoff: 0, NumTickets: 4, Seed: cfg.Seed, NoWarm: cfg.NoWarm,
		// The session's scenario space (e.g. -max-enumerated, -target-mass),
		// always with the SRLGs, and the stress cut size unless one is set.
		Space: cfg.Space,
	}
	po.Space.UseSRLGs = true
	if po.Space.MaxCutSize <= 0 {
		po.Space.MaxCutSize = 5
		if cfg.Fast {
			po.Space.MaxCutSize = 3
		}
	}
	return po
}

func runScenarioStress(cfg Config) (*Result, error) {
	tp, err := topo.B4(cfg.Seed + 5)
	if err != nil {
		return nil, err
	}
	// The stress run reads its own counters back, so it always records into
	// a private registry; cfg.Recorder receives nothing here.
	reg := obs.NewRegistry()
	po := stressOptions(cfg)

	start := time.Now()
	pl, err := BuildPipelineContext(obs.WithRecorder(cfg.ctx(), reg), tp, po)
	if err != nil {
		return nil, err
	}
	buildSec := time.Since(start).Seconds()
	c := reg.Snapshot().Counters

	multi := 0
	for _, sc := range pl.Set.Scenarios {
		if len(sc.Cut) > 1 {
			multi++
		}
	}

	// TE solve on a probability-ordered prefix: the offline stage is the
	// scaling story (10^4 solves); the colgen master gets the heaviest
	// slice that stays interactive.
	sub := *pl
	const teScenarios = 48
	if len(sub.Scenarios) > teScenarios {
		sub.Scenarios = sub.Scenarios[:teScenarios]
		sub.Plain = sub.Plain[:teScenarios]
		sub.RWAResults = sub.RWAResults[:teScenarios]
		sub.ffc = new(ffcLists) // FFC-2's list reads Plain
	}
	m := traffic.Generate(traffic.Options{Sites: tp.NumRouters(), Count: 1, MaxFlows: 40, TotalGbps: 1, Seed: cfg.Seed + 7})[0]
	base, err := sub.BaseNetwork(m, 8)
	if err != nil {
		return nil, err
	}
	avail, thr, err := sub.SchemeAvailability(SchemeArrow, base, 3.0)
	if err != nil {
		return nil, err
	}

	r := &Result{ID: "stress-scenarios", Title: "Scenario-space stress (B4 + conduit SRLGs)",
		Header: []string{"metric", "value"}}
	r.AddRow("failure elements", fi(len(tp.Opt.Fibers)+len(tp.SRLGs)))
	r.AddRow("max cut size k", fi(po.Space.MaxCutSize))
	r.AddRow("scenarios enumerated", fi(int(c["scenario.enumerated"])))
	r.AddRow("lattice nodes pruned", fi(int(c["scenario.pruned"])))
	r.AddRow("residual probability", f4(pl.Set.ResidualProb))
	r.AddRow("relevant scenarios kept", fi(len(pl.Scenarios)))
	r.AddRow("multi-fiber cut sets", fi(multi))
	r.AddRow("composed-ticket scenarios", fi(int(c["scenario.warm_from_singles"])))
	r.AddRow("RWA blocks solved / answered by the memo", fi(int(c["rwa.block_solves"]))+" / "+fi(int(c["rwa.block_hits"])))
	r.AddRow("offline build seconds", f2(buildSec))
	r.AddRow("scenarios/sec through pipeline", f1(float64(len(pl.Set.Scenarios))/buildSec))
	r.AddRow("ARROW availability (48-scenario master, 3.0x)", f4(avail))
	r.AddRow("ARROW throughput", f4(thr))
	r.AddNote("every enumerated scenario runs the full offline stage (RWA + %d tickets); each distinct RWA block is solved once per plan, and multi-cut ticket pools are seeded from pre-staged single-cut restorations unless -compose=false", po.NumTickets)
	return r, nil
}
