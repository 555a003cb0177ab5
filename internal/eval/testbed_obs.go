package eval

import (
	"context"

	"github.com/arrow-te/arrow/internal/emu"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/sim"
	"github.com/arrow-te/arrow/internal/te"
)

// TestbedOutcome is RunTestbed's result: the paired emulated
// restoration episodes and the latency-aware availability replays they
// parameterise.
type TestbedOutcome struct {
	// Legacy / Arrow are the two §5 testbed trials (fiber DC cut) under
	// amplifier reconfiguration and ASE noise loading.
	Legacy *emu.Trial
	Arrow  *emu.Trial
	// LatencyRatio is Legacy.DoneSec / Arrow.DoneSec (the paper reports
	// 127x); also exported as the emu.latency_ratio gauge.
	LatencyRatio float64
	// LegacySim / ArrowSim replay the same failure timeline with each
	// scheme's empirical restoration-latency model. Legacy must lose
	// strictly more time at full service.
	LegacySim *sim.Report
	ArrowSim  *sim.Report
}

// trialPair runs the Fig. 11 trial under legacy amplifier reconfiguration
// and under noise loading.
func trialPair(ctx context.Context, seed int64) (legacy, arrow *emu.Trial, err error) {
	if legacy, err = emu.TestbedTrial(ctx, emu.Config{Seed: seed}); err == nil {
		arrow, err = emu.TestbedTrial(ctx, emu.Config{NoiseLoading: true, Seed: seed})
	}
	return legacy, arrow, err
}

// latencySimNet is the small two-fiber network the latency-aware replays
// run on: one 150 Gbps flow over two disjoint 100 Gbps tunnels, each
// single-link failure planned with a full 100 Gbps restoration. Restoration
// therefore keeps the network at full service — except during the
// restoration-latency window, which is exactly the quantity under study.
func latencySimNet() (*te.Network, sim.Projector, []te.FailureScenario, []te.Restoration) {
	n := &te.Network{
		LinkCap: []float64{100, 100},
		Flows:   []te.Flow{{Src: 0, Dst: 1, Demand: 150}},
		Tunnels: [][]te.Tunnel{{{Links: []int{0}}, {Links: []int{1}}}},
	}
	project := func(cut []int) []int { return append([]int(nil), cut...) }
	scenarios := []te.FailureScenario{{FailedLinks: []int{0}}, {FailedLinks: []int{1}}}
	restored := []te.Restoration{{Links: []int{0}, Gbps: []float64{100}}, {Links: []int{1}, Gbps: []float64{100}}}
	return n, project, scenarios, restored
}

// RunTestbed runs the restoration-latency observatory under the recorder,
// ledger and stage profiler attached to ctx: both §5 testbed episodes (legacy
// and noise loading) — producing the per-stage emulated-clock waterfall,
// emu.* metrics and typed device events — then replays one failure timeline
// twice, drawing each cut's restoration latency from that scheme's
// emu-measured samples. The emulated episodes land in the testbed.emulate
// stage, the latency-sample episodes in testbed.latency_samples and the
// replays in sim.replay. The emu.latency_ratio gauge and the mode-tagged
// sim_summary events feed cmd/arrow-report's latency section;
// TestRunTestbedRecordedLatencyObservatory holds the ratio above 50x. attrLoss switches on the replays' per-cut loss
// attribution (sim.Runner.AttributeLoss). The outcome is byte-identical with
// or without sinks.
func RunTestbed(ctx context.Context, seed int64, attrLoss bool) (*TestbedOutcome, error) {
	prof := obs.ProfilerFrom(ctx)
	endEmu := prof.Stage("testbed.emulate")
	legacy, arrow, err := trialPair(ctx, seed)
	endEmu()
	if err != nil {
		return nil, err
	}
	out := &TestbedOutcome{Legacy: legacy, Arrow: arrow, LatencyRatio: legacy.DoneSec / arrow.DoneSec}
	obs.Gauge(obs.FromContext(ctx), "emu.latency_ratio", out.LatencyRatio)

	// The availability coupling: same network, same timeline, same latency
	// seed — only the (emu-measured) latency distribution differs.
	events := sim.GenerateTimeline(2, sim.TimelineOptions{DurationH: 90 * 24, CutsPerMonth: 40, Seed: seed})
	replay := func(label string, noiseLoading bool) (*sim.Report, error) {
		endSamples := prof.Stage("testbed.latency_samples")
		samples, err := emu.LatencySamples(noiseLoading, 4, seed+100)
		endSamples()
		if err != nil {
			return nil, err
		}
		n, project, scenarios, restored := latencySimNet()
		r := sim.NewRunner(n, &te.Allocation{B: []float64{150}, A: [][]float64{{75, 75}}}, project, scenarios, restored)
		r.Latency = sim.EmpiricalLatency{SamplesSec: samples}
		r.LatencySeed = seed
		r.Label = label
		r.AttributeLoss = attrLoss
		return r.Run(ctx, events, 90*24), nil
	}
	if out.LegacySim, err = replay("legacy", false); err != nil {
		return nil, err
	}
	if out.ArrowSim, err = replay("noise_loading", true); err != nil {
		return nil, err
	}
	return out, nil
}
