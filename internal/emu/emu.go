// Package emu is a discrete-event emulator of the paper's production-level
// testbed (§5, Figs. 10-12): four ROADM sites on a 2,160 km unidirectional
// fiber ring with 34 amplifiers, carrying 16 wavelengths (200 Gbps each)
// grouped into four IP links. It reproduces the paper's headline latency
// result — restoring 2.8 Tbps takes ~17 minutes with legacy amplifier
// reconfiguration and ~8 seconds with ARROW's ASE noise loading — and the
// legacy amplifier-settling measurement of Fig. 20.
//
// The paper's numbers come from hardware; here every device is a timed
// model: EDFA amplifiers settle with repeated observe-analyze-act loops
// (~35 s each, sequential along a path) whenever the lit spectrum on their
// fiber changes, ROADMs reconfigure in two parallel waves (add/drop then
// intermediate, per Appendix A.6), and port-channels re-aggregate via LACP.
// With noise loading the lit spectrum never changes, so the amplifier term
// vanishes — which is the entire point of §4.
//
// Every trial also produces a per-stage latency waterfall (Trial.Stages) on
// the emulated clock. RunRestorationCtx exports it through the standard
// observability seams: emulated-time spans and emu.* metrics on an attached
// obs.Recorder, and typed per-device events on an attached ledger.Ledger.
// Observability never changes a trial: the stage model is computed either
// way, and recording consumes no randomness.
package emu

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/arrow-te/arrow/internal/noise"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/optical"
	"github.com/arrow-te/arrow/internal/rwa"
	"github.com/arrow-te/arrow/internal/spectrum"
)

// The testbed's measured device timings (Appendix A.6–A.7), the same in
// every trial.
const (
	// ampSettleMeanSec calibrates one amplifier's observe-analyze-act
	// convergence time (Appendix A.7 measures ~35 s/amplifier: 24 amps in
	// 14 minutes). It sets the control loop period of the Amplifier model;
	// actual settle times vary with the gain error.
	ampSettleMeanSec = 36
	// detectSec is the failure detection latency.
	detectSec = 1
	// roadmWaveSec is the duration of ONE parallel ROADM reconfiguration
	// wave; two waves run (Appendix A.6).
	roadmWaveSec = 2.5
	// portChannelSec is LACP re-aggregation after light is up.
	portChannelSec = 2
)

// Config sets what a trial varies around the measured timings above: the
// amplifier spacing, the TE install time, noise loading, the serial-ROADM
// ablation and the randomness. Zero values reproduce the paper's testbed.
type Config struct {
	// AmpSpacingKm is the inline amplifier spacing (default 80 km; each
	// fiber also has a booster and a pre-amplifier).
	AmpSpacingKm float64
	// TEApplySec models installing the recomputed TE allocation on the
	// routers once the port channels are up (default 0: folded into the
	// LACP window, preserving the paper calibration; set it to split the
	// stage out explicitly).
	TEApplySec float64
	// NoiseLoading enables ARROW's ASE noise sources.
	NoiseLoading bool
	// SerialROADM reconfigures ROADMs one at a time instead of ARROW's two
	// parallel waves (Appendix A.6 ablation): each device costs a full
	// wave, roadmWaveSec.
	SerialROADM bool
	// Seed derives the per-consumer randomness streams when Rng is nil.
	Seed int64
	// Rng, when non-nil, is the explicit randomness source for every
	// device-timing draw of the run (amplifier reconfiguration errors,
	// per-loop measurement noise, survivor-power jitter), consumed in
	// deterministic model order. When nil, each consumer derives its own
	// stream from Seed — reproducible across runs and worker counts either
	// way. A Config shared across concurrent trials must leave Rng nil or
	// give each trial its own: *rand.Rand is not concurrency-safe.
	Rng *rand.Rand
}

func (c Config) withDefaults() Config {
	if c.AmpSpacingKm <= 0 {
		c.AmpSpacingKm = 80
	}
	return c
}

// rng returns the explicit source when one was configured, or derives a
// fresh deterministic stream from Seed plus the consumer's salt (the
// historical behavior, kept so default-config trials reproduce exactly).
func (c Config) rng(salt int64) *rand.Rand {
	if c.Rng != nil {
		return c.Rng
	}
	return rand.New(rand.NewSource(c.Seed + salt))
}

// Mode names the restoration scheme of this config: "noise_loading" under
// ARROW's ASE noise sources, "legacy" otherwise. Observability events and
// reports are tagged with it.
func (c Config) Mode() string {
	if c.NoiseLoading {
		return "noise_loading"
	}
	return "legacy"
}

// AmpCount returns the number of amplifiers on a fiber: inline amps at the
// configured spacing plus a booster and a pre-amplifier.
func (c Config) AmpCount(lengthKm float64) int {
	return int(lengthKm/c.AmpSpacingKm) + 2
}

// Event is one timestamped emulator occurrence.
type Event struct {
	TimeSec float64
	Desc    string
}

// Sample is one point of the restoration time series (Fig. 12).
type Sample struct {
	TimeSec float64
	// RestoredGbps is the revived IP capacity at this time.
	RestoredGbps float64
	// SurvivorPowerDB is the power deviation of the surviving wavelengths
	// on the monitored fiber (0 dB = nominal; non-zero during legacy
	// amplifier settling).
	SurvivorPowerDB float64
}

// Stage names of the restoration waterfall, in pipeline order.
const (
	StageDetect            = "detect"
	StageROADMAddDrop      = "roadm_adddrop_wave"
	StageROADMIntermediate = "roadm_intermediate_wave"
	StageROADMSerial       = "roadm_serial"
	StageAmpChain          = "amp_chain"
	StageAmpSettle         = "amp_settle"
	StageLACP              = "lacp"
	StageTEApply           = "te_apply"
)

// StageSpan is one timed device action of a restoration episode on the
// emulated clock. Lane groups concurrent work: lane 0 is the serial
// critical-path lane (detection, ROADM waves, TE apply); each restored
// path's amplifier cascade and LACP window get their own lane, mirroring
// how distinct paths settle concurrently. StageAmpSettle spans are children
// of their path's StageAmpChain (contained in time on the same lane).
type StageSpan struct {
	Name     string
	Device   string
	Lane     int
	StartSec float64
	DurSec   float64
}

// Trial is the outcome of one emulated restoration.
type Trial struct {
	Config       Config
	Events       []Event
	Series       []Sample
	LostGbps     float64
	RestoredGbps float64
	DoneSec      float64 // time when the restoration episode completed
	AmpsSettled  int
	// AmpLoops is the total observe-analyze-act loops run across all
	// settled amplifiers (0 under noise loading).
	AmpLoops int
	// Lightpaths is the number of restored lightpaths brought up.
	Lightpaths int
	// Stages is the per-stage latency waterfall of the episode, always
	// populated; observability merely exports it.
	Stages        []StageSpan
	Plan          *noise.Plan
	MonitoredLink string
}

// CriticalPathSec sums the stage durations along the episode's critical
// path: the serial lane plus the slowest concurrent path lane. AmpSettle
// spans are children of their AmpChain and excluded from the sum. Whenever
// the trial restored anything (and for the nothing-restorable case too) the
// result equals DoneSec — the waterfall accounts for every second of the
// episode.
func (tr *Trial) CriticalPathSec() float64 {
	serial := 0.0
	lanes := map[int]float64{}
	for _, st := range tr.Stages {
		switch {
		case st.Name == StageAmpSettle:
			// contained in its amp_chain
		case st.Lane == 0:
			serial += st.DurSec
		default:
			lanes[st.Lane] += st.DurSec
		}
	}
	slowest := 0.0
	for _, d := range lanes {
		if d > slowest {
			slowest = d
		}
	}
	return serial + slowest
}

// Testbed builds the §5 testbed: ROADMs A=0, B=1, D=2, C=3 on a ring
// A-B (560 km), B-D (560 km), D-C (520 km), C-A (520 km) — 2,160 km and 34
// amplifiers at the default spacing. IP links (200G per wavelength):
//
//	A<->B 0.4T on [AB];  C<->D 0.4T on [DC];
//	A<->C 1.2T via B,D on [AB,BD,DC];  B<->D 1.2T via A,C on [AB,CA,DC].
//
// Fiber DC therefore carries 14 wavelengths; cutting it fails 2.8 Tbps
// across three IP links, exactly the Fig. 11 trial.
func Testbed() (*optical.Network, error) {
	n := optical.NewNetwork(4, 16)
	const (
		a, b, d, c = 0, 1, 2, 3
	)
	fAB := n.AddFiber(a, b, 560) // fiber 0
	fBD := n.AddFiber(b, d, 560) // fiber 1
	fDC := n.AddFiber(d, c, 520) // fiber 2
	fCA := n.AddFiber(c, a, 520) // fiber 3
	mod, _ := spectrum.ModulationByRate(200)

	mk := func(path []int, slots ...int) []optical.Lightpath {
		var ws []optical.Lightpath
		for _, s := range slots {
			ws = append(ws, optical.Lightpath{Slot: s, Modulation: mod, FiberPath: path})
		}
		return ws
	}
	if _, err := n.Provision(a, b, mk([]int{fAB.ID}, 0, 1)); err != nil {
		return nil, fmt.Errorf("emu: link AB: %w", err)
	}
	if _, err := n.Provision(a, c, mk([]int{fAB.ID, fBD.ID, fDC.ID}, 2, 3, 4, 5, 6, 7)); err != nil {
		return nil, fmt.Errorf("emu: link AC: %w", err)
	}
	if _, err := n.Provision(b, d, mk([]int{fAB.ID, fCA.ID, fDC.ID}, 8, 9, 10, 11, 12, 13)); err != nil {
		return nil, fmt.Errorf("emu: link BD: %w", err)
	}
	if _, err := n.Provision(d, c, mk([]int{fDC.ID}, 14, 15)); err != nil {
		return nil, fmt.Errorf("emu: link CD: %w", err)
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}

// FiberDC is the ID of the testbed fiber whose cut reproduces Fig. 11.
const FiberDC = 2

// TestbedTrial runs the Fig. 11 trial under cfg and ctx (see
// RunRestorationCtx): fiber DC cut on a fresh Testbed.
func TestbedTrial(ctx context.Context, cfg Config) (*Trial, error) {
	net, err := Testbed()
	if err != nil {
		return nil, err
	}
	return RunRestorationCtx(ctx, net, []int{FiberDC}, cfg)
}

// RunRestoration emulates an end-to-end fiber-cut restoration: the cut is
// detected, the RWA computes the surrogate assignment, ROADMs reconfigure
// in two parallel waves, and — in legacy mode only — amplifiers along each
// restored path settle sequentially before the light is usable.
func RunRestoration(net *optical.Network, cut []int, cfg Config) (*Trial, error) {
	return RunRestorationCtx(context.Background(), net, cut, cfg)
}

// pathInfo aggregates one distinct restoration path's waterfall lane.
type pathInfo struct {
	lane     int
	fibers   []int
	doneSec  float64 // light usable (before LACP)
	chainDur float64 // amplifier-cascade settling (0 under noise loading)
	amps     int
	waves    int
	gbps     float64
}

// RunRestorationCtx is RunRestoration with observability attached through
// the context: an obs.Recorder (obs.WithRecorder) receives one emulated-time
// span per stage plus emu.* counters and histograms, and a ledger.Ledger
// (ledger.WithLedger) receives one typed event per device action and an
// episode summary; a probe period (obs.WithHealthEvery) probes the
// restoration LP. Every seam keeps the trial byte-identical.
func RunRestorationCtx(ctx context.Context, net *optical.Network, cut []int, cfg Config) (*Trial, error) {
	cfg = cfg.withDefaults()
	rng := cfg.rng(1)

	// The restoration RWA stays recorder-free by default so the emu metric
	// stream is unchanged from earlier snapshots; opting into health probes
	// attaches the context recorder so lp.health.* findings land somewhere.
	req := &rwa.Request{
		Net: net, Cut: cut, K: 3, AllowTuning: true, AllowModulationChange: true,
		HealthEvery: obs.HealthEveryFrom(ctx),
	}
	if req.HealthEvery > 0 {
		req.Recorder = obs.FromContext(ctx)
	}
	res, err := rwa.Solve(req)
	if err != nil {
		return nil, err
	}
	target := make([]int, len(res.Failed))
	copy(target, res.OrigWaves)
	asg, _ := rwa.AssignIntegral(res, target)
	plan := noise.BuildPlan(net, res, asg)

	tr := &Trial{Config: cfg, Plan: plan, MonitoredLink: "fiber AB"}
	for _, lid := range res.Failed {
		tr.LostGbps += net.LinkByID(lid).CapacityGbps()
	}
	logf := func(t float64, format string, args ...interface{}) {
		tr.Events = append(tr.Events, Event{TimeSec: t, Desc: fmt.Sprintf(format, args...)})
	}
	stage := func(name, device string, lane int, start, dur float64) {
		tr.Stages = append(tr.Stages, StageSpan{Name: name, Device: device, Lane: lane, StartSec: start, DurSec: dur})
	}

	logf(0, "fiber cut: %v fails %d IP links, %.1f Tbps lost", cut, len(res.Failed), tr.LostGbps/1000)
	t := float64(detectSec)
	stage(StageDetect, "optical monitors", 0, 0, detectSec)
	logf(t, "failure detected, restoration plan activated (%d lightpaths)", countPicks(asg))

	// ROADM reconfiguration: ARROW groups devices into two parallel waves
	// (Appendix A.6); the serial ablation walks them one by one.
	if cfg.SerialROADM {
		devices := plan.NumAddDropROADMs() + plan.NumIntermediateROADMs()
		dur := float64(float64(devices) * roadmWaveSec)
		stage(StageROADMSerial, fmt.Sprintf("%d ROADMs one at a time", devices), 0, t, dur)
		t += dur
		logf(t, "serial: %d ROADMs reconfigured one at a time", devices)
	} else {
		stage(StageROADMAddDrop, fmt.Sprintf("%d add/drop ROADMs", plan.NumAddDropROADMs()), 0, t, roadmWaveSec)
		t += roadmWaveSec
		logf(t, "wave 1: %d add/drop ROADMs reconfigured in parallel", plan.NumAddDropROADMs())
		stage(StageROADMIntermediate, fmt.Sprintf("%d intermediate ROADMs", plan.NumIntermediateROADMs()), 0, t, roadmWaveSec)
		t += roadmWaveSec
		logf(t, "wave 2: %d intermediate ROADMs reconfigured in parallel", plan.NumIntermediateROADMs())
	}
	roadmDone := t

	// Per-lightpath availability times, grouped by distinct restoration
	// path: each path is one waterfall lane.
	type lightUp struct {
		timeSec float64
		gbps    float64
		fibers  []int
	}
	var ups []lightUp
	paths := map[string]*pathInfo{}
	var pathOrder []string
	survivorDisturbedUntil := 0.0
	ampModel := Amplifier{LoopSec: ampSettleMeanSec / 3.6}
	for li := range res.Failed {
		for _, pick := range asg.PerLink[li] {
			opt := res.Options[li][pick[0]]
			key := fmt.Sprint(opt.Fibers)
			pi := paths[key]
			if pi == nil {
				pi = &pathInfo{lane: len(pathOrder) + 1, fibers: opt.Fibers, doneSec: roadmDone}
				paths[key] = pi
				pathOrder = append(pathOrder, key)
				if !cfg.NoiseLoading {
					// Legacy: every amplifier on a path whose lit spectrum
					// changed must settle, one observe-analyze-act loop after
					// another along the path. Distinct paths settle
					// concurrently; amps within a path are serial.
					for _, fid := range opt.Fibers {
						pi.amps += cfg.AmpCount(net.Fibers[fid].LengthKm)
					}
					tt := roadmDone
					for i := 0; i < pi.amps; i++ {
						trace, dt := ampModel.Settle(typicalReconfigErrDB(rng), rng)
						stage(StageAmpSettle, fmt.Sprintf("path %v amp %d", opt.Fibers, i+1), pi.lane, tt, dt)
						tt += dt
						tr.AmpLoops += len(trace) - 1
					}
					pi.doneSec = tt
					pi.chainDur = tt - roadmDone
					tr.AmpsSettled += pi.amps
					logf(tt, "amplifier chain settled on path %v (%d amps)", opt.Fibers, pi.amps)
					if tt > survivorDisturbedUntil {
						survivorDisturbedUntil = tt
					}
				}
				// With noise loading the amplifiers never see a spectral
				// change: light is usable right after the ROADM waves.
			}
			pi.waves++
			pi.gbps += opt.Modulation.GbpsPerWavelength
			ups = append(ups, lightUp{pi.doneSec + portChannelSec, opt.Modulation.GbpsPerWavelength, opt.Fibers})
		}
	}
	for _, key := range pathOrder {
		pi := paths[key]
		if pi.chainDur > 0 {
			stage(StageAmpChain, fmt.Sprintf("path %v (%d amps)", pi.fibers, pi.amps), pi.lane, roadmDone, pi.chainDur)
		}
		stage(StageLACP, fmt.Sprintf("path %v (%d waves, %.0f Gbps)", pi.fibers, pi.waves, pi.gbps), pi.lane, pi.doneSec, portChannelSec)
	}

	sort.Slice(ups, func(i, j int) bool { return ups[i].timeSec < ups[j].timeSec })
	for _, u := range ups {
		tr.RestoredGbps += u.gbps
		tr.DoneSec = u.timeSec
	}
	tr.Lightpaths = len(ups)
	if len(ups) > 0 {
		if cfg.TEApplySec > 0 {
			stage(StageTEApply, "TE controller", 0, tr.DoneSec, cfg.TEApplySec)
			tr.DoneSec += cfg.TEApplySec
		}
		logf(tr.DoneSec, "restoration complete: %.1f Tbps revived (%.0f%% of lost)",
			tr.RestoredGbps/1000, 100*tr.RestoredGbps/math.Max(tr.LostGbps, 1))
	} else {
		tr.DoneSec = roadmDone
		logf(tr.DoneSec, "nothing restorable")
	}

	// Build the Fig. 12 time series: restored capacity plus survivor power
	// deviation on the monitored fiber.
	horizon := tr.DoneSec * 1.15
	if horizon < 12 {
		horizon = 12
	}
	step := horizon / 240
	prng := cfg.rng(2)
	for tt := 0.0; tt <= horizon; tt += step {
		restored := 0.0
		for _, u := range ups {
			if u.timeSec <= tt {
				restored += u.gbps
			}
		}
		power := 0.0
		if !cfg.NoiseLoading && tt > roadmDone && tt < survivorDisturbedUntil {
			// Gain excursions while amplifiers hunt: bounded, decaying.
			frac := (tt - roadmDone) / (survivorDisturbedUntil - roadmDone)
			power = (1.8 - float64(1.2*frac)) * math.Sin(tt/7) * (0.7 + float64(0.3*prng.Float64()))
		}
		tr.Series = append(tr.Series, Sample{TimeSec: tt, RestoredGbps: restored, SurvivorPowerDB: power})
	}

	emitEpisode(ctx, tr)
	return tr, nil
}

func countPicks(a *rwa.Assignment) int {
	n := 0
	for _, p := range a.PerLink {
		n += len(p)
	}
	return n
}

// AmpChainSettle emulates the Fig. 20 / Appendix A.7 measurement:
// reconfiguring wavelengths on a single long path of cascaded amplifiers
// without noise loading. Each amplifier runs its observe-analyze-act
// control loop to convergence before the next one sees a stable input.
// It returns the per-amplifier completion times.
func AmpChainSettle(numAmps int, cfg Config) []float64 {
	cfg = cfg.withDefaults()
	rng := cfg.rng(3)
	ampModel := Amplifier{LoopSec: ampSettleMeanSec / 3.6}
	out := make([]float64, numAmps)
	t := 0.0
	for i := range out {
		t += ampModel.SettleTime(typicalReconfigErrDB(rng), rng)
		out[i] = t
	}
	return out
}

// LatencySamples measures the end-to-end restoration latency of n
// independent testbed episodes (the Fig. 11 fiber-DC cut) at consecutive
// seeds under the given restoration scheme. The samples are the emu-backed
// input to sim's empirical restoration-latency model, coupling the
// availability replay to emulator-measured restoration windows.
func LatencySamples(noiseLoading bool, n int, baseSeed int64) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		tr, err := TestbedTrial(context.Background(), Config{NoiseLoading: noiseLoading, Seed: baseSeed + int64(i)})
		if err != nil {
			return nil, err
		}
		out = append(out, tr.DoneSec)
	}
	return out, nil
}
