package emu

import (
	"math"
	"testing"
)

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.AmpSpacingKm != 80 {
		t.Fatalf("defaults %+v", c)
	}
	// Explicit values survive.
	if c2 := (Config{AmpSpacingKm: 100}).withDefaults(); c2.AmpSpacingKm != 100 {
		t.Fatalf("overrides lost: %+v", c2)
	}
	// Amp counts: booster + preamp + inline.
	if got := c.AmpCount(560); got != 9 {
		t.Fatalf("AmpCount(560) = %d, want 9", got)
	}
	if got := c.AmpCount(520); got != 8 {
		t.Fatalf("AmpCount(520) = %d, want 8", got)
	}
	if got := c.AmpCount(10); got != 2 {
		t.Fatalf("AmpCount(10) = %d, want 2 (booster+preamp)", got)
	}
}

func TestDoubleCutPartialTrial(t *testing.T) {
	// Cutting BOTH the direct fiber and one detour still restores what the
	// remaining paths can carry, and never more than was lost.
	n, err := Testbed()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := RunRestoration(n, []int{FiberDC, 1 /* BD */}, Config{NoiseLoading: true, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Fiber BD carries only wavelengths already failed by the DC cut, so
	// the loss stays 2.8 Tbps — but site D is now optically isolated, so
	// only the A<->C link (1.2 Tbps via fiber CA) can be revived.
	if tr.LostGbps != 2800 {
		t.Fatalf("double cut lost %g, want 2800", tr.LostGbps)
	}
	if tr.RestoredGbps != 1200 {
		t.Fatalf("restored %g, want 1200 (only AC; D is isolated)", tr.RestoredGbps)
	}
}

func TestCutHarmlessFiber(t *testing.T) {
	// Build an extra dark fiber and cut it: nothing fails, trial completes
	// immediately with zero restoration.
	n, err := Testbed()
	if err != nil {
		t.Fatal(err)
	}
	dark := n.AddFiber(0, 2, 400)
	tr, err := RunRestoration(n, []int{dark.ID}, Config{NoiseLoading: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if tr.LostGbps != 0 || tr.RestoredGbps != 0 {
		t.Fatalf("lost %g restored %g", tr.LostGbps, tr.RestoredGbps)
	}
}

func TestLegacySlowerWithMoreAmps(t *testing.T) {
	// Halving amplifier spacing doubles the amplifier count and should
	// materially increase legacy restoration latency.
	n1, _ := Testbed()
	wide, err := RunRestoration(n1, []int{FiberDC}, Config{NoiseLoading: false, AmpSpacingKm: 160, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	n2, _ := Testbed()
	dense, err := RunRestoration(n2, []int{FiberDC}, Config{NoiseLoading: false, AmpSpacingKm: 40, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if dense.DoneSec < wide.DoneSec*1.5 {
		t.Fatalf("dense amps %g s not much slower than wide %g s", dense.DoneSec, wide.DoneSec)
	}
	// Noise loading is insensitive to amplifier density.
	n3, _ := Testbed()
	noiseDense, err := RunRestoration(n3, []int{FiberDC}, Config{NoiseLoading: true, AmpSpacingKm: 40, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(noiseDense.DoneSec-8) > 4 {
		t.Fatalf("noise-loaded restoration %g s depends on amp density", noiseDense.DoneSec)
	}
}

func TestTrialDeterministicBySeed(t *testing.T) {
	n1, _ := Testbed()
	a, err := RunRestoration(n1, []int{FiberDC}, Config{NoiseLoading: false, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	n2, _ := Testbed()
	b, err := RunRestoration(n2, []int{FiberDC}, Config{NoiseLoading: false, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.DoneSec != b.DoneSec || a.AmpsSettled != b.AmpsSettled {
		t.Fatalf("same seed, different trials: %g/%d vs %g/%d", a.DoneSec, a.AmpsSettled, b.DoneSec, b.AmpsSettled)
	}
}

func TestAmplifierConvergence(t *testing.T) {
	amp := Amplifier{}
	trace, total := amp.Settle(4.0, nil)
	if len(trace) < 3 {
		t.Fatalf("trace too short: %d", len(trace))
	}
	// Error magnitude strictly decreases and ends within tolerance.
	for i := 1; i < len(trace); i++ {
		if math.Abs(trace[i].ErrorDB) >= math.Abs(trace[i-1].ErrorDB) {
			t.Fatalf("error not decreasing at step %d: %v", i, trace)
		}
	}
	final := trace[len(trace)-1].ErrorDB
	if math.Abs(final) > 0.3 {
		t.Fatalf("final error %g above tolerance", final)
	}
	if total <= 0 || total > 12*40 {
		t.Fatalf("settle time %g", total)
	}
	// Already-converged input settles instantly.
	if tt := amp.SettleTime(0.1, nil); tt != 0 {
		t.Fatalf("tiny error took %g s", tt)
	}
	// Larger errors take longer (deterministic envelope).
	small := amp.SettleTime(1.0, nil)
	big := amp.SettleTime(6.0, nil)
	if big <= small {
		t.Fatalf("settle(6dB)=%g <= settle(1dB)=%g", big, small)
	}
}

func TestSerialROADMAblation(t *testing.T) {
	n1, _ := Testbed()
	parallel, err := RunRestoration(n1, []int{FiberDC}, Config{NoiseLoading: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	n2, _ := Testbed()
	serial, err := RunRestoration(n2, []int{FiberDC}, Config{NoiseLoading: true, SerialROADM: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// The trial touches 6 distinct ROADM roles (4 add/drop + 2
	// intermediate): serial should cost ~6 device slots vs 2 waves.
	if serial.DoneSec <= parallel.DoneSec+2 {
		t.Fatalf("serial %g s not meaningfully slower than parallel %g s", serial.DoneSec, parallel.DoneSec)
	}
	if serial.RestoredGbps != parallel.RestoredGbps {
		t.Fatal("serial ablation changed restoration outcome")
	}
}

func TestPortReuseAccounting(t *testing.T) {
	n, err := Testbed()
	if err != nil {
		t.Fatal(err)
	}
	// 16 wavelengths -> 32 ports provisioned; the DC cut idles 28 of them
	// (14 failed wavelengths x 2 ends); full restoration reuses all 28.
	ports, idle := 0, 0
	for _, l := range n.IPLinks {
		ports += 2 * len(l.Waves)
	}
	for _, lid := range n.FailedLinks([]int{FiberDC}) {
		idle += 2 * len(n.IPLinks[lid].Waves)
	}
	if ports != 32 || idle != 28 {
		t.Fatalf("ports %d provisioned, %d idled by the cut; want 32 and 28", ports, idle)
	}
	tr, err := RunRestoration(n, []int{FiberDC}, Config{NoiseLoading: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Plan.ReusedPorts != 28 {
		t.Fatalf("reused ports %d, want 28", tr.Plan.ReusedPorts)
	}
}
