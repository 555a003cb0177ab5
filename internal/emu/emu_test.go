package emu

import (
	"math"
	"testing"

	"github.com/arrow-te/arrow/internal/noise"
	"github.com/arrow-te/arrow/internal/rwa"
)

func TestTestbedInventory(t *testing.T) {
	n, err := Testbed()
	if err != nil {
		t.Fatal(err)
	}
	if n.NumROADMs != 4 || len(n.Fibers) != 4 {
		t.Fatalf("testbed has %d ROADMs, %d fibers", n.NumROADMs, len(n.Fibers))
	}
	totalKm := 0.0
	amps := 0
	cfg := Config{}.withDefaults()
	for _, f := range n.Fibers {
		totalKm += f.LengthKm
		amps += cfg.AmpCount(f.LengthKm)
	}
	if totalKm != 2160 {
		t.Fatalf("total fiber %g km, want 2160", totalKm)
	}
	if amps != 34 {
		t.Fatalf("%d amplifiers, want 34", amps)
	}
	// 16 wavelengths, 4 IP links, capacities per Fig. 11.
	if len(n.IPLinks) != 4 {
		t.Fatalf("%d IP links", len(n.IPLinks))
	}
	wantCaps := []float64{400, 1200, 1200, 400}
	waves := 0
	for i, l := range n.IPLinks {
		if l.CapacityGbps() != wantCaps[i] {
			t.Fatalf("link %d capacity %g, want %g", i, l.CapacityGbps(), wantCaps[i])
		}
		waves += len(l.Waves)
	}
	if waves != 16 {
		t.Fatalf("%d wavelengths, want 16", waves)
	}
	// Fiber DC carries 14 wavelengths.
	if got := n.ProvisionedGbpsOnFiber(FiberDC); got != 2800 {
		t.Fatalf("fiber DC carries %g Gbps, want 2800", got)
	}
}

func TestFig11CutFails28Tbps(t *testing.T) {
	n, err := Testbed()
	if err != nil {
		t.Fatal(err)
	}
	failed := n.FailedLinks([]int{FiberDC})
	if len(failed) != 3 {
		t.Fatalf("cut fails %d links, want 3 (AC, BD, CD)", len(failed))
	}
	lost := 0.0
	for _, id := range failed {
		lost += n.LinkByID(id).CapacityGbps()
	}
	if lost != 2800 {
		t.Fatalf("lost %g Gbps, want 2800", lost)
	}
}

func TestArrowRestorationIsSeconds(t *testing.T) {
	n, err := Testbed()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := RunRestoration(n, []int{FiberDC}, Config{NoiseLoading: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.RestoredGbps != 2800 {
		t.Fatalf("restored %g Gbps, want full 2800", tr.RestoredGbps)
	}
	// Paper: eight seconds end to end.
	if tr.DoneSec < 5 || tr.DoneSec > 12 {
		t.Fatalf("ARROW restoration took %.1f s, want ~8 s", tr.DoneSec)
	}
	if tr.AmpsSettled != 0 {
		t.Fatalf("%d amplifiers settled under noise loading, want 0", tr.AmpsSettled)
	}
	// Survivor wavelengths undisturbed (Fig. 12d).
	for _, s := range tr.Series {
		if s.SurvivorPowerDB != 0 {
			t.Fatalf("survivor power deviated %g dB at %.1fs under noise loading", s.SurvivorPowerDB, s.TimeSec)
		}
	}
}

func TestLegacyRestorationIsMinutes(t *testing.T) {
	n, err := Testbed()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := RunRestoration(n, []int{FiberDC}, Config{NoiseLoading: false, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.RestoredGbps != 2800 {
		t.Fatalf("restored %g Gbps", tr.RestoredGbps)
	}
	// Paper: 1,021 s. Accept the right order of magnitude (14-22 min).
	if tr.DoneSec < 700 || tr.DoneSec > 1400 {
		t.Fatalf("legacy restoration took %.0f s, want ~1000 s", tr.DoneSec)
	}
	if tr.AmpsSettled == 0 {
		t.Fatal("no amplifiers settled in legacy mode")
	}
	// Power excursions must appear during settling.
	sawExcursion := false
	for _, s := range tr.Series {
		if math.Abs(s.SurvivorPowerDB) > 0.1 {
			sawExcursion = true
		}
	}
	if !sawExcursion {
		t.Fatal("no survivor power excursion in legacy mode")
	}
}

func TestSpeedupFactorMatchesPaperShape(t *testing.T) {
	n, err := Testbed()
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := RunRestoration(n, []int{FiberDC}, Config{NoiseLoading: false, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	arrow, err := RunRestoration(n, []int{FiberDC}, Config{NoiseLoading: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	speedup := legacy.DoneSec / arrow.DoneSec
	// Paper reports 127x; require the same order (>60x).
	if speedup < 60 {
		t.Fatalf("speedup %.0fx, want >60x", speedup)
	}
}

func TestSeriesMonotoneRestoredCapacity(t *testing.T) {
	n, err := Testbed()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := RunRestoration(n, []int{FiberDC}, Config{NoiseLoading: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, s := range tr.Series {
		if s.RestoredGbps < prev {
			t.Fatal("restored capacity series not monotone")
		}
		prev = s.RestoredGbps
	}
	if prev != 2800 {
		t.Fatalf("series ends at %g", prev)
	}
}

func TestAmpChainSettleFig20(t *testing.T) {
	// Fig. 20: 24 amplifiers take ~14 minutes.
	times := AmpChainSettle(24, Config{Seed: 1})
	if len(times) != 24 {
		t.Fatalf("%d times", len(times))
	}
	total := times[23]
	if total < 600 || total > 1100 {
		t.Fatalf("24-amp settle took %.0f s, want ~840 s", total)
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			t.Fatal("settle times not strictly increasing")
		}
	}
}

func TestBuildPlanCountsROADMs(t *testing.T) {
	n, err := Testbed()
	if err != nil {
		t.Fatal(err)
	}
	res, err := rwa.Solve(&rwa.Request{Net: n, Cut: []int{FiberDC}, K: 3, AllowTuning: true, AllowModulationChange: true})
	if err != nil {
		t.Fatal(err)
	}
	target := make([]int, len(res.Failed))
	copy(target, res.OrigWaves)
	asg, _ := rwa.AssignIntegral(res, target)
	plan := noise.BuildPlan(n, res, asg)
	if plan.RestoredGbps != 2800 {
		t.Fatalf("plan restores %g", plan.RestoredGbps)
	}
	if plan.NumAddDropROADMs() == 0 {
		t.Fatal("no add/drop ROADMs in plan")
	}
	// All four sites participate in this trial (A,B,C,D all add/drop some
	// restored link).
	if plan.NumAddDropROADMs() != 4 {
		t.Fatalf("%d add/drop ROADMs, want 4", plan.NumAddDropROADMs())
	}
}
