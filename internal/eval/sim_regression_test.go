package eval

import (
	"testing"

	"github.com/arrow-te/arrow/internal/te"
	"github.com/arrow-te/arrow/internal/topo"
	"github.com/arrow-te/arrow/internal/traffic"
)

// buildB4Fast builds the fast-mode B4 pipeline and one normalised network.
func buildB4Fast(t *testing.T, scale float64) (*Pipeline, *te.Network) {
	t.Helper()
	cfg := Config{Fast: true, Seed: 1}
	p := paramsFor("B4", cfg.Fast)
	tp, err := topo.ByName("B4", cfg.Seed+5)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := BuildPipeline(tp, PipelineOptions{
		Cutoff: p.cutoff, NumTickets: p.tickets, Seed: cfg.Seed, MaxScenarios: p.maxScenarios,
	})
	if err != nil {
		t.Fatal(err)
	}
	ms := traffic.Generate(traffic.Options{Sites: tp.NumRouters(), Count: 1, MaxFlows: p.maxFlows, TotalGbps: 1, Seed: cfg.Seed + 7})
	base, err := pl.BaseNetwork(ms[0], p.tunnels)
	if err != nil {
		t.Fatal(err)
	}
	return pl, base.Scaled(scale)
}

// TestArrowDominatesBaselinesOnB4 pins the qualitative Fig. 13 result: at a
// moderate demand scale ARROW's availability beats Arrow-Naive, FFC-1,
// FFC-2 and ECMP, and is at least TeaVaR-level.
func TestArrowDominatesBaselinesOnB4(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation regression is not short")
	}
	pl, _ := buildB4Fast(t, 1)
	base, err := pl.BaseNetwork(traffic.Generate(traffic.Options{Sites: pl.Topo.NumRouters(), Count: 1, MaxFlows: 40, TotalGbps: 1, Seed: 8})[0], 8)
	if err != nil {
		t.Fatal(err)
	}
	avail := map[Scheme]float64{}
	for _, s := range AllSchemes() {
		a, _, err := pl.SchemeAvailability(s, base, 2.5)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		avail[s] = a
	}
	for _, s := range []Scheme{SchemeArrowNaive, SchemeFFC1, SchemeFFC2, SchemeECMP} {
		if avail[SchemeArrow] < avail[s]-1e-9 {
			t.Fatalf("ARROW availability %.5f below %s %.5f", avail[SchemeArrow], s, avail[s])
		}
	}
	if avail[SchemeArrow] < avail[SchemeTeaVaR]-0.01 {
		t.Fatalf("ARROW %.5f materially below TeaVaR %.5f", avail[SchemeArrow], avail[SchemeTeaVaR])
	}
}

// TestArrowNeverWorseThanNaive pins the |Z|=1 floor: the full two-phase
// ARROW TE must never produce a lower objective than Arrow-Naive, at any
// demand scale (te.Arrow's fallback guarantees this by construction).
func TestArrowNeverWorseThanNaive(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation regression is not short")
	}
	for _, scale := range []float64{1, 3, 5, 7} {
		pl, n := buildB4Fast(t, scale)
		arrow, err := te.Arrow(n, pl.Scenarios, nil)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := te.ArrowNaive(n, pl.Scenarios, nil)
		if err != nil {
			t.Fatal(err)
		}
		if arrow.Objective < naive.Objective-1e-6 {
			t.Fatalf("scale %g: ARROW objective %.4f below Naive %.4f", scale, arrow.Objective, naive.Objective)
		}
	}
}

// TestTicketCountImprovesThroughput pins the Fig. 14 shape: throughput with
// a healthy ticket budget is at least the |Z|=1 value, and the series never
// decreases by more than noise when |Z| grows (monotone up to fallback).
func TestTicketCountImprovesThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation regression is not short")
	}
	cfg := Config{Fast: true, Seed: 1}
	p := paramsFor("B4", cfg.Fast)
	tp, err := topo.ByName("B4", cfg.Seed+5)
	if err != nil {
		t.Fatal(err)
	}
	ms := traffic.Generate(traffic.Options{Sites: tp.NumRouters(), Count: 1, MaxFlows: p.maxFlows, TotalGbps: 1, Seed: cfg.Seed + 7})
	var prev float64
	var first float64
	for i, tc := range []int{1, 20} {
		pl, err := BuildPipeline(tp, PipelineOptions{Cutoff: p.cutoff, NumTickets: tc, Seed: cfg.Seed, MaxScenarios: p.maxScenarios})
		if err != nil {
			t.Fatal(err)
		}
		base, err := pl.BaseNetwork(ms[0], p.tunnels)
		if err != nil {
			t.Fatal(err)
		}
		n := base.Scaled(4.2)
		al, err := te.Arrow(n, pl.Scenarios, nil)
		if err != nil {
			t.Fatal(err)
		}
		thr := al.Throughput(n)
		if i == 0 {
			first = thr
		}
		prev = thr
	}
	if prev < first-1e-9 {
		t.Fatalf("|Z|=20 throughput %.4f below |Z|=1 %.4f", prev, first)
	}
	if prev <= first+1e-6 {
		t.Logf("note: no strict improvement on this instance (%.4f vs %.4f)", prev, first)
	}
}
