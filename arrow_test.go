package arrow

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/topo"
)

// buildSquare constructs a 4-site ring WAN (like the paper's testbed) with
// three IP links and returns the network plus handles.
func buildSquare(t *testing.T) (*Network, []FiberID, []LinkID) {
	t.Helper()
	b := NewBuilder(4, 16)
	fAB := b.AddFiber(0, 1, 560)
	fBD := b.AddFiber(1, 2, 560)
	fDC := b.AddFiber(2, 3, 520)
	fCA := b.AddFiber(3, 0, 520)
	lAB, err := b.AddIPLink(0, 1, 2, 200, []FiberID{fAB})
	if err != nil {
		t.Fatal(err)
	}
	lCD, err := b.AddIPLink(2, 3, 2, 200, []FiberID{fDC})
	if err != nil {
		t.Fatal(err)
	}
	lAC, err := b.AddIPLink(0, 3, 4, 200, []FiberID{fCA})
	if err != nil {
		t.Fatal(err)
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net, []FiberID{fAB, fBD, fDC, fCA}, []LinkID{lAB, lCD, lAC}
}

func TestBuilderBasics(t *testing.T) {
	net, fibers, links := buildSquare(t)
	if net.NumSites() != 4 || net.NumFibers() != 4 || net.NumLinks() != 3 {
		t.Fatalf("inventory %d/%d/%d", net.NumSites(), net.NumFibers(), net.NumLinks())
	}
	if got := net.LinkCapacityGbps(links[0]); got != 400 {
		t.Fatalf("AB capacity %g", got)
	}
	failed := net.FailedLinks(fibers[2])
	if len(failed) != 1 || failed[0] != links[1] {
		t.Fatalf("failed %v", failed)
	}
}

func TestBuilderRejectsBadLink(t *testing.T) {
	b := NewBuilder(3, 8)
	f := b.AddFiber(0, 1, 6000)
	if _, err := b.AddIPLink(0, 1, 1, 200, []FiberID{f}); err == nil {
		t.Fatal("accepted a 6000 km 200G link (reach 3000)")
	}
	if _, err := b.AddIPLink(0, 1, 1, 150, []FiberID{f}); err == nil {
		t.Fatal("accepted unknown modulation")
	}
	// Too many wavelengths for the spectrum.
	b2 := NewBuilder(2, 4)
	f2 := b2.AddFiber(0, 1, 100)
	if _, err := b2.AddIPLink(0, 1, 5, 100, []FiberID{f2}); err == nil {
		t.Fatal("accepted 5 waves on a 4-slot fiber")
	}
}

func TestRestorationRatio(t *testing.T) {
	net, fibers, _ := buildSquare(t)
	// Fiber DC carries CD's 2 waves; the ring detour D-B-A... C->D via
	// ring: plenty of spectrum -> fully restorable.
	u, err := net.RestorationRatio(fibers[2])
	if err != nil {
		t.Fatal(err)
	}
	if u != 1 {
		t.Fatalf("U = %g, want 1", u)
	}
}

// TestOutOfRangeProbes: asked about a fiber, link, demand or tunnel it does
// not have, the API names the index and the range it has: RestorationRatio
// with an error, the getters that return no error with a panic. Each row is
// one probe.
func TestOutOfRangeProbes(t *testing.T) {
	net, _, _ := buildSquare(t)
	planner, err := net.Plan(PlanOptions{Tickets: 2, Cutoff: 1e-4, Seed: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planner.Solve([]Demand{{Src: 0, Dst: 3, Gbps: 100}}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		probe func() error
		want  string
	}{
		{"RestorationRatio(99)", func() error { _, err := net.RestorationRatio(99); return err }, "no fiber 99 (fibers are [0,4))"},
		{"RestorationRatio(-1)", func() error { _, err := net.RestorationRatio(-1); return err }, "no fiber -1 (fibers are [0,4))"},
		{"LinkCapacityGbps(99)", func() error { net.LinkCapacityGbps(99); return nil }, "link 99 outside [0,3)"},
		{"LinkCapacityGbps(-1)", func() error { net.LinkCapacityGbps(-1); return nil }, "link -1 outside [0,3)"},
		{"TunnelLinks(9, 9)", func() error { plan.TunnelLinks(9, 9); return nil }, "demand 9 outside [0,1)"},
		{"TunnelLinks(0, 9)", func() error { plan.TunnelLinks(0, 9); return nil }, "tunnel 9 of demand 0 outside [0,"},
		{"TunnelLinks(-1, 0)", func() error { plan.TunnelLinks(-1, 0); return nil }, "demand -1 outside [0,1)"},
		{"FailedLinks(99)", func() error { net.FailedLinks(99); return nil }, "fiber 99 outside [0,4)"},
		{"FailedLinks(0, -1)", func() error { net.FailedLinks(0, -1); return nil }, "fiber -1 outside [0,4)"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var got string
			func() {
				defer func() {
					if r := recover(); r != nil {
						got = fmt.Sprint(r)
					}
				}()
				if err := c.probe(); err != nil {
					got = err.Error()
				}
			}()
			if !strings.Contains(got, c.want) {
				t.Errorf("%s: got %q, want it to name %q", c.name, got, c.want)
			}
		})
	}
}

// TestBuilderRejectsMalformedInput holds the Builder to its sticky error:
// each probe on a 3-site line (fibers 0-1 and 1-2) fails Build with an
// error that names the bad index or value, and the Builder ignores every
// call after the first malformed one.
func TestBuilderRejectsMalformedInput(t *testing.T) {
	line := func(sites, slots int) *Builder {
		b := NewBuilder(sites, slots)
		b.AddFiber(0, 1, 100)
		b.AddFiber(1, 2, 100)
		return b
	}
	for _, c := range []struct {
		name  string
		probe func() *Builder
		want  string
	}{
		{"NewBuilder(-1, 8)", func() *Builder { return NewBuilder(-1, 8) }, "-1 sites"},
		{"NewBuilder(3, 0)", func() *Builder { return NewBuilder(3, 0) }, "0 slots per fiber"},
		{"fiber to site 7", func() *Builder { b := line(3, 8); b.AddFiber(0, 7, 100); return b }, "site 7 outside [0,3)"},
		{"fiber from site -1", func() *Builder { b := line(3, 8); b.AddFiber(-1, 2, 100); return b }, "site -1 outside [0,3)"},
		{"negative fiber length", func() *Builder { b := line(3, 8); b.AddFiber(0, 2, -5); return b }, "length -5 km"},
		{"zero fiber length", func() *Builder { b := line(3, 8); b.AddFiber(0, 2, 0); return b }, "length 0 km"},
		{"NaN fiber length", func() *Builder { b := line(3, 8); b.AddFiber(0, 2, math.NaN()); return b }, "length NaN km"},
		{"AddIPLink on fiber 99", func() *Builder { b := line(3, 8); b.AddIPLink(0, 1, 1, 100, []FiberID{99}); return b }, "fiber 99 outside [0,2)"},
		{"AddIPLink on fiber -1", func() *Builder { b := line(3, 8); b.AddIPLink(0, 1, 1, 100, []FiberID{-1}); return b }, "fiber -1 outside [0,2)"},
		{"AddIPLink on an empty path", func() *Builder { b := line(3, 8); b.AddIPLink(0, 1, 1, 100, nil); return b }, "empty fiber path"},
		{"AddIPLink on a discontinuous path", func() *Builder { b := line(3, 8); b.AddIPLink(0, 2, 1, 100, []FiberID{1}); return b }, "fiber 1 does not touch ROADM 0"},
		{"AddIPLink to site 5", func() *Builder { b := line(3, 8); b.AddIPLink(0, 5, 1, 100, []FiberID{0}); return b }, "site 5 outside [0,3)"},
		{"zero-wave IP link", func() *Builder { b := line(3, 8); b.AddIPLink(0, 1, 0, 100, []FiberID{0}); return b }, "0 wavelengths"},
		{"SRLG on fiber 42", func() *Builder { b := line(3, 8); b.AddSRLG(0.01, 0, 42); return b }, "srlg0: fiber 42 outside [0,2)"},
		{"sticky", func() *Builder {
			b := line(3, 8)
			b.AddFiber(0, 7, 100)
			if f := b.AddFiber(0, 2, 100); f != -1 {
				t.Errorf("AddFiber after an error returned fiber %d, want -1", f)
			}
			if _, err := b.AddIPLink(0, 1, 1, 100, []FiberID{0}); err == nil {
				t.Error("AddIPLink after an error returned no error")
			}
			return b
		}, "site 7 outside [0,3)"},
	} {
		t.Run(c.name, func(t *testing.T) {
			net, err := c.probe().Build()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Build() = %v, %v; want an error naming %q", net, err, c.want)
			}
			if !errors.Is(err, ErrInvalidNetwork) {
				t.Errorf("Build() error %v is not an ErrInvalidNetwork", err)
			}
		})
	}
	// An IP link that cannot be provisioned as asked is rejected by
	// AddIPLink alone and leaves the Builder usable.
	for _, c := range []struct {
		name string
		add  func(b *Builder) error
		want string
	}{
		{"unknown rate", func(b *Builder) error { _, err := b.AddIPLink(0, 1, 1, 150, []FiberID{0}); return err }, "no modulation with rate 150 Gbps"},
		{"beyond reach", func(b *Builder) error {
			long := b.AddFiber(0, 2, 2000)
			_, err := b.AddIPLink(0, 2, 1, 400, []FiberID{long})
			return err
		}, "beyond the 1000 km reach of 400G"},
		{"continuity", func(b *Builder) error { _, err := b.AddIPLink(0, 1, 20, 100, []FiberID{0}); return err }, "wavelength continuity"},
	} {
		t.Run(c.name, func(t *testing.T) {
			b := line(3, 8)
			err := c.add(b)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("AddIPLink = %v; want an error naming %q", err, c.want)
			}
			if !errors.Is(err, ErrInvalidNetwork) {
				t.Errorf("AddIPLink error %v is not an ErrInvalidNetwork", err)
			}
			if _, err := b.AddIPLink(0, 2, 2, 100, []FiberID{0, 1}); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Build(); err != nil {
				t.Fatalf("a well-formed network after a rejected link: %v", err)
			}
		})
	}
}

// TestBuilderRebuildsTheTopologies rebuilds B4 (with its SRLGs), IBM and
// Facebook through the Builder, as cmd/arrow-plan and the repository
// benchmark do.
func TestBuilderRebuildsTheTopologies(t *testing.T) {
	for _, name := range []string{"B4", "IBM", "Facebook"} {
		tp, err := topo.ByName(name, 6)
		if err != nil {
			t.Fatal(err)
		}
		net := rebuildThroughBuilder(t, tp)
		if net.NumFibers() != len(tp.Opt.Fibers) || net.NumSRLGs() != len(tp.SRLGs) {
			t.Errorf("%s: %d fibers and %d SRLGs, want %d and %d", name, net.NumFibers(), net.NumSRLGs(), len(tp.Opt.Fibers), len(tp.SRLGs))
		}
	}
}

func TestPlanSolveReact(t *testing.T) {
	net, fibers, links := buildSquare(t)
	planner, err := net.Plan(PlanOptions{Tickets: 10, Cutoff: 1e-4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if planner.NumScenarios() == 0 {
		t.Fatal("no scenarios planned")
	}
	plan, err := planner.Solve([]Demand{
		{Src: 0, Dst: 1, Gbps: 300},
		{Src: 2, Dst: 3, Gbps: 200},
	}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan.Throughput()-1) > 1e-6 {
		t.Fatalf("throughput %g", plan.Throughput())
	}
	if plan.AdmittedGbps() != 500 {
		t.Fatalf("admitted %g", plan.AdmittedGbps())
	}
	ratios := plan.SplitRatios()
	for d, rs := range ratios {
		sum := 0.0
		for _, r := range rs {
			sum += r
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("demand %d ratios sum to %g", d, sum)
		}
	}
	if avail := plan.Availability(); avail < 0.99 {
		t.Fatalf("availability %g", avail)
	}

	re, err := plan.OnFiberCut(fibers[2])
	if err != nil {
		t.Fatal(err)
	}
	if len(re.Failed) != 1 || re.Failed[0] != links[1] {
		t.Fatalf("reaction failed links %v", re.Failed)
	}
	if re.RestoredGbps[links[1]] <= 0 {
		t.Fatalf("no capacity restored for CD: %v", re.RestoredGbps)
	}
	if len(re.AddDropROADMs) == 0 {
		t.Fatal("no add/drop ROADMs in reaction")
	}
}

func TestSolveNaiveOnly(t *testing.T) {
	net, _, _ := buildSquare(t)
	planner, err := net.Plan(PlanOptions{Tickets: 5, Cutoff: 1e-4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planner.Solve([]Demand{{Src: 0, Dst: 1, Gbps: 100}}, SolveOptions{NaiveOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if plan.AdmittedGbps() != 100 {
		t.Fatalf("admitted %g", plan.AdmittedGbps())
	}
}

func TestSolveRejectsBadDemand(t *testing.T) {
	net, _, _ := buildSquare(t)
	planner, err := net.Plan(PlanOptions{Tickets: 3, Cutoff: 1e-4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := planner.Solve([]Demand{{Src: 0, Dst: 0, Gbps: 10}}, SolveOptions{}); err == nil {
		t.Fatal("accepted self demand")
	}
	if _, err := planner.Solve([]Demand{{Src: 0, Dst: 99, Gbps: 10}}, SolveOptions{}); err == nil {
		t.Fatal("accepted out-of-range demand")
	}
	// A bad rate is refused at the boundary, by demand index, before any LP
	// is built: -5 used to surface as an LP bound error, NaN as a failed
	// certificate, and +Inf "succeeded" with throughput 0.
	for _, g := range []float64{-5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := planner.Solve([]Demand{{Src: 0, Dst: 1, Gbps: 50}, {Src: 1, Dst: 2, Gbps: g}}, SolveOptions{})
		if err == nil || !strings.Contains(err.Error(), "arrow: demand 1 (1->2)") {
			t.Errorf("Gbps %v: got %v, want an error naming demand 1", g, err)
		}
	}
	for _, a := range []float64{-0.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := planner.Solve([]Demand{{Src: 0, Dst: 1, Gbps: 50}}, SolveOptions{Alpha: a})
		if err == nil || !strings.Contains(err.Error(), "arrow: invalid alpha") {
			t.Errorf("Alpha %v: got %v, want an invalid-alpha error", a, err)
		}
	}
	// Still legal: no demand at all, a zero demand, and a repeated pair.
	for name, ds := range map[string][]Demand{
		"empty":     nil,
		"zero":      {{Src: 0, Dst: 1, Gbps: 0}},
		"duplicate": {{Src: 0, Dst: 1, Gbps: 30}, {Src: 0, Dst: 1, Gbps: 20}},
	} {
		plan, err := planner.Solve(ds, SolveOptions{})
		if err != nil {
			t.Errorf("%s demands: %v", name, err)
			continue
		}
		if got := plan.Throughput(); math.Abs(got-1) > 1e-9 {
			t.Errorf("%s demands: throughput %v, want 1", name, got)
		}
	}
}

func TestOnFiberCutUnknownScenario(t *testing.T) {
	net, fibers, _ := buildSquare(t)
	planner, err := net.Plan(PlanOptions{Tickets: 3, Cutoff: 1e-4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planner.Solve([]Demand{{Src: 0, Dst: 1, Gbps: 50}}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// A triple cut is certainly below cutoff, and fiber 99 does not exist.
	for _, cut := range [][]FiberID{{fibers[0], fibers[1], fibers[2]}, {99}} {
		if _, err := plan.OnFiberCut(cut...); !errors.Is(err, ErrUnplannedCut) {
			t.Errorf("OnFiberCut%v: got %v, want ErrUnplannedCut", cut, err)
		}
		if _, err := plan.ROADMConfig(cut...); !errors.Is(err, ErrUnplannedCut) {
			t.Errorf("ROADMConfig%v: got %v, want ErrUnplannedCut", cut, err)
		}
	}
}

// reactionWork is what the reaction must not do, as the recorder counts it:
// RWA solves, LP solves and surrogate-path searches (one observation per
// failed link searched).
func reactionWork(reg *obs.Registry) [3]int64 {
	return [3]int64{reg.Counter("rwa.solves"), reg.Counter("lp.solves"), reg.Snapshot().Histograms["rwa.surrogate_paths"].Count}
}

// TestOnFiberCutRecordsMetrics pins that the reaction is a read: under the
// recorder the planner was planned with, which does see the offline stage's
// solves, a reaction records no RWA solve, no LP solve and no path search.
func TestOnFiberCutRecordsMetrics(t *testing.T) {
	net, fibers, _ := buildSquare(t)
	reg := obs.NewRegistry()
	planner, err := net.PlanContext(obs.WithRecorder(context.Background(), reg),
		PlanOptions{Tickets: 3, Cutoff: 1e-4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planner.Solve([]Demand{{Src: 0, Dst: 1, Gbps: 50}}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := reactionWork(reg)
	if before[0] == 0 || before[1] == 0 || before[2] == 0 {
		t.Fatalf("the recorder saw no offline work (%v): it cannot show the reaction does none", before)
	}
	if _, err := plan.OnFiberCut(fibers[2]); err != nil {
		t.Fatal(err)
	}
	if got := reactionWork(reg); got != before {
		t.Fatalf("OnFiberCut moved rwa.solves, lp.solves, rwa.surrogate_paths from %v to %v, want no change", before, got)
	}
}

func TestExportAndROADMConfig(t *testing.T) {
	net, fibers, _ := buildSquare(t)
	planner, err := net.Plan(PlanOptions{Tickets: 8, Cutoff: 1e-4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planner.Solve([]Demand{{Src: 0, Dst: 1, Gbps: 300}, {Src: 2, Dst: 3, Gbps: 200}}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := plan.Export()
	if err != nil {
		t.Fatal(err)
	}
	var ex PlanExport
	if err := json.Unmarshal(data, &ex); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(ex.Demands) != 2 || ex.Summary.AdmittedGbps != 500 {
		t.Fatalf("export summary %+v", ex.Summary)
	}
	for _, d := range ex.Demands {
		sum := 0.0
		for _, ts := range d.Tunnels {
			sum += ts.Ratio
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("tunnel ratios sum to %g", sum)
		}
	}
	if len(ex.Failures) != planner.NumScenarios() {
		t.Fatalf("%d failure exports for %d scenarios", len(ex.Failures), planner.NumScenarios())
	}
	// Identical plans export identically (determinism).
	data2, _ := plan.Export()
	if string(data) != string(data2) {
		t.Fatal("export not deterministic")
	}

	cfg, err := plan.ROADMConfig(fibers[2])
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"wave 1 (parallel)", "add-drop"} {
		if !strings.Contains(cfg, want) {
			t.Fatalf("ROADM config missing %q:\n%s", want, cfg)
		}
	}
}

func TestPerDemandAvailability(t *testing.T) {
	net, _, _ := buildSquare(t)
	planner, err := net.Plan(PlanOptions{Tickets: 6, Cutoff: 1e-4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planner.Solve([]Demand{{Src: 0, Dst: 1, Gbps: 100}, {Src: 2, Dst: 3, Gbps: 100}}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	per := plan.PerDemandAvailability()
	if len(per) != 2 {
		t.Fatalf("%d entries", len(per))
	}
	for i, a := range per {
		if a < 0.9 || a > 1+1e-9 {
			t.Fatalf("demand %d availability %g", i, a)
		}
	}
}

func TestPlannerCoverage(t *testing.T) {
	net, _, _ := buildSquare(t)
	planner, err := net.Plan(PlanOptions{Tickets: 4, Cutoff: 1e-4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := planner.Coverage()
	total := c.Healthy + c.Planned + c.Residual
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("coverage sums to %g: %+v", total, c)
	}
	if c.Healthy <= 0.5 || c.Planned <= 0 {
		t.Fatalf("implausible coverage %+v", c)
	}
}

// TestPlanContextLedger checks the public-API flight-recorder path: a
// ledger installed on the PlanContext context records scenario, ticket,
// solve and winner events, and the plan is byte-identical to an unrecorded
// one.
func TestPlanContextLedger(t *testing.T) {
	net, _, _ := buildSquare(t)
	led := ledger.New()
	ctx := ledger.WithLedger(context.Background(), led)
	planner, err := net.PlanContext(ctx, PlanOptions{Tickets: 10, Cutoff: 1e-4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	demands := []Demand{{Src: 0, Dst: 1, Gbps: 300}, {Src: 2, Dst: 3, Gbps: 200}}
	plan, err := planner.Solve(demands, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}

	kinds := map[ledger.Kind]int{}
	for _, ev := range led.Events() {
		kinds[ev.Kind]++
	}
	if kinds[ledger.KindEnumerated] != 1 {
		t.Errorf("enumerated events: %d, want 1", kinds[ledger.KindEnumerated])
	}
	if kinds[ledger.KindScenario] != planner.NumScenarios() {
		t.Errorf("scenario events: %d, want %d", kinds[ledger.KindScenario], planner.NumScenarios())
	}
	if kinds[ledger.KindTicketGenerated] == 0 {
		t.Error("no ticket_generated events")
	}
	if kinds[ledger.KindWinner] != planner.NumScenarios() {
		t.Errorf("winner events: %d, want %d", kinds[ledger.KindWinner], planner.NumScenarios())
	}
	for _, ev := range led.Events() {
		if ev.Kind == ledger.KindSolveEnd && ev.Cert == nil {
			t.Errorf("solve_end for %s carries no certificate", ev.Solver)
		}
	}

	// Recording must not change the result: same plan bytes as unrecorded.
	plain, err := net.Plan(PlanOptions{Tickets: 10, Cutoff: 1e-4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	plainPlan, err := plain.Solve(demands, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.Export()
	if err != nil {
		t.Fatal(err)
	}
	want, err := plainPlan.Export()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("recorded plan differs from unrecorded plan")
	}
}

// TestPlanRejectsProbabilitiesOutOfRange: a fiber or SRLG failure
// probability outside [0, 0.5), NaN included, is an error naming its index,
// not a plan. The enumerator's best-first order needs odds below 1.
func TestPlanRejectsProbabilitiesOutOfRange(t *testing.T) {
	net, _, _ := buildSquare(t)
	for _, p := range []float64{1, 0.5, math.NaN(), -0.01} {
		probs := []float64{0.01, 0.01, p, 0.01}
		_, err := net.PlanContext(context.Background(), PlanOptions{Tickets: 2, Seed: 1, FailureProbs: probs})
		if err == nil || !strings.Contains(err.Error(), "fiber 2") {
			t.Errorf("fiber probability %g: err = %v, want one naming fiber 2", p, err)
		}
	}

	b := NewBuilder(4, 16)
	var fs []FiberID
	for i := 0; i < 4; i++ {
		fs = append(fs, b.AddFiber(i, (i+1)%4, 500))
	}
	if _, err := b.AddIPLink(0, 1, 2, 200, fs[:1]); err != nil {
		t.Fatal(err)
	}
	b.AddSRLG(0.01, fs[0], fs[1])
	b.AddSRLG(0.5, fs[2], fs[3])
	srlgNet, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	probs := []float64{0.01, 0.01, 0.01, 0.01}
	_, err = srlgNet.PlanContext(context.Background(), PlanOptions{Tickets: 2, Seed: 1, FailureProbs: probs, UseSRLGs: true})
	if err == nil || !strings.Contains(err.Error(), "SRLG 1") {
		t.Errorf("SRLG probability 0.5: err = %v, want one naming SRLG 1", err)
	}
	// Without UseSRLGs the groups are not failure elements.
	if _, err := srlgNet.PlanContext(context.Background(), PlanOptions{Tickets: 2, Seed: 1, FailureProbs: probs}); err != nil {
		t.Errorf("groups checked without UseSRLGs: %v", err)
	}
}

// TestPlanCorrelated exercises the public correlated k-failure path:
// AddSRLG groups expand into multi-fiber cut scenarios, composed plans stay
// solvable end to end, the scenario ledger events carry the cut sets, and
// the default (all-zero) knobs reproduce the legacy plan byte-for-byte. The
// correlated plan must also be identical at any worker count and with the
// compositional stage disabled.
func TestPlanCorrelated(t *testing.T) {
	// The square WAN again, but with the two 520 km spans declared as one
	// shared conduit.
	build := func() *Network {
		_, fibers, _ := buildSquare(t)
		nb := NewBuilder(4, 16)
		nb.AddFiber(0, 1, 560)
		nb.AddFiber(1, 2, 560)
		nb.AddFiber(2, 3, 520)
		nb.AddFiber(3, 0, 520)
		if _, err := nb.AddIPLink(0, 1, 2, 200, []FiberID{fibers[0]}); err != nil {
			t.Fatal(err)
		}
		if _, err := nb.AddIPLink(2, 3, 2, 200, []FiberID{fibers[2]}); err != nil {
			t.Fatal(err)
		}
		if _, err := nb.AddIPLink(0, 3, 4, 200, []FiberID{fibers[3]}); err != nil {
			t.Fatal(err)
		}
		nb.AddSRLG(0.01, fibers[2], fibers[3])
		n, err := nb.Build()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	net := build()
	if net.NumSRLGs() != 1 {
		t.Fatalf("NumSRLGs = %d, want 1", net.NumSRLGs())
	}
	demands := []Demand{{Src: 0, Dst: 1, Gbps: 300}, {Src: 2, Dst: 3, Gbps: 200}}
	opts := PlanOptions{Tickets: 8, Cutoff: 1e-5, Seed: 1, MaxCutSize: 3, UseSRLGs: true}

	led := ledger.New()
	planner, err := net.PlanContext(ledger.WithLedger(context.Background(), led), opts)
	if err != nil {
		t.Fatal(err)
	}
	multi := 0
	for _, ev := range led.Events() {
		if ev.Kind == ledger.KindScenario && len(ev.Cut) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no multi-fiber cut scenarios recorded (SRLG did not expand)")
	}
	plan, err := planner.Solve(demands, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.Export()
	if err != nil {
		t.Fatal(err)
	}

	// Worker-count and compose on/off invariance of the correlated plan.
	for _, variant := range []PlanOptions{
		{Tickets: 8, Cutoff: 1e-5, Seed: 1, MaxCutSize: 3, UseSRLGs: true, Parallelism: 4},
		{Tickets: 8, Cutoff: 1e-5, Seed: 1, MaxCutSize: 3, UseSRLGs: true, NoCompose: true},
	} {
		p2, err := build().Plan(variant)
		if err != nil {
			t.Fatal(err)
		}
		plan2, err := p2.Solve(demands, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := plan2.Export()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("correlated plan differs under %+v", variant)
		}
	}

	// All-zero knobs on an SRLG-bearing network leave the groups out of the
	// enumeration: same plan as a network built without them.
	legacyOpts := PlanOptions{Tickets: 8, Cutoff: 1e-5, Seed: 1}
	pWith, err := build().Plan(legacyOpts)
	if err != nil {
		t.Fatal(err)
	}
	netPlain, _, _ := buildSquare(t)
	pWithout, err := netPlain.Plan(legacyOpts)
	if err != nil {
		t.Fatal(err)
	}
	a, err := pWith.Solve(demands, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bPlan, err := pWithout.Solve(demands, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ab, err := a.Export()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := bPlan.Export()
	if err != nil {
		t.Fatal(err)
	}
	if string(ab) != string(bb) {
		t.Error("default knobs on an SRLG network diverge from the legacy plan")
	}
}

// sameFiberSet reports whether a cut and a list of fibers name the same set,
// whatever the order and repeats.
func sameFiberSet(cut []int, fibers []FiberID) bool {
	set := map[int]bool{}
	for _, f := range fibers {
		set[int(f)] = true
	}
	for _, f := range cut {
		if !set[f] {
			return false
		}
	}
	return len(set) == len(cut)
}

// The scenario index answers what a scan of the planned cuts answers: the one
// scenario whose cut is the fiber set, whatever order and repeats the fibers
// come in ({b,a} and {a,a,b} are {a,b}). It finds no fiber the network lacks
// and no cut below the cutoff, not even one that fails exactly the links of a
// planned scenario.
func TestScenarioIndexMatchesScan(t *testing.T) {
	net, fibers, _ := buildSquare(t)
	// Every single and pair of fibers 0-2 is planned (fiber 1 carries no link,
	// so its single is not kept); fiber 3's single is below the cutoff.
	planner, err := net.Plan(PlanOptions{Tickets: 3, Cutoff: 1e-5, Seed: 1, FailureProbs: []float64{0.01, 0.01, 0.01, 1e-7}})
	if err != nil {
		t.Fatal(err)
	}
	var forms [][]FiberID
	for _, cut := range planner.cuts {
		fs := make([]FiberID, len(cut))
		for i, f := range cut {
			fs[i] = FiberID(f)
		}
		reversed := slices.Clone(fs)
		slices.Reverse(reversed)
		forms = append(forms, fs, reversed, append([]FiberID{fs[len(fs)-1]}, fs...))
	}
	// {0,1,2} is not enumerated and fails what the planned {0,2} fails.
	unplanned := [][]FiberID{{99}, {fibers[1]}, {fibers[3]}, {fibers[0], fibers[1], fibers[2]}}
	if !slices.Equal(net.FailedLinks(unplanned[3]...), net.FailedLinks(fibers[0], fibers[2])) {
		t.Fatal("fixture: the triple cut fails other links than the pair {0,2}")
	}
	shadowed := 0
	for qi := range planner.scenarios {
		for _, earlier := range planner.scenarios[:qi] {
			if slices.Equal(earlier.FailedLinks, planner.scenarios[qi].FailedLinks) {
				shadowed++
				break
			}
		}
	}
	if shadowed == 0 {
		t.Fatal("fixture: no planned scenario fails the links of an earlier one")
	}
	// One cut buffer serves every lookup, as a pooled reaction scratch does.
	var buf []int
	for _, form := range append(forms, unplanned...) {
		want := -1
		for qi, cut := range planner.cuts {
			if sameFiberSet(cut, form) {
				if want >= 0 {
					t.Fatalf("scenarios %d and %d both cut %v", want, qi, form)
				}
				want = qi
			}
		}
		got, cut, ok := planner.scenarioOf(buf, form)
		buf = cut
		if !ok {
			got = -1
		}
		if got != want {
			t.Errorf("cut %v: index says scenario %d, the scan %d", form, got, want)
		}
	}
	for _, cut := range unplanned {
		if qi, _, ok := planner.scenarioOf(nil, cut); ok {
			t.Errorf("unplanned cut %v found as scenario %d", cut, qi)
		}
	}
}

// ROADMConfig reads its plan the way OnFiberCut does: without a solve under
// the planner's recorder, and refusing an unplanned cut in the same words.
func TestROADMConfigSharesTheReactionSolve(t *testing.T) {
	net, fibers, _ := buildSquare(t)
	reg := obs.NewRegistry()
	planner, err := net.PlanContext(obs.WithRecorder(context.Background(), reg),
		PlanOptions{Tickets: 3, Cutoff: 1e-4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planner.Solve([]Demand{{Src: 0, Dst: 1, Gbps: 50}}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := reactionWork(reg)
	if _, err := plan.ROADMConfig(fibers[2]); err != nil {
		t.Fatal(err)
	}
	if got := reactionWork(reg); got != before {
		t.Fatalf("ROADMConfig moved rwa.solves, lp.solves, rwa.surrogate_paths from %v to %v, want no change", before, got)
	}
	_, cutErr := plan.OnFiberCut(fibers[0], fibers[1], fibers[2])
	_, cfgErr := plan.ROADMConfig(fibers[0], fibers[1], fibers[2])
	if cutErr == nil || cfgErr == nil || cutErr.Error() != cfgErr.Error() {
		t.Fatalf("unplanned cut: OnFiberCut says %v, ROADMConfig %v", cutErr, cfgErr)
	}
}
