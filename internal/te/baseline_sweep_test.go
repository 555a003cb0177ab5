package te_test

import (
	"math"
	"testing"

	"github.com/arrow-te/arrow/internal/eval"
	"github.com/arrow-te/arrow/internal/lp"
	"github.com/arrow-te/arrow/internal/race"
	"github.com/arrow-te/arrow/internal/te"
	"github.com/arrow-te/arrow/internal/topo"
	"github.com/arrow-te/arrow/internal/traffic"
)

// TestBaselineObjectivesMatchReferenceOnSweep solves the 27 baseline cells
// of the fast B4 availability sweep (FFC-1, FFC-2 and TeaVaR at its nine
// demand scales, on the scenario lists eval.SolveScheme hands them) on the
// reduced and on the reference models: same optimum, to 1e-9 relative. The
// sweep's FFC-1, FFC-2 and TeaVaR cells, one chain along the scales each,
// match both the reference and a standalone solve of each scaled network,
// to 1e-9 relative, and their certificates pass.
func TestBaselineObjectivesMatchReferenceOnSweep(t *testing.T) {
	if testing.Short() || race.Enabled {
		t.Skip("builds a full pipeline and solves 135 LPs on one goroutine: 3 s, 40 s under the race detector")
	}
	const seed = 1
	tp, err := topo.B4(seed + 5)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := eval.BuildPipeline(tp, eval.PipelineOptions{Cutoff: 0.001, NumTickets: 12, Seed: seed, MaxScenarios: 16})
	if err != nil {
		t.Fatal(err)
	}
	m := traffic.Generate(traffic.Options{Sites: tp.NumRouters(), Count: 1, MaxFlows: 40, TotalGbps: 1, Seed: seed + 7})[0]
	base, err := pl.BaseNetwork(m, 8)
	if err != nil {
		t.Fatal(err)
	}

	// FFC-1: every single cut. FFC-2: those, the enumerated scenarios and
	// every pair of cuts.
	var ffc1 []te.FailureScenario
	nf := len(tp.Opt.Fibers)
	for f := 0; f < nf; f++ {
		if failed := tp.Opt.FailedLinks([]int{f}); len(failed) > 0 {
			ffc1 = append(ffc1, te.FailureScenario{FailedLinks: failed})
		}
	}
	ffc2 := append([]te.FailureScenario(nil), ffc1...)
	for _, sc := range pl.Plain {
		if len(sc.FailedLinks) > 0 {
			ffc2 = append(ffc2, te.FailureScenario{FailedLinks: sc.FailedLinks})
		}
	}
	for a := 0; a < nf; a++ {
		for b := a + 1; b < nf; b++ {
			if failed := tp.Opt.FailedLinks([]int{a, b}); len(failed) > 1 {
				ffc2 = append(ffc2, te.FailureScenario{FailedLinks: failed})
			}
		}
	}

	same := func(cell eval.Scheme, scale, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Errorf("%s at scale %g: objective %.15g, reference %.15g", cell, scale, got, want)
		}
	}
	// isSweepCell fails the test if the scenario lists above have drifted
	// from the ones the sweep solves.
	isSweepCell := func(cell eval.Scheme, n *te.Network, al *te.Allocation) {
		t.Helper()
		viaEval, _, err := pl.SolveScheme(cell, n)
		if err != nil {
			t.Fatal(err)
		}
		if viaEval.Stats != al.Stats || viaEval.Objective != al.Objective {
			t.Fatalf("%s: this test's model (%+v) is not the sweep's (%+v)", cell, al.Stats, viaEval.Stats)
		}
	}
	scales := []float64{1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 7.0}
	chain, err := te.Baselines{}.TeaVaRScales(base, pl.Plain, &te.TeaVaROptions{Beta: 0.999}, scales)
	if err != nil {
		t.Fatal(err)
	}
	// isSweepChain fails the test if a chain above is not the sweep's.
	isSweepChain := func(cell eval.Scheme, chain []*te.Allocation) {
		t.Helper()
		viaEval, err := pl.SolveScales(cell, base, scales)
		if err != nil {
			t.Fatal(err)
		}
		for si := range scales {
			if viaEval[si].Stats != chain[si].Stats || viaEval[si].Objective != chain[si].Objective {
				t.Fatalf("%s at scale %g: this test's chain (%+v) is not the sweep's (%+v)", cell, scales[si], chain[si].Stats, viaEval[si].Stats)
			}
		}
	}
	isSweepChain(eval.SchemeTeaVaR, chain)
	ffcs := []struct {
		name  eval.Scheme
		scs   []te.FailureScenario
		chain []*te.Allocation
	}{{name: eval.SchemeFFC1, scs: ffc1}, {name: eval.SchemeFFC2, scs: ffc2}}
	for i := range ffcs {
		c := &ffcs[i]
		if c.chain, err = (te.Baselines{}).FFCScales(base, c.scs, scales); err != nil {
			t.Fatal(err)
		}
		isSweepChain(c.name, c.chain)
	}
	for si, scale := range scales {
		n := base.Scaled(scale)
		for _, c := range ffcs {
			al, err := te.FFC(n, c.scs)
			if err != nil {
				t.Fatal(err)
			}
			isSweepCell(c.name, n, al)
			ref, err := te.RefFFC(n, c.scs)
			if err != nil {
				t.Fatal(err)
			}
			same(c.name, scale, al.Objective, ref.Objective)
			if err := lp.CheckCertificate(c.chain[si].Cert, 0); err != nil {
				t.Fatalf("chained %s at scale %g: %v", c.name, scale, err)
			}
			same("chained "+c.name, scale, c.chain[si].Objective, ref.Objective)
			same("chained "+c.name, scale, c.chain[si].Objective, al.Objective)
		}
		al, err := te.TeaVaR(n, pl.Plain, &te.TeaVaROptions{Beta: 0.999})
		if err != nil {
			t.Fatal(err)
		}
		if err := lp.CheckCertificate(al.Cert, 0); err != nil {
			t.Fatalf("TeaVaR at scale %g: %v", scale, err)
		}
		isSweepCell(eval.SchemeTeaVaR, n, al)
		ref, err := te.RefTeaVaRObjective(n, pl.Plain, 0.999)
		if err != nil {
			t.Fatal(err)
		}
		same(eval.SchemeTeaVaR, scale, al.Cert.Primal, ref)
		if err := lp.CheckCertificate(chain[si].Cert, 0); err != nil {
			t.Fatalf("chained TeaVaR at scale %g: %v", scale, err)
		}
		same("chained "+eval.SchemeTeaVaR, scale, chain[si].Cert.Primal, ref)
		same("chained "+eval.SchemeTeaVaR, scale, chain[si].Cert.Primal, al.Cert.Primal)
	}
}
