package eval

import (
	"fmt"
	"math"
	"testing"

	"github.com/arrow-te/arrow/internal/lp"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/te"
	"github.com/arrow-te/arrow/internal/topo"
	"github.com/arrow-te/arrow/internal/traffic"
)

// solveStandardArrow builds the standard B4 pipeline instance (the one
// arrow-report -run uses) and solves the ARROW scheme
// with the given colgen mode, worker count and recorder attached to the TE
// solve only (the pipeline build stays unrecorded so counter comparisons
// isolate the two-phase TE).
func solveStandardArrow(t testing.TB, seed int64, workers int, noColgen bool, rec obs.Recorder) *te.Allocation {
	t.Helper()
	tp, err := topo.B4(seed + 5)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := BuildPipeline(tp, PipelineOptions{
		Cutoff: 0.001, NumTickets: 12, Seed: seed, MaxScenarios: 16, Parallelism: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := traffic.Generate(traffic.Options{
		Sites: tp.NumRouters(), Count: 1, MaxFlows: 40, TotalGbps: 1, Seed: seed + 7,
	})[0]
	base, err := pl.BaseNetwork(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	opts := &te.ArrowOptions{NoColgen: noColgen, Parallelism: workers}
	if rec != nil {
		opts.LP = &lp.Options{Recorder: rec}
	}
	al, err := te.Arrow(base.Scaled(3), pl.Scenarios, opts)
	if err != nil {
		t.Fatal(err)
	}
	return al
}

// TestColgenMatchesFullEnumeration is the correctness acceptance gate for
// the column-generation Phase I: on the standard seed configs, colgen and
// full enumeration must select byte-identical winning tickets at every
// pricing worker count, and agree on the final objective to 1e-6.
func TestColgenMatchesFullEnumeration(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		ref := solveStandardArrow(t, seed, 1, true, nil) // full enumeration
		for _, workers := range []int{1, 4, 8} {
			cg := solveStandardArrow(t, seed, workers, false, nil)
			if fmt.Sprint(cg.WinningTicket) != fmt.Sprint(ref.WinningTicket) {
				t.Errorf("seed %d workers %d: winners differ\ncolgen   %v\nfullenum %v",
					seed, workers, cg.WinningTicket, ref.WinningTicket)
			}
			if d := math.Abs(cg.Objective - ref.Objective); d > 1e-6*(1+math.Abs(ref.Objective)) {
				t.Errorf("seed %d workers %d: objective differs by %g (colgen %.9f, fullenum %.9f)",
					seed, workers, d, cg.Objective, ref.Objective)
			}
		}
	}
}

// TestColgenDeterministicAcrossWorkers requires the colgen solve to be
// byte-identical at every pricing parallelism: same winners, same final
// allocation vector, same master sizes. The pricing fan-out is index-
// addressed and appends happen in scenario order after each sweep, so no
// part of the result may depend on scheduling.
func TestColgenDeterministicAcrossWorkers(t *testing.T) {
	ref := solveStandardArrow(t, 1, 1, false, nil)
	for _, workers := range []int{4, 8} {
		al := solveStandardArrow(t, 1, workers, false, nil)
		if fmt.Sprint(al.WinningTicket) != fmt.Sprint(ref.WinningTicket) {
			t.Errorf("workers %d: winners differ: %v vs %v", workers, al.WinningTicket, ref.WinningTicket)
		}
		if fmt.Sprint(al.B) != fmt.Sprint(ref.B) || fmt.Sprint(al.A) != fmt.Sprint(ref.A) {
			t.Errorf("workers %d: allocation vectors differ from sequential run", workers)
		}
		if al.Stats != ref.Stats {
			t.Errorf("workers %d: solve stats differ: %+v vs %+v", workers, al.Stats, ref.Stats)
		}
	}
}

// TestColgenReducesWork is the performance acceptance gate: on the standard
// instance, column generation must spend at least 25% less Phase I simplex
// work (te.phase1_pivot_work — pivots weighted by the master size each ran
// against) than full enumeration and keep the Phase I master strictly
// smaller on both dimensions, at an equal final objective.
//
// The gate deliberately does NOT use raw lp.pivots. Every Phase I master row
// is satisfied at x = 0, so the engine's all-slack warm start gets
// feasibility for free in BOTH modes and the pivot COUNTS come out nearly
// even (colgen's re-solve repairs roughly cancel the shorter walk on its
// smaller masters). What colgen actually buys is cheaper pivots: Dantzig
// pricing scans every column nonzero and FTRAN/BTRAN solve against the
// row-dimension factors, so iterations against a 30-60% smaller master cost
// proportionally less. The work counter measures exactly that product, and
// the drop grows with scenario count (30% at the 16-scenario standard
// instance, 57% at 128 scenarios).
func TestColgenReducesWork(t *testing.T) {
	cgReg, feReg := obs.NewRegistry(), obs.NewRegistry()
	cg := solveStandardArrow(t, 1, 1, false, cgReg)
	fe := solveStandardArrow(t, 1, 1, true, feReg)

	cgWork := cgReg.Snapshot().Counters["te.phase1_pivot_work"]
	feWork := feReg.Snapshot().Counters["te.phase1_pivot_work"]
	if cgWork == 0 || feWork == 0 {
		t.Fatalf("missing phase 1 pivot work: colgen %d, fullenum %d", cgWork, feWork)
	}
	if float64(cgWork) > 0.75*float64(feWork) {
		t.Errorf("colgen phase 1 pivot work %d not >= 25%% below full enumeration's %d", cgWork, feWork)
	}
	if cg.Stats.Phase1Vars >= fe.Stats.Phase1Vars || cg.Stats.Phase1Rows >= fe.Stats.Phase1Rows {
		t.Errorf("colgen peak master %dv/%dr not strictly smaller than full enumeration's %dv/%dr",
			cg.Stats.Phase1Vars, cg.Stats.Phase1Rows, fe.Stats.Phase1Vars, fe.Stats.Phase1Rows)
	}
	if d := math.Abs(cg.Objective - fe.Objective); d > 1e-6*(1+math.Abs(fe.Objective)) {
		t.Errorf("objectives differ by %g at equal instances", d)
	}
	cgPivots := cgReg.Snapshot().Counters["te.phase1_pivots"]
	fePivots := feReg.Snapshot().Counters["te.phase1_pivots"]
	t.Logf("phase 1 work: colgen %d vs fullenum %d (%.1f%% drop); pivots %d vs %d; master: %dv/%dr vs %dv/%dr",
		cgWork, feWork, 100*(1-float64(cgWork)/float64(feWork)), cgPivots, fePivots,
		cg.Stats.Phase1Vars, cg.Stats.Phase1Rows, fe.Stats.Phase1Vars, fe.Stats.Phase1Rows)
}

// TestColgenCounters checks the observability contract: a colgen solve
// reports its pricing effort through the metrics registry, and the deferred
// count accounts for every ticket the master never needed.
func TestColgenCounters(t *testing.T) {
	reg := obs.NewRegistry()
	solveStandardArrow(t, 1, 1, false, reg)
	c := reg.Snapshot().Counters
	if c["te.pricing_rounds"] == 0 {
		t.Error("te.pricing_rounds = 0 after a colgen solve")
	}
	if c["lp.columns_priced"] == 0 {
		t.Error("lp.columns_priced = 0 (expected at least one priced ticket block on the standard instance)")
	}
	if c["te.tickets_deferred"] == 0 {
		t.Error("te.tickets_deferred = 0 (colgen enumerated every ticket; no saving)")
	}
}

// BenchmarkColgenVsFullEnum measures the two Phase I modes on the standard
// instance: wall clock per solve plus, as benchmark metrics, the Phase I
// pivot work, pivot count and peak master dimensions. The companion
// TestColgenReducesWork gates the work and master-size advantage.
func BenchmarkColgenVsFullEnum(b *testing.B) {
	for _, mode := range []struct {
		name     string
		noColgen bool
	}{{"colgen", false}, {"fullenum", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var al *te.Allocation
			reg := obs.NewRegistry()
			for i := 0; i < b.N; i++ {
				al = solveStandardArrow(b, 1, 1, mode.noColgen, reg)
			}
			c := reg.Snapshot().Counters
			b.ReportMetric(float64(c["te.phase1_pivot_work"])/float64(b.N), "p1work/op")
			b.ReportMetric(float64(c["te.phase1_pivots"])/float64(b.N), "p1pivots/op")
			b.ReportMetric(float64(al.Stats.Phase1Vars), "mastervars")
			b.ReportMetric(float64(al.Stats.Phase1Rows), "masterrows")
		})
	}
}
