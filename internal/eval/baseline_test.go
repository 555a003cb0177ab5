package eval

import (
	"reflect"
	"testing"

	"github.com/arrow-te/arrow/internal/lp"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/plan"
	"github.com/arrow-te/arrow/internal/te"
	"github.com/arrow-te/arrow/internal/topo"
	"github.com/arrow-te/arrow/internal/traffic"
)

// baselineInstance is the B4 fast sweep's pipeline and its one traffic
// matrix at demand scale 1; at scale 3 it is the instance the kernel golden
// also pins.
func baselineInstance(t testing.TB) (*Pipeline, *te.Network) {
	t.Helper()
	const seed = 1
	tp, err := topo.B4(seed + 5)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := BuildPipeline(tp, PipelineOptions{Cutoff: 0.001, NumTickets: 12, Seed: seed, MaxScenarios: 16})
	if err != nil {
		t.Fatal(err)
	}
	m := traffic.Generate(traffic.Options{Sites: tp.NumRouters(), Count: 1, MaxFlows: 40, TotalGbps: 1, Seed: seed + 7})[0]
	base, err := pl.BaseNetwork(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	return pl, base
}

var baselineSchemes = []Scheme{SchemeFFC1, SchemeFFC2, SchemeTeaVaR}

// TestBaselineModelsStaySmall holds the baseline LPs to their reduced sizes:
// FFC emits one (4') row per minimal residual set and TeaVaR one s variable
// and sat row per distinct residual set. The per-scenario builds they
// replaced were 377, 767 and 749 rows x 1,018 variables here.
func TestBaselineModelsStaySmall(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a full pipeline")
	}
	pl, base := baselineInstance(t)
	n := base.Scaled(3)
	budget := map[Scheme][2]int{ // rows, vars
		SchemeFFC1:   {230, 360},
		SchemeFFC2:   {260, 360},
		SchemeTeaVaR: {380, 660},
	}
	for _, s := range baselineSchemes {
		al, _, err := pl.SolveScheme(s, n)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		st := al.Stats
		t.Logf("%s: %d rows x %d vars, %d pivots", s, st.Phase2Rows, st.Phase2Vars, st.Phase2Iters)
		if st.Phase2Rows == 0 || st.Phase2Rows > budget[s][0] || st.Phase2Vars > budget[s][1] {
			t.Errorf("%s: %d rows x %d vars, budget %d x %d", s, st.Phase2Rows, st.Phase2Vars, budget[s][0], budget[s][1])
		}
		if err := lp.CheckCertificate(al.Cert, 0); err != nil {
			t.Errorf("%s: %v", s, err)
		}
	}
}

// TestEverySchemeCarriesACertificate solves every scheme at each of the fast
// sweep's nine demand scales through SolveScheme: each allocation must carry
// the size of its LP and a certificate that passes. ECMP used to return
// neither.
func TestEverySchemeCarriesACertificate(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a full pipeline and solves 63 LPs")
	}
	pl, base := baselineInstance(t)
	for _, scale := range []float64{1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 7.0} {
		n := base.Scaled(scale)
		for _, s := range append(AllSchemes(), SchemeFullyRest) {
			al, _, err := pl.SolveScheme(s, n)
			if err != nil {
				t.Fatalf("%s at scale %g: %v", s, scale, err)
			}
			if al.Stats.Phase2Rows == 0 || al.Stats.Phase2Vars == 0 {
				t.Errorf("%s at scale %g: no model size in %+v", s, scale, al.Stats)
			}
			if err := lp.CheckCertificate(al.Cert, lp.DefaultCertTol); err != nil {
				t.Errorf("%s at scale %g: %v", s, scale, err)
			}
		}
	}
}

// BenchmarkBaselineCells times one sweep cell of each baseline scheme and
// reports the size of the LP behind it and the pivots it took.
func BenchmarkBaselineCells(b *testing.B) {
	pl, base := baselineInstance(b)
	n := base.Scaled(3)
	for _, s := range baselineSchemes {
		b.Run(string(s), func(b *testing.B) {
			var al *te.Allocation
			for i := 0; i < b.N; i++ {
				var err error
				if al, _, err = pl.SolveScheme(s, n); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(al.Stats.Phase2Rows), "rows")
			b.ReportMetric(float64(al.Stats.Phase2Vars), "vars")
			b.ReportMetric(float64(al.Stats.Phase2Iters), "pivots")
		})
	}
}

// BenchmarkBaselineChains times the fast sweep's TeaVaR, FFC-1 and FFC-2
// chains along its nine demand scales (Pipeline.SolveScales) and reports
// the pivots each chain took.
func BenchmarkBaselineChains(b *testing.B) {
	pl, base := baselineInstance(b)
	scales := []float64{1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 7.0}
	for _, s := range []Scheme{SchemeTeaVaR, SchemeFFC1, SchemeFFC2} {
		b.Run(string(s), func(b *testing.B) {
			var als []*te.Allocation
			for i := 0; i < b.N; i++ {
				var err error
				if als, err = pl.SolveScales(s, base, scales); err != nil {
					b.Fatal(err)
				}
			}
			pivots := 0
			for _, al := range als {
				pivots += al.Stats.Phase2Iters
			}
			b.ReportMetric(float64(pivots), "pivots")
		})
	}
}

// TestSweepMemoKeyedOnScenarioKnobs runs fig13 under configs that differ
// only in the scenario-space knobs, with no ResetSweepCache between them:
// each must get a sweep of its own pipeline, not the first one's memo.
func TestSweepMemoKeyedOnScenarioKnobs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three availability sweeps")
	}
	fig13 := func(cfg Config) ([][]string, *obs.Registry) {
		t.Helper()
		reg := obs.NewRegistry()
		cfg.Fast, cfg.Seed, cfg.Recorder = true, 1, reg
		r, err := runFig13(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r.Rows, reg
	}
	fig13(Config{Space: plan.Space{MaxCutSize: 1}})
	// On this instance the 16 most probable cuts are the same under both
	// sizes, so the tables agree; what tells the sweeps apart is that the
	// second one built its own pipeline.
	rows3, reg3 := fig13(Config{Space: plan.Space{MaxCutSize: 3}})
	if reg3.Counter("pipeline.scenarios_relevant") == 0 {
		t.Error("MaxCutSize 3 was served MaxCutSize 1's memoised sweep")
	}
	capped, _ := fig13(Config{Space: plan.Space{MaxCutSize: 3, MaxEnumerated: 5}})
	if reflect.DeepEqual(capped, rows3) {
		t.Error("MaxEnumerated 5 printed the uncapped sweep's table")
	}
	// Recorders and worker counts share an entry.
	again, regAgain := fig13(Config{Space: plan.Space{MaxCutSize: 3}, Parallelism: 2})
	if !reflect.DeepEqual(again, rows3) || regAgain.Counter("pipeline.scenarios_relevant") != 0 {
		t.Error("a second recorder or worker count recomputed the sweep")
	}
}
