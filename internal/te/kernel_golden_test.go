package te_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/arrow-te/arrow/internal/eval"
	"github.com/arrow-te/arrow/internal/lp"
	"github.com/arrow-te/arrow/internal/te"
	"github.com/arrow-te/arrow/internal/topo"
	"github.com/arrow-te/arrow/internal/traffic"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden kernel pivot-sequence file")

// basisDigest renders a basis as its count of basic structurals and basic
// slacks plus a short hash of every status.
func basisDigest(vars, rows []lp.BasisStatus) string {
	h := sha256.New()
	basic := [2]int{}
	for side, sts := range [][]lp.BasisStatus{vars, rows} {
		for _, st := range sts {
			h.Write([]byte{byte(st)})
			if st == lp.BasisBasic {
				basic[side]++
			}
		}
		h.Write([]byte{0xff})
	}
	return fmt.Sprintf("basic=%d+%d sha=%x", basic[0], basic[1], h.Sum(nil)[:6])
}

// TestKernelPivotSequenceGolden pins, for every kind of LP the seed pipeline
// solves (the standard B4 instance behind arrow-report -run and
// TestMetricsSchemaGolden), how many pivots the simplex takes and which
// basis it ends on: ARROW's phase-I masters and phase II, FFC and TeaVaR
// here, and the RWA assignment LPs of the offline stage in internal/rwa
// (TestRWAKernelPivotSequenceGolden, its own golden file). A kernel change
// that is meant to keep the pivot sequence (sparser storage, fewer
// allocations) must leave both files alone; one that is meant to change it
// (incremental reduced costs, partial pricing, a dual simplex) regenerates
// them deliberately and says so:
//
//	go test ./internal/te ./internal/rwa -run KernelPivotSequenceGolden -update
func TestKernelPivotSequenceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a full pipeline")
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
	var lines []string

	// The TE LPs on the run's traffic matrix.
	m := traffic.Generate(traffic.Options{Sites: tp.NumRouters(), Count: 1, MaxFlows: 40, TotalGbps: 1, Seed: seed + 7})[0]
	base, err := pl.BaseNetwork(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	var ffc1 []te.FailureScenario
	for f := range tp.Opt.Fibers {
		if failed := tp.Opt.FailedLinks([]int{f}); len(failed) > 0 {
			ffc1 = append(ffc1, te.FailureScenario{FailedLinks: failed})
		}
	}
	solves, err := te.KernelSolves(base.Scaled(3), pl.Scenarios, ffc1, pl.Plain)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range solves {
		if s.Pivots == 0 || s.Basis == nil {
			t.Errorf("%s: %d pivots, basis %v: nothing pinned", s.Name, s.Pivots, s.Basis)
			continue
		}
		lines = append(lines, fmt.Sprintf("%s rows=%d vars=%d pivots=%d %s", s.Name, s.Rows, s.Vars, s.Pivots,
			basisDigest(s.Basis.VarStatus, s.Basis.RowStatus)))
	}

	got := strings.Join(lines, "\n") + "\n"
	golden := filepath.Join("testdata", "kernel_pivots.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("the simplex pivot sequence drifted from %s (regenerate deliberately with -update):\n got:\n%s\nwant:\n%s",
			golden, got, want)
	}
}
