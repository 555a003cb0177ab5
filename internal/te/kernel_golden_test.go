package te_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/arrow-te/arrow/internal/eval"
	"github.com/arrow-te/arrow/internal/lp"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/rwa"
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
// basis it ends on: the RWA assignment LPs of the offline stage, ARROW's
// phase-I masters and phase II, FFC and TeaVaR. A kernel change that is meant to keep the pivot
// sequence (sparser storage, fewer allocations) must leave this file alone;
// one that is meant to change it (incremental reduced costs, partial
// pricing, a dual simplex) regenerates it deliberately and says so:
//
//	go test ./internal/te -run TestKernelPivotSequenceGolden -update
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

	// The offline stage's RWA LPs, re-solved from the requests the stage
	// made: one per relevant cut, in enumeration order, at the default K.
	var cuts [][]int
	for _, sc := range pl.Set.Scenarios {
		if len(tp.Opt.FailedLinks(sc.Cut)) > 0 {
			cuts = append(cuts, sc.Cut)
		}
	}
	for qi, res := range pl.RWAResults {
		if !slices.Equal(tp.Opt.FailedLinks(cuts[qi]), res.Failed) {
			t.Fatalf("rwa scenario %d: cut %v does not fail links %v", qi, cuts[qi], res.Failed)
		}
		reg := obs.NewRegistry()
		req := rwa.Request{
			Net: res.Net, Cut: cuts[qi], AllowTuning: true, AllowModulationChange: true,
			Recorder: reg, ExportBasis: true,
		}
		again, err := rwa.Solve(&req)
		if err != nil {
			t.Fatalf("rwa scenario %d: %v", qi, err)
		}
		keys := make([]rwa.WarmKey, 0, len(again.VarBasis))
		for k := range again.VarBasis {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool {
			x, y := keys[a], keys[b]
			if x.Link != y.Link {
				return x.Link < y.Link
			}
			if x.Path != y.Path {
				return x.Path < y.Path
			}
			return x.Slot < y.Slot
		})
		h := sha256.New()
		for _, k := range keys {
			fmt.Fprintf(h, "%d %s %d %d\n", k.Link, k.Path, k.Slot, again.VarBasis[k])
		}
		lines = append(lines, fmt.Sprintf("rwa.q%02d cut=%v solves=%d pivots=%d off-lower=%d sha=%x", qi, req.Cut,
			reg.Counter("lp.solves"), reg.Counter("lp.pivots"), len(keys), h.Sum(nil)[:6]))
	}

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
