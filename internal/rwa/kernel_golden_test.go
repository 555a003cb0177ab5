package rwa_test

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
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/rwa"
	"github.com/arrow-te/arrow/internal/topo"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden RWA kernel pivot-sequence file")

// TestRWAKernelPivotSequenceGolden is the RWA half of internal/te's
// TestKernelPivotSequenceGolden, on the same pipeline: for each of the
// offline stage's RWA assignment LPs, re-solved from the request the stage
// made (one per relevant cut, in enumeration order, at the default K), how
// many LPs and pivots it takes and a hash of every variable off its lower
// bound at the optimum. It lives here because only this package's tests can
// read a block's final basis (rwa.OptimalBasis). A change meant to move them
// regenerates the file deliberately:
//
//	go test ./internal/rwa -run TestRWAKernelPivotSequenceGolden -update
func TestRWAKernelPivotSequenceGolden(t *testing.T) {
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
	var cuts [][]int
	for _, sc := range pl.Set.Scenarios {
		if len(tp.Opt.FailedLinks(sc.Cut)) > 0 {
			cuts = append(cuts, sc.Cut)
		}
	}
	var got strings.Builder
	for qi, res := range pl.RWAResults {
		if !slices.Equal(tp.Opt.FailedLinks(cuts[qi]), res.Failed) {
			t.Fatalf("rwa scenario %d: cut %v does not fail links %v", qi, cuts[qi], res.Failed)
		}
		reg := obs.NewRegistry()
		req := rwa.Request{
			Net: res.Net, Cut: cuts[qi], AllowTuning: true, AllowModulationChange: true,
			Recorder: reg,
		}
		if _, err := rwa.Solve(&req); err != nil {
			t.Fatalf("rwa scenario %d: %v", qi, err)
		}
		basis, err := rwa.OptimalBasis(&req)
		if err != nil {
			t.Fatalf("rwa scenario %d: %v", qi, err)
		}
		keys := make([]rwa.VarKey, 0, len(basis))
		for k := range basis {
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
			fmt.Fprintf(h, "%d %s %d %d\n", k.Link, k.Path, k.Slot, basis[k])
		}
		fmt.Fprintf(&got, "rwa.q%02d cut=%v solves=%d pivots=%d off-lower=%d sha=%x\n", qi, req.Cut,
			reg.Counter("lp.solves"), reg.Counter("lp.pivots"), len(keys), h.Sum(nil)[:6])
	}

	golden := filepath.Join("testdata", "kernel_pivots.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("the RWA LPs' pivot sequence drifted from %s (regenerate deliberately with -update):\n got:\n%s\nwant:\n%s",
			golden, got.String(), want)
	}
}
