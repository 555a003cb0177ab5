package eval

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/par"
	"github.com/arrow-te/arrow/internal/race"
	"github.com/arrow-te/arrow/internal/te"
)

var updateWork = flag.Bool("update-work", false, "rewrite testdata/sweep_work.golden")

// sweepWork runs the fast B4 sweep's own tasks (each matrix's TeaVaR,
// FFC-1 and FFC-2 chains, then ARROW with ARROW-Naive, then ECMP) at the
// given worker count and renders its
// work: per (scheme, scale) cell the Phase I and Phase II model sizes and
// pivots, then the LP counters of the whole computation, the pipeline's
// offline stage included.
func sweepWork(t *testing.T, workers int) string {
	reg := obs.NewRegistry()
	cfg := Config{Fast: true, Seed: 1, Parallelism: workers, Recorder: reg}
	g, err := newSweepGrid(cfg, "B4")
	if err != nil {
		t.Fatal(err)
	}
	schemes := AllSchemes()
	stats := make([]te.SolveStats, len(g.cells))
	err = par.ForEach(cfg.ctx(), workers, len(g.tasks), func(_ context.Context, j int) error {
		return g.solveTask(j, func(ci int, _ *te.Network, al *te.Allocation) {
			stats[ci] = al.Stats
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("# scheme scale | phase1 rows vars pivots | phase2 rows vars pivots\n")
	for j, c := range g.cells {
		s := stats[j]
		fmt.Fprintf(&b, "%s %g | %d %d %d | %d %d %d\n", schemes[c.zi], g.scales[c.si],
			s.Phase1Rows, s.Phase1Vars, s.Phase1Iters, s.Phase2Rows, s.Phase2Vars, s.Phase2Iters)
	}
	snap := reg.Snapshot()
	for _, name := range []string{"lp.solves", "lp.pivots", "lp.refactorizations", "te.chain_restarts"} {
		fmt.Fprintf(&b, "%s %d\n", name, snap.Counters[name])
	}
	return b.String()
}

// TestSweepWorkGolden pins the LP work of the fast fig13 sweep, answer-free,
// against testdata/sweep_work.golden at 1 and 4 workers: a change that keeps
// every model and pivot (building a demand-independent half once instead
// of per cell) leaves it as it is, and one that moves the work on purpose
// rewrites it and quotes its diff:
//
//	go test ./internal/eval -run TestSweepWorkGolden -update-work
func TestSweepWorkGolden(t *testing.T) {
	if testing.Short() || race.Enabled {
		t.Skip("runs the fast availability sweep twice")
	}
	one, four := sweepWork(t, 1), sweepWork(t, 4)
	if one != four {
		t.Fatalf("1 and 4 workers do different work:\n%s\nvs\n%s", one, four)
	}
	golden := filepath.Join("testdata", "sweep_work.golden")
	if *updateWork {
		if err := os.WriteFile(golden, []byte(one), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-work): %v", err)
	}
	if one != string(want) {
		t.Errorf("the sweep's work drifted from %s (regenerate deliberately with -update-work):\n got:\n%s\nwant:\n%s",
			golden, one, want)
	}
}

// TestSweepCellsShareOneBase solves all cells of the fast B4 sweep at once,
// one goroutine each, on Scaled copies of one base network, so every solve
// reads the base's shared incidence and residual classes while the others
// build them (run it under -race). Each allocation must equal the cell's
// solve on a network with no holder, which builds both per call.
func TestSweepCellsShareOneBase(t *testing.T) {
	if testing.Short() {
		t.Skip("solves the fast availability sweep twice")
	}
	g, err := newSweepGrid(Config{Fast: true, Seed: 1, Parallelism: 1}, "B4")
	if err != nil {
		t.Fatal(err)
	}
	schemes := AllSchemes()
	shared := make([]*te.Allocation, len(g.cells))
	errs := make([]error, len(g.cells))
	var wg sync.WaitGroup
	for j, c := range g.cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shared[j], _, errs[j] = g.pl.SolveScheme(schemes[c.zi], g.bases[c.mi].Scaled(g.scales[c.si]))
		}()
	}
	wg.Wait()
	for j, c := range g.cells {
		if errs[j] != nil {
			t.Fatal(errs[j])
		}
		base := g.bases[c.mi]
		own := &te.Network{LinkCap: base.LinkCap, Flows: base.Flows, Tunnels: base.Tunnels}
		want, _, err := g.pl.SolveScheme(schemes[c.zi], own.Scaled(g.scales[c.si]))
		if err != nil {
			t.Fatal(err)
		}
		got := shared[j]
		if !reflect.DeepEqual(got.B, want.B) || !reflect.DeepEqual(got.A, want.A) ||
			got.Objective != want.Objective || got.Stats != want.Stats {
			t.Errorf("%s at scale %g: the shared half's allocation differs from a per-call one", schemes[c.zi], g.scales[c.si])
		}
	}
}

// TestSweepAllocBudget holds the bytes one fast fig13 computation allocates
// once the pools are sized: 0.94 MB measured (go1.24, linux/amd64) since
// every cell's availability reads its scenarios one at a time on a pooled
// pass and ARROW reads only the Phase II plan it keeps off its solution,
// 1.31 MB since ARROW's restored capacity is read off the winning tickets and Phase II
// holds its distinct rows only, 1.46 MB since
// each matrix's FFC-1 and FFC-2 cells are one chain each and ARROW-Naive's
// are read off ARROW's solves, 1.55 MB since each matrix's TeaVaR cells
// are one chain on one model, 1.63 MB since
// every FFC, max-throughput and Phase I model reads its variable layout off
// the base network's shared half, 1.79 MB since uncaptured base models name and record no capacity rows and every slack
// start basis comes from a pool, 2.03 MB since every LP solves into a
// pooled lp.Solution and uncaptured Phase II rows go unnamed, 2.84 MB
// before that, since every cell of a matrix reads one tunnel–link incidence and one set of
// residual classes per scenario list off its base network and ECMP builds
// its rows off that incidence, 6.46 MB when each of the 54 cells built both
// for itself and ECMP grew one row per link. The budget leaves 10 % for
// the runtime's own variation.
func TestSweepAllocBudget(t *testing.T) {
	if testing.Short() || race.Enabled {
		t.Skip("the race detector's shadow allocations distort the count")
	}
	e, ok := ByID("fig13")
	if !ok {
		t.Fatal("experiment fig13 is not registered")
	}
	run := func() {
		ResetSweepCache()
		if _, err := e.Run(Config{Fast: true, Seed: 1, Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
	}
	run() // size the pooled models and scratches
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	ResetSweepCache()
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.0f bytes allocated per fast fig13", perRun)
	const budget = 1.04e6
	if perRun > budget {
		t.Errorf("%.0f bytes allocated per fast fig13, budget %.0f", perRun, budget)
	}
}
