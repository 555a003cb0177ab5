package te_test

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"github.com/arrow-te/arrow/internal/attr"
	"github.com/arrow-te/arrow/internal/availability"
	"github.com/arrow-te/arrow/internal/race"
	"github.com/arrow-te/arrow/internal/te"
)

// TestArrowAllocBudget holds the bytes one te.Arrow allocates on the sweep's
// B4 instance at demand scale 3: 14 KB measured (go1.24, linux/amd64) since
// its winners and row scratch are the pooled view's and only the Phase II
// plan kept is read off its solution, 19 KB since restored capacity is read
// off the winning tickets, Phase I's rows go
// unnamed and its scratch is pooled, 33 KB since
// its base models read their variable layout off the network's shared half,
// 36 KB since uncaptured base models name and record no capacity rows and
// every slack start basis comes from a pool, 49 KB since its LPs solve into pooled
// lp.Solutions and uncaptured Phase II rows go unnamed, 103 KB when every
// solve allocated its X, duals and basis and every Phase II row its name,
// 142 KB before it read the tunnel–link
// incidence its network shares with every Scaled copy, when every call
// built that incidence and read its rows off a pooled split table of its
// own, 298 KB when every solve built its Phase I blocks as lists of rows,
// 432 KB when every ticket built a Phase I block of its own and reference
// loads sat in a map, and 1.39 MB when every model was built from nothing,
// every row grown term by term and every (scenario, ticket) given masks of
// its own. The budget leaves 10 % for the runtime's own variation.
func TestArrowAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's shadow allocations distort the count")
	}
	base, scs := b4Fast(t)
	n := base.Scaled(3)
	solve := func() {
		if _, err := te.Arrow(n, scs, nil); err != nil {
			t.Fatal(err)
		}
	}
	solve() // size the pooled models and scratches
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		solve()
	}
	runtime.ReadMemStats(&after)
	perSolve := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.0f bytes allocated per te.Arrow", perSolve)
	const budget = 15.8e3
	if perSolve > budget {
		t.Errorf("%.0f bytes allocated per te.Arrow, budget %.0f", perSolve, budget)
	}
}

// TestCapturedModelIsNeverRecycled: the Phase II model Allocation.Sens
// keeps stays out of the model pool. After Arrow, FFC and TeaVaR solves on
// this goroutine and on two others have drawn models from it, the captured
// model has its rows, right-hand sides and size, and attribution's
// sensitivities and what-if probes on it come out as before.
func TestCapturedModelIsNeverRecycled(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a full pipeline")
	}
	base, scs := b4Fast(t)
	n := base.Scaled(3)
	al, err := te.Arrow(n, scs, &te.ArrowOptions{CaptureSensitivity: true})
	if err != nil {
		t.Fatal(err)
	}
	m := al.Sens.Model
	want, stats := m.Clone(), m.Stats()
	plain := make([]te.FailureScenario, len(scs))
	evScs := make([]availability.ScenarioEval, len(scs))
	for i := range scs {
		plain[i] = scs[i].FailureScenario
		evScs[i] = availability.ScenarioEval{Prob: scs[i].Prob, Failed: scs[i].FailedLinks, Restored: scs[i].Restoration(al.WinningTicket[i])}
	}
	in := attr.Input{Net: n, Alloc: al, Scenarios: evScs}
	rep, err := attr.Run(context.Background(), in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Sensitivities) == 0 || len(rep.Probes) == 0 {
		t.Fatalf("fixture: %d sensitivities, %d probes", len(rep.Sensitivities), len(rep.Probes))
	}

	busy := func() error {
		for _, scale := range []float64{1, 3, 5} {
			if _, err := te.Arrow(base.Scaled(scale), scs, &te.ArrowOptions{CaptureSensitivity: scale == 5}); err != nil {
				return err
			}
			if _, err := te.FFC(base.Scaled(scale), plain); err != nil {
				return err
			}
			if _, err := te.TeaVaR(base.Scaled(scale), plain, nil); err != nil {
				return err
			}
		}
		return nil
	}
	if err := busy(); err != nil {
		t.Fatal(err)
	}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = busy()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	if got := m.Stats(); got != stats {
		t.Fatalf("captured model is %+v now, %+v when captured", got, stats)
	}
	if !reflect.DeepEqual(m.Clone(), want) {
		t.Fatal("captured model's rows, right-hand sides or variables changed")
	}
	again, err := attr.Run(context.Background(), in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, rep) {
		t.Fatal("attribution on the captured model differs from before")
	}
}
