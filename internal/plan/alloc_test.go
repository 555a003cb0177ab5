package plan

import (
	"context"
	"runtime"
	"testing"

	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/par"
	"github.com/arrow-te/arrow/internal/race"
	"github.com/arrow-te/arrow/internal/topo"
)

// serial is the context of a one-worker build.
var serial = par.WithWorkers(context.Background(), 1)

// srlgInstance is the benchmark's offline-plan instance: B4 with its conduit
// SRLGs, cut sets of up to three failure elements, every relevant scenario
// kept; build it under serial.
func srlgInstance(t testing.TB) (*topo.Topology, Options) {
	t.Helper()
	tp, err := topo.B4(6)
	if err != nil {
		t.Fatal(err)
	}
	return tp, Options{
		Tickets: 12, Cutoff: 1e-12, Seed: 1,
		Space: Space{MaxCutSize: 3, UseSRLGs: true},
	}
}

// TestOfflineStageAllocBudget holds the bytes one planned scenario allocates
// on the B4 + SRLG instance (1,791 scenarios): 2.33 KB measured (go1.24,
// linux/amd64) since the build's rwa.Memo answers each distinct RWA block
// once (its 16-byte entries point into the Result that solved the block, so
// no answer is copied) and the options stopped carrying path keys; 2.4 KB
// since each scenario's tickets are drawn into a scratch and
// copied out once at their exact size, its RWA result keeps no request and
// lays its per-link vectors out in one array per type, no naive copy of the
// scenario is kept, and the enumerator draws its candidates, cut sets and
// index from a pooled scratch; 3.7 KB since every RWA LP solves into its
// scratch's reused lp.Solution and the ticket and cut-set dedup stopped
// formatting keys, 5.9 KB before that, and 11.9 KB before the build's rwa.Memo answered the
// surrogate searches from ranked lists and interned the option sets, and
// before the naive and composed tickets stopped building an Assignment. The
// budget leaves 10 % for the runtime's own variation.
func TestOfflineStageAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's shadow allocations distort the count")
	}
	tp, opts := srlgInstance(t)
	build := func() *Offline {
		off, err := Build(serial, tp.Opt, nil, tp.SRLGs, opts)
		if err != nil {
			t.Fatal(err)
		}
		return off
	}
	build() // size the pooled scratches
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	off := build()
	runtime.ReadMemStats(&after)
	n := len(off.Scenarios)
	if n < 1500 {
		t.Fatalf("fixture: %d scenarios planned", n)
	}
	perScenario := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	t.Logf("%d scenarios, %.0f bytes allocated per scenario", n, perScenario)
	const budget = 2560.0
	if perScenario > budget {
		t.Errorf("%.0f bytes allocated per planned scenario, budget %.0f", perScenario, budget)
	}
}

// TestOfflineStageKeptAllocBudget holds the bytes a planned scenario keeps on
// the B4 + SRLG instance: the live heap after a collection with the Offline
// still held, less the live heap once it is dropped. That is the plan
// itself — the scenario set, each scenario's RWA result, option sets and
// tickets — which a plan of many more scenarios holds as long as it is
// used: 2.1 KB measured (go1.24, linux/amd64), 2.4 KB when each result
// held its request and each scenario a naive copy and tickets grown by
// append. The budget leaves 10 % for the runtime's own variation.
func TestOfflineStageKeptAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's shadow allocations distort the count")
	}
	tp, opts := srlgInstance(t)
	if _, err := Build(serial, tp.Opt, nil, tp.SRLGs, opts); err != nil { // size the pooled scratches
		t.Fatal(err)
	}
	off, err := Build(serial, tp.Opt, nil, tp.SRLGs, opts)
	if err != nil {
		t.Fatal(err)
	}
	n := len(off.Scenarios)
	var held, dropped runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&held)
	runtime.KeepAlive(off)
	off = nil
	runtime.GC()
	runtime.ReadMemStats(&dropped)
	perScenario := (float64(held.HeapAlloc) - float64(dropped.HeapAlloc)) / float64(n)
	t.Logf("%d scenarios, %.0f bytes kept per scenario", n, perScenario)
	const budget = 2290.0
	if perScenario > budget {
		t.Errorf("%.0f bytes kept per planned scenario, budget %.0f", perScenario, budget)
	}
}

// BenchmarkOfflineStageSRLG is one op of the repository benchmark's
// offline-plan workload: the whole stage on the B4 + SRLG instance. It
// reports the simplex pivots of one build (lp.pivots/op), counted by a
// recorder on a build outside the timed loop, so that the recorder's own
// bytes stay out of B/op.
func BenchmarkOfflineStageSRLG(b *testing.B) {
	tp, opts := srlgInstance(b)
	reg := obs.NewRegistry()
	if _, err := Build(obs.WithRecorder(serial, reg), tp.Opt, nil, tp.SRLGs, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(serial, tp.Opt, nil, tp.SRLGs, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(reg.Counter("lp.pivots")), "lp.pivots/op")
}
