package plan

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/arrow-te/arrow/internal/par"
	"github.com/arrow-te/arrow/internal/rwa"
	"github.com/arrow-te/arrow/internal/scenario"
	"github.com/arrow-te/arrow/internal/topo"
)

// TestBuildErrorCancelsPool injects a failing RWA solve and checks that the
// first error cancels the pool promptly (far fewer solves than enumerated
// scenarios), that the reported error is the lowest-index one and names its
// enumerated scenario (schedule-independent, and the same text on both entry
// points, which return it as it is), and that no worker goroutines leak.
func TestBuildErrorCancelsPool(t *testing.T) {
	tp, err := topo.B4(6)
	if err != nil {
		t.Fatal(err)
	}
	probs := scenario.FailureProbabilities(len(tp.Opt.Fibers), scenario.DefaultShape, scenario.DefaultScale, 1)
	total := len(scenario.EnumerateCorrelated(probs, nil, scenario.EnumOptions{K: 2, Cutoff: 0.001}).Scenarios)

	orig := solveRWA
	defer func() { solveRWA = orig }()
	var calls atomic.Int64
	solveRWA = func(req rwa.Request) (*rwa.Result, error) {
		calls.Add(1)
		return nil, errors.New("injected rwa failure")
	}

	before := runtime.NumGoroutine()
	_, err = Build(par.WithWorkers(context.Background(), 8), tp.Opt, nil, nil, Options{Cutoff: 0.001, Tickets: 4, Seed: 1})
	if err == nil {
		t.Fatal("expected the build to fail")
	}
	if !strings.Contains(err.Error(), "scenario 0") || !strings.Contains(err.Error(), "injected rwa failure") {
		t.Fatalf("want lowest-index scenario error, got: %v", err)
	}
	if got := int(calls.Load()); got >= total {
		t.Errorf("pool not cancelled: %d solves attempted out of %d scenarios", got, total)
	}

	// par.Map joins its workers before returning, so any lingering goroutine
	// is a leak. Allow the runtime a moment to reap exiting goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutine leak: %d before, %d after", before, after)
	}
}

var benchOffline *Offline

// BenchmarkOfflineStage runs the whole stage for one kept scenario: legacy
// enumeration on B4, a budget of one, twelve tickets. CI runs it for one
// iteration so the shared loop cannot rot; for a before/after of the
// per-scenario cost use the repository benchmark's offline-plan workload.
func BenchmarkOfflineStage(b *testing.B) {
	tp, err := topo.B4(6)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Cutoff: 0.001, Tickets: 12, Seed: 1, MaxScenarios: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off, err := Build(serial, tp.Opt, nil, nil, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(off.Scenarios) != 1 {
			b.Fatalf("%d scenarios kept, want 1", len(off.Scenarios))
		}
		benchOffline = off
	}
}
