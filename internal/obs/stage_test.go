package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStageProfilerNilSafe(t *testing.T) {
	var p *StageProfiler
	p.Total()()
	p.Stage("a")()
	p.StageAgg("b")()
	sp := p.Snapshot()
	if sp.TotalSeconds != 0 || sp.Coverage != 0 || len(sp.Stages) != 0 {
		t.Fatalf("nil profiler snapshot not empty: %+v", sp)
	}
}

func TestStageProfilerAttribution(t *testing.T) {
	p := NewStageProfiler()
	endTotal := p.Total()

	end := p.Stage("build")
	time.Sleep(5 * time.Millisecond)
	// Allocate something measurable inside the bracket.
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 4096))
	}
	_ = sink
	end()

	end = p.Stage("solve")
	time.Sleep(5 * time.Millisecond)
	end()
	end = p.Stage("solve") // same name accumulates
	end()

	endTotal()
	sp := p.Snapshot()
	if sp.TotalSeconds <= 0 {
		t.Fatalf("TotalSeconds = %v, want > 0", sp.TotalSeconds)
	}
	byName := map[string]StageRecord{}
	for _, st := range sp.Stages {
		byName[st.Name] = st
	}
	build := byName["build"]
	if build.Count != 1 || build.WallSeconds < 0.004 {
		t.Errorf("build stage: %+v", build)
	}
	if build.AllocBytes == 0 || build.Mallocs == 0 {
		t.Errorf("build stage recorded no allocations: %+v", build)
	}
	if solve := byName["solve"]; solve.Count != 2 {
		t.Errorf("solve stage count = %d, want 2", solve.Count)
	}
	if sp.Coverage <= 0 || sp.Coverage > 1.05 {
		t.Errorf("coverage = %v, want in (0, ~1]", sp.Coverage)
	}
}

func TestStageProfilerAggregateExcludedFromCoverage(t *testing.T) {
	p := NewStageProfiler()
	endTotal := p.Total()
	// Concurrent busy time can exceed the wall clock; it must not count
	// toward coverage.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			end := p.StageAgg("worker")
			time.Sleep(10 * time.Millisecond)
			end()
		}()
	}
	wg.Wait()
	endTotal()
	sp := p.Snapshot()
	var worker StageRecord
	for _, st := range sp.Stages {
		if st.Name == "worker" {
			worker = st
		}
	}
	if !worker.Aggregate || worker.Count != 4 {
		t.Fatalf("worker stage: %+v", worker)
	}
	if worker.WallSeconds < 0.03 {
		t.Errorf("aggregate busy time = %v, want ~0.04 (4 x 10ms)", worker.WallSeconds)
	}
	if sp.Coverage != 0 {
		t.Errorf("coverage = %v, want 0 (only aggregate stages ran)", sp.Coverage)
	}
}

func TestStageProfileSortedByWall(t *testing.T) {
	sp := &StageProfile{Stages: []StageRecord{
		{Name: "agg", WallSeconds: 99, Aggregate: true},
		{Name: "small", WallSeconds: 1},
		{Name: "big", WallSeconds: 5},
	}}
	got := sp.SortedByWall()
	var names []string
	for _, st := range got {
		names = append(names, st.Name)
	}
	if joined := strings.Join(names, ","); joined != "big,small,agg" {
		t.Fatalf("order = %s, want big,small,agg", joined)
	}
}
