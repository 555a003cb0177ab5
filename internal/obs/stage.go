package obs

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// StageProfiler attributes a pipeline run's resources to named stages:
// wall time, allocation deltas (runtime.MemStats) and GC pause shares per
// stage. It follows the package's nil-default contract — every method is
// safe on a nil receiver and costs a nil check when profiling is off — and
// the overhead contract: profiling reads clocks and runtime counters but
// never influences control flow, iteration order, RNG consumption or
// floating-point arithmetic, so results are byte-identical on or off
// (enforced by the eval determinism tests).
//
// Two kinds of stage:
//
//   - Stage(name) brackets a TOP-LEVEL section of the driving goroutine.
//     Top-level stages must not overlap each other: their wall times sum
//     into the coverage figure (share of Total accounted for), and each
//     records allocation and GC-pause deltas across the bracket.
//   - StageAgg(name) brackets work that runs CONCURRENTLY (per-scenario
//     solves inside a worker pool). Occurrences sum busy time across
//     workers, carry no allocation deltas (runtime.MemStats is process-
//     global), and are excluded from coverage.
type StageProfiler struct {
	mu     sync.Mutex
	stages map[string]*stageAcc
	order  []string

	totalStart time.Time
	totalNS    atomic.Int64
}

// stageAcc accumulates one stage name's occurrences.
type stageAcc struct {
	count     int64
	wallNS    int64
	allocB    uint64
	mallocs   uint64
	gcPauseNS uint64
	aggregate bool
}

// NewStageProfiler returns an empty profiler.
func NewStageProfiler() *StageProfiler {
	return &StageProfiler{stages: map[string]*stageAcc{}}
}

// Total brackets the whole run: coverage is the share of the Total wall
// time the top-level stages account for. Returns the end function; nil-safe.
func (p *StageProfiler) Total() func() {
	if p == nil {
		return noopEnd
	}
	start := time.Now()
	p.mu.Lock()
	p.totalStart = start
	p.mu.Unlock()
	return func() { p.totalNS.Store(time.Since(start).Nanoseconds()) }
}

// Stage brackets one top-level section. The returned end function records
// the wall time plus the allocation and GC-pause deltas across the bracket.
// Occurrences of the same name accumulate. Nil-safe.
func (p *StageProfiler) Stage(name string) func() {
	if p == nil {
		return noopEnd
	}
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	return func() {
		wall := time.Since(start)
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		p.add(name, false, wall.Nanoseconds(),
			m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs, m1.PauseTotalNs-m0.PauseTotalNs)
	}
}

// StageAgg brackets one occurrence of concurrent work: busy time sums
// across workers, no allocation deltas, excluded from coverage. Nil-safe.
func (p *StageProfiler) StageAgg(name string) func() {
	if p == nil {
		return noopEnd
	}
	start := time.Now()
	return func() { p.add(name, true, time.Since(start).Nanoseconds(), 0, 0, 0) }
}

func (p *StageProfiler) add(name string, aggregate bool, wallNS int64, allocB, mallocs, gcPauseNS uint64) {
	p.mu.Lock()
	acc := p.stages[name]
	if acc == nil {
		acc = &stageAcc{aggregate: aggregate}
		p.stages[name] = acc
		p.order = append(p.order, name)
	}
	acc.count++
	acc.wallNS += wallNS
	acc.allocB += allocB
	acc.mallocs += mallocs
	acc.gcPauseNS += gcPauseNS
	p.mu.Unlock()
}

// StageRecord is one stage's accumulated attribution.
type StageRecord struct {
	Name  string `json:"name"`
	Count int64  `json:"count"`
	// WallSeconds is the summed bracket time: elapsed wall clock for
	// top-level stages, summed per-worker busy time for aggregate ones.
	WallSeconds float64 `json:"wall_seconds"`
	// AllocBytes / Mallocs are the heap-allocation deltas across the
	// brackets (process-global: concurrent allocators are attributed to
	// whichever top-level stage was open). Zero for aggregate stages.
	AllocBytes uint64 `json:"alloc_bytes"`
	Mallocs    uint64 `json:"mallocs"`
	// GCPauseSeconds is the stop-the-world pause time that fell inside the
	// brackets. Zero for aggregate stages.
	GCPauseSeconds float64 `json:"gc_pause_seconds"`
	// Aggregate marks concurrent busy-time stages (excluded from coverage).
	Aggregate bool `json:"aggregate,omitempty"`
}

// StageProfile is the exported profiler state (the arrow-report
// "Performance" section).
type StageProfile struct {
	// TotalSeconds is the Total() bracket (0 when Total was never closed).
	TotalSeconds float64 `json:"total_seconds"`
	// Coverage is the share of TotalSeconds the top-level stages account
	// for (0 without a Total bracket).
	Coverage float64       `json:"coverage"`
	Stages   []StageRecord `json:"stages"`
}

// Snapshot exports the accumulated attribution, stages in first-seen
// order. Nil-safe (returns an empty profile).
func (p *StageProfiler) Snapshot() *StageProfile {
	sp := &StageProfile{}
	if p == nil {
		return sp
	}
	sp.TotalSeconds = float64(p.totalNS.Load()) / 1e9
	p.mu.Lock()
	defer p.mu.Unlock()
	topNS := int64(0)
	for _, name := range p.order {
		acc := p.stages[name]
		sp.Stages = append(sp.Stages, StageRecord{
			Name: name, Count: acc.count,
			WallSeconds:    float64(acc.wallNS) / 1e9,
			AllocBytes:     acc.allocB,
			Mallocs:        acc.mallocs,
			GCPauseSeconds: float64(acc.gcPauseNS) / 1e9,
			Aggregate:      acc.aggregate,
		})
		if !acc.aggregate {
			topNS += acc.wallNS
		}
	}
	if total := p.totalNS.Load(); total > 0 {
		sp.Coverage = float64(topNS) / float64(total)
	}
	return sp
}

// SortedByWall returns the stages sorted by descending wall time
// (top-level stages first, aggregates after), for table rendering.
func (sp *StageProfile) SortedByWall() []StageRecord {
	out := append([]StageRecord(nil), sp.Stages...)
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Aggregate != out[b].Aggregate {
			return !out[a].Aggregate
		}
		return out[a].WallSeconds > out[b].WallSeconds
	})
	return out
}
