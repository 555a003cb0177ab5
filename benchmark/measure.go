package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/stats"
)

// metric is one reported number. Bound is the share of the baseline by which
// an end-to-end metric may worsen before compare calls it regressed (absent
// on per-layer metrics); Samples is how many measurements are behind Value.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Better  string  `json:"better"`
	Bound   float64 `json:"bound,omitempty"`
	Samples int     `json:"samples,omitempty"`
}

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func (d metricDef) of(value float64, samples int) metric {
	return metric{Name: d.Name, Value: value, Unit: d.Unit, Better: d.Better, Bound: d.Bound, Samples: samples}
}

// contract is the part of BENCHMARK.json the program reads, so that the
// metrics, their units, directions and bounds are written down once.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// contractPath is relative to this directory, where run.sh, go run and go
// test all execute the program.
const contractPath = "../BENCHMARK.json"

func readContract() (*contract, error) {
	data, err := os.ReadFile(contractPath)
	if err != nil {
		return nil, err
	}
	c := &contract{}
	if err := json.Unmarshal(data, c); err != nil {
		return nil, fmt.Errorf("%s: %w", contractPath, err)
	}
	return c, nil
}

// Two end-to-end metrics are printed, stored and compared but are not in
// BENCHMARK.json, whose metrics must exist on every workload and never be 0:
// fail_ratio is 0 on a healthy run (a driver reads it from attempted/failed),
// throughput exists on online-te only.
var (
	failRatioDef  = metricDef{"fail_ratio", "fraction", "lower", 0}
	throughputDef = metricDef{"throughput", "fraction", "higher", 1e-6}
)

// collect turns measured values into metrics, in the order defs declares
// them; a declared metric nobody measured is an error.
func collect(defs []metricDef, values map[string]float64, samples map[string]int) ([]metric, error) {
	out := make([]metric, 0, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared in %s but was not measured", d.Name, contractPath)
		}
		out = append(out, d.of(v, samples[d.Name]))
	}
	return out, nil
}

// workloadResult is one workload's outcome in either mode.
type workloadResult struct {
	Workload  string   `json:"workload"`
	WorkUnit  string   `json:"work_unit"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"` // the first few failures
	Metrics   []metric `json:"metrics"`

	spans []span
}

func (r *workloadResult) fail(err error) {
	r.Failed++
	if len(r.Errors) < 5 {
		r.Errors = append(r.Errors, err.Error())
	}
}

func (r *workloadResult) metric(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// percentile is the nearest-rank q-quantile of xs.
func percentile(xs []float64, q float64) float64 { return stats.NewCDF(xs).Quantile(q) }

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// loopStats is what one closed loop over an instance observed.
type loopStats struct {
	durs         []float64 // seconds, one per successful op
	slots        []int     // the slot of each
	units        float64
	availability float64 // sums over successful ops
	throughput   float64
	allocBytes   uint64
	mallocs      uint64
	gcCPU, cpu   float64 // CPU seconds in the collector and in total
}

// runLoop replays the instance's cycle, one op after the previous returns,
// each cycle in a fresh order drawn from rng (the seed decides nothing else),
// and stops at the cycle boundary nearest to budget: whole cycles keep the op
// mix, and so the per-op metrics, the same whatever the seed and however many
// cycles fit. cycles > 0 fixes the count instead.
func runLoop(e *env, inst *instance, rng *rand.Rand, budget float64, cycles int, res *workloadResult) loopStats {
	var st loopStats
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	gc0, cpu0 := cpuSeconds("/cpu/classes/gc/total:cpu-seconds"), cpuSeconds("/cpu/classes/total:cpu-seconds")
	start := time.Now()
	for done := 1; ; done++ {
		for _, slot := range rng.Perm(inst.cycle) {
			end := e.tr.root("bench.op")
			r, err := inst.op(slot)
			end()
			res.Attempted++
			if err != nil {
				res.fail(err)
				continue
			}
			st.durs = append(st.durs, r.dur.Seconds())
			st.slots = append(st.slots, slot)
			st.units += r.units
			st.availability += r.availability
			st.throughput += r.throughput
		}
		elapsed := time.Since(start).Seconds()
		if cycles > 0 && done >= cycles || cycles <= 0 && elapsed+elapsed/float64(done)/2 >= budget {
			break
		}
	}
	st.gcCPU = cpuSeconds("/cpu/classes/gc/total:cpu-seconds") - gc0
	st.cpu = cpuSeconds("/cpu/classes/total:cpu-seconds") - cpu0
	runtime.ReadMemStats(&m1)
	st.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	st.mallocs = m1.Mallocs - m0.Mallocs
	return st
}

// setUp builds the instance and runs the one untimed warm-up op.
func setUp(wl workload, e *env) (*instance, error) {
	inst, err := wl.setup(e)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
	}
	end := e.tr.root("bench.warmup")
	_, err = inst.op(0)
	end()
	if err != nil {
		return nil, fmt.Errorf("%s warm-up op: %w", wl.name, err)
	}
	return inst, nil
}

// measure is the end-to-end run of one workload: tracing off, set-up timed
// sc.setups times, then the closed loop for about budget seconds. defs are
// BENCHMARK.json's end-to-end metrics.
func measure(wl workload, e *env, defs []metricDef, seed int64, budget float64) (*workloadResult, error) {
	res := &workloadResult{Workload: wl.name, WorkUnit: wl.unit}
	var inst *instance
	var setups []float64
	for i := 0; i < e.sc.setups; i++ {
		start := time.Now()
		var err error
		if inst, err = setUp(wl, e); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	st := runLoop(e, inst, rand.New(rand.NewSource(seed)), budget, 0, res)
	n := len(st.durs)
	if n == 0 {
		return res, nil
	}
	var err error
	res.Metrics, err = collect(defs, map[string]float64{
		"setup_s":         stats.Median(setups),
		"work_per_s":      st.units / stats.Sum(st.durs),
		"op_p50_s":        stats.Median(st.durs),
		"op_p90_s":        percentile(st.durs, 0.9),
		"alloc_mb_per_op": float64(st.allocBytes) / 1e6 / float64(res.Attempted),
		"availability":    st.availability / float64(n),
	}, map[string]int{
		"setup_s": len(setups), "work_per_s": n, "op_p50_s": n, "op_p90_s": n,
		"alloc_mb_per_op": res.Attempted, "availability": n,
	})
	if err != nil {
		return nil, err
	}
	res.Metrics = append(res.Metrics, failRatioDef.of(float64(res.Failed)/float64(res.Attempted), res.Attempted))
	if !math.IsNaN(st.throughput) {
		res.Metrics = append(res.Metrics, throughputDef.of(st.throughput/float64(n), n))
	}
	return res, nil
}

// counterDefs are the registry counts a traced run reports per op, as
// layer metric name -> registry counter.
var counterDefs = []struct{ name, counter string }{
	{"rwa.solves", "rwa.solves"},
	{"rwa.warm_from_singles", "scenario.warm_from_singles"},
	{"rwa.compose_adopted", "rwa.compose_adopted"},
	{"ticket.generated", "ticket.generated"},
	{"ticket.rounding_attempts", "ticket.rounding_attempts"},
	{"lp.solves", "lp.solves"},
	{"lp.pivots", "lp.pivots"},
	{"lp.pivot_work", "lp.pivot_work"},
	{"lp.phase1_pivots", "lp.phase1_pivots"},
	{"lp.refactorizations", "lp.refactorizations"},
	{"lp.cert_failures", "lp.cert_failures"},
	{"par.tasks", "par.tasks"},
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func cpuSeconds(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// slotRatio is how much longer an op takes in a than in b: the median, over
// the cycle's slots, of the slot's median time in a over its median time in
// b. Ops of one slot are like for like, and a cycle's op times are spread
// over a decade, so this holds still where the ratio of the two overall
// medians, which sit between two slots' clusters, does not.
func slotRatio(a, b loopStats) float64 {
	bySlot := func(st loopStats) map[int][]float64 {
		m := map[int][]float64{}
		for i, slot := range st.slots {
			m[slot] = append(m[slot], st.durs[i])
		}
		return m
	}
	as, bs := bySlot(a), bySlot(b)
	var ratios []float64
	for slot, durs := range as {
		if len(bs[slot]) > 0 {
			ratios = append(ratios, stats.Median(durs)/stats.Median(bs[slot]))
		}
	}
	return stats.Median(ratios)
}

// traceRun is the traced run of one workload. It sets up once with the
// registry and the tracer attached, then replays the cycle in pairs, first
// with both switched off (the overhead baseline) and then with both on and
// every op a root span, for half the end-to-end budget in all. Both sides
// run on the one instance and take turns, because two separately built plans,
// or two stretches of time on a shared host, differ by more than the tracing
// costs. It yields the workload's own per-layer metrics; the drills add the
// rest.
func traceRun(wl workload, e *env, seed int64, budget float64) (*workloadResult, map[string]float64, error) {
	res := &workloadResult{Workload: wl.name, WorkUnit: wl.unit}
	traced := *e
	rec, tr := obs.NewRegistry(), newTracer()
	traced.rec, traced.tr = rec, tr
	inst, err := setUp(wl, &traced)
	if err != nil {
		return nil, nil, err
	}
	before := rec.Snapshot().Counters
	var base, st loopStats // the untraced and the traced side
	baseRes := &workloadResult{}
	baseRng, rng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	start := time.Now()
	for pairs := 1; ; pairs++ {
		traced.rec, traced.tr = nil, nil
		off := runLoop(&traced, inst, baseRng, 0, 1, baseRes)
		base.durs, base.slots = append(base.durs, off.durs...), append(base.slots, off.slots...)
		traced.rec, traced.tr = rec, tr
		on := runLoop(&traced, inst, rng, 0, 1, res)
		st.durs, st.slots = append(st.durs, on.durs...), append(st.slots, on.slots...)
		st.mallocs += on.mallocs
		st.gcCPU += on.gcCPU
		st.cpu += on.cpu
		if elapsed := time.Since(start).Seconds(); elapsed+elapsed/float64(pairs)/2 >= budget/2 {
			break
		}
	}
	if baseRes.Failed > 0 {
		return nil, nil, fmt.Errorf("%s: %d untraced ops failed: %v", wl.name, baseRes.Failed, baseRes.Errors)
	}
	after := rec.Snapshot().Counters
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.spans = tr.spans

	ops := float64(res.Attempted)
	count := func(counter string) float64 { return float64(after[counter] - before[counter]) }
	out := map[string]float64{}
	for _, c := range counterDefs {
		out[c.name] = count(c.counter) / ops
	}
	out["ticket.yield"] = ratio(count("ticket.generated"), count("ticket.rounding_attempts"))
	out["lp.degenerate_frac"] = ratio(count("lp.degenerate_pivots"), count("lp.pivots"))
	out["lp.warm_accept_frac"] = ratio(count("lp.warm_accepted"), count("lp.warm_starts"))
	out["par.utilization"] = ratio(count("par.busy_ns"), count("par.busy_ns")+count("par.idle_ns"))
	out["runtime.gc_cpu_frac"] = ratio(st.gcCPU, st.cpu)
	out["runtime.mallocs_per_op"] = float64(st.mallocs) / ops
	out["runtime.heap_peak_mb"] = float64(ms.HeapSys) / 1e6
	out["bench.trace_overhead_frac"] = slotRatio(st, base) - 1
	out["bench.spans"] = float64(len(res.spans))
	return res, out, nil
}
