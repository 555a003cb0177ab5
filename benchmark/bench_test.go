package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// checkMetrics asserts that res reports every declared metric, finite and
// tagged as declared.
func checkMetrics(t *testing.T, res *workloadResult, want []metricDef) {
	t.Helper()
	for _, w := range want {
		m, ok := res.metric(w.Name)
		switch {
		case !ok:
			t.Errorf("%s: metric %s is not emitted", res.Workload, w.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", res.Workload, w.Name, m.Value)
		case m.Unit != w.Unit || m.Better != w.Better || m.Bound != w.Bound:
			t.Errorf("%s: metric %s is {%s %s %g}, BENCHMARK.json says {%s %s %g}", res.Workload, w.Name, m.Unit, m.Better, m.Bound, w.Unit, w.Better, w.Bound)
		}
	}
}

// TestSmoke runs every workload end to end and traced at smoke scale and
// checks structure only: no assertion here depends on how long anything took.
func TestSmoke(t *testing.T) {
	bench, err := readContract()
	if err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(bench.Workloads), len(workloads))
	}
	cfg := config{seed: 1, seconds: 0.2, sc: scales["smoke"], out: t.TempDir()}
	for _, w := range bench.Workloads {
		wl, ok := workloadByName(w.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %s, the program has none", w.Name)
		}
		cfg.workloads = append(cfg.workloads, wl)
	}

	rep, err := run(cfg, bench)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range rep.Workloads {
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed: %v", res.Workload, res.Failed, res.Attempted, res.Errors)
		}
		checkMetrics(t, res, bench.EndToEnd)
		if m, _ := res.metric("fail_ratio"); m.Value != 0 {
			t.Errorf("%s: fail_ratio = %v", res.Workload, m.Value)
		}
		if _, err := driverLine(res, bench.EndToEnd); err != nil {
			t.Error(err)
		}
		if _, ok := res.metric("throughput"); ok != (res.Workload == "online-te") {
			t.Errorf("%s: reports throughput: %v", res.Workload, ok)
		}
	}

	cfg.trace = true
	rep, err = run(cfg, bench)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range rep.Workloads {
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s traced: %d of %d ops failed: %v", res.Workload, res.Failed, res.Attempted, res.Errors)
		}
		checkMetrics(t, res, bench.PerLayer)
		checkSpanFile(t, filepath.Join(cfg.out, "trace."+res.Workload+".json"))
	}
}

// checkSpanFile asserts that every span's parent resolves, that a child lies
// inside its parent, and that children together take no longer than it.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string
			TS   float64
			Dur  float64
			Args struct{ ID, Parent, Op int }
		}
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	events := file.TraceEvents
	if len(events) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	children := make([]float64, len(events))
	for i, ev := range events {
		if ev.Args.ID != i {
			t.Fatalf("%s: span %d has id %d", path, i, ev.Args.ID)
		}
		p := ev.Args.Parent
		if p < 0 {
			continue
		}
		if p >= i {
			t.Fatalf("%s: span %d (%s) has unresolved parent %d", path, i, ev.Name, p)
		}
		if ev.Args.Op != events[p].Args.Op || ev.TS < events[p].TS || ev.TS+ev.Dur > events[p].TS+events[p].Dur {
			t.Errorf("%s: span %d (%s) is not inside its parent %d (%s)", path, i, ev.Name, p, events[p].Name)
		}
		children[p] += ev.Dur
	}
	for i, ev := range events {
		if children[i] > ev.Dur {
			t.Errorf("%s: children of span %d (%s) take %vus of its %vus", path, i, ev.Name, children[i], ev.Dur)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metric{Better: "lower", Bound: 0.10}
	higher := metric{Better: "higher", Bound: 0.10}
	failRatio := metric{Better: "lower", Bound: 0}
	for _, c := range []struct {
		name string
		m    metric
		a, b []float64
		want string
	}{
		{"within the bound", lower, []float64{1}, []float64{1.05}, "unchanged"},
		{"slower than the bound", lower, []float64{1}, []float64{1.2}, "regressed"},
		{"faster than the bound", lower, []float64{1}, []float64{0.8}, "improved"},
		{"less work done", higher, []float64{100}, []float64{80}, "regressed"},
		{"noisy and overlapping", lower, []float64{0.8, 1, 1.2, 1.4}, []float64{0.9, 1, 1.1, 1.3}, "unresolved"},
		{"noisy but every run better", lower, []float64{1.0, 1.2, 1.4, 1.6}, []float64{0.5, 0.6, 0.7, 0.8}, "improved"},
		{"no failures on either side", failRatio, []float64{0}, []float64{0}, "unchanged"},
		{"a failure appears", failRatio, []float64{0}, []float64{0.01}, "regressed"},
	} {
		if _, got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
