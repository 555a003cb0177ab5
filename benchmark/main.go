// Command benchmark is the repository's benchmark: four seeded workloads on
// the public API, measured end to end with tracing off, and a separate
// traced run that attributes the time to layers. README.md explains the
// workloads, the metrics and how they are expected to move together.
//
// It is a module of its own and runs from this directory (run.sh sees to both):
//
//	go run .                      every workload, end to end
//	go run . -trace 1             the traced run and the drills
//	go run . compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// config is one invocation.
type config struct {
	seed      int64
	workloads []workload
	seconds   float64
	trace     bool
	sc        scale
	out       string
}

// fingerprint says what machine and settings produced a report.
type fingerprint struct {
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	Seed       int64   `json:"seed"`
	Scale      string  `json:"scale"`
	Seconds    float64 `json:"seconds"`
}

// report is what a run writes to result.json (end to end) or layers.json
// (traced); compare reads the former.
type report struct {
	Mode        string            `json:"mode"` // end_to_end or per_layer
	Fingerprint fingerprint       `json:"fingerprint"`
	Workloads   []*workloadResult `json:"workloads"`
	// LayerSelfMS is each layer's busy time in a traced run: the summed self
	// time of its spans, per workload.
	LayerSelfMS map[string]map[string]float64 `json:"layer_self_ms,omitempty"`
}

func (r *report) failed() bool {
	for _, w := range r.Workloads {
		if w.Failed > 0 || w.Attempted == 0 {
			return true
		}
	}
	return false
}

// run executes the configured workloads in one mode, reporting the metrics
// bench declares for it, and writes the report (and, traced, one span file
// per workload) under cfg.out.
func run(cfg config, bench *contract) (*report, error) {
	// W = min(cores, 4); GOMAXPROCS in the environment lowers it.
	workers := min(runtime.GOMAXPROCS(0), 4)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	e := &env{sc: cfg.sc, workers: workers}
	rep := &report{Mode: "end_to_end", Fingerprint: fingerprint{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: workers, Workers: workers,
		Seed: cfg.seed, Scale: cfg.sc.name, Seconds: cfg.seconds,
	}}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	if !cfg.trace {
		for _, wl := range cfg.workloads {
			res, err := measure(wl, e, bench.EndToEnd, cfg.seed, cfg.seconds)
			if err != nil {
				return nil, err
			}
			rep.Workloads = append(rep.Workloads, res)
		}
		return rep, writeJSON(filepath.Join(cfg.out, "result.json"), rep)
	}

	rep.Mode = "per_layer"
	rep.LayerSelfMS = map[string]map[string]float64{}
	own := map[string]map[string]float64{}
	for _, wl := range cfg.workloads {
		res, layers, err := traceRun(wl, e, cfg.seed, cfg.seconds)
		if err != nil {
			return nil, err
		}
		rep.Workloads = append(rep.Workloads, res)
		own[wl.name] = layers
	}
	drilled, drillSpans, err := runDrills(e)
	if err != nil {
		return nil, err
	}
	for _, res := range rep.Workloads {
		values := own[res.Workload]
		for name, v := range drilled {
			values[name] = v
		}
		if res.Metrics, err = collect(bench.PerLayer, values, nil); err != nil {
			return nil, err
		}
		// A workload's file holds its traced ops, then its drill.
		spans := append(res.spans, rebase(drillSpans[res.Workload], res.spans)...)
		delete(drillSpans, res.Workload)
		rep.LayerSelfMS[res.Workload] = layerSelfMS(spans)
		if err := writeChromeTrace(filepath.Join(cfg.out, "trace."+res.Workload+".json"), spans); err != nil {
			return nil, err
		}
	}
	for name, spans := range drillSpans { // drills of workloads not selected
		if err := writeChromeTrace(filepath.Join(cfg.out, "trace."+name+".json"), spans); err != nil {
			return nil, err
		}
	}
	return rep, writeJSON(filepath.Join(cfg.out, "layers.json"), rep)
}

// rebase renumbers spans so they can follow prior in one file: ids, parents
// and ops continue after prior's, and time continues after prior's end.
func rebase(spans, prior []span) []span {
	if len(prior) == 0 {
		return spans
	}
	last := prior[len(prior)-1]
	out := make([]span, len(spans))
	for i, s := range spans {
		s.ID += len(prior)
		if s.Parent >= 0 {
			s.Parent += len(prior)
		}
		s.Op += last.Op
		s.Start += last.End
		s.End += last.End
		out[i] = s
	}
	return out
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printReport lists every metric by name with its unit.
func printReport(w io.Writer, rep *report) {
	fp := rep.Fingerprint
	fmt.Fprintf(w, "%s run: %s, nproc %d, GOMAXPROCS %d, workers %d, seed %d, scale %s, %gs per workload\n",
		rep.Mode, fp.GoVersion, fp.NumCPU, fp.GOMAXPROCS, fp.Workers, fp.Seed, fp.Scale, fp.Seconds)
	for _, res := range rep.Workloads {
		fmt.Fprintf(w, "\n%s: %d ops attempted, %d failed (work unit: %s)\n", res.Workload, res.Attempted, res.Failed, res.WorkUnit)
		for _, msg := range res.Errors {
			fmt.Fprintf(w, "  FAILED: %s\n", msg)
		}
		for _, m := range res.Metrics {
			fmt.Fprintf(w, "  %-28s %14.6g %-9s", m.Name, m.Value, m.Unit)
			if m.Samples > 0 {
				fmt.Fprintf(w, " n=%d", m.Samples)
			}
			fmt.Fprintln(w)
		}
		if self := rep.LayerSelfMS[res.Workload]; len(self) > 0 {
			layers := make([]string, 0, len(self))
			for l := range self {
				layers = append(layers, l)
			}
			sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
			fmt.Fprint(w, "  span self time by layer (ms):")
			for _, l := range layers {
				fmt.Fprintf(w, " %s %.1f", l, self[l])
			}
			fmt.Fprintln(w)
		}
	}
}

// driverLine is the one-object summary a benchmark driver reads from the
// last line of standard output: the metrics BENCHMARK.json names for the
// mode that ran.
func driverLine(res *workloadResult, defs []metricDef) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range defs {
		m, ok := res.metric(d.Name)
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("%s: metric %s was not measured", res.Workload, d.Name)
		}
		out.Metrics[d.Name] = value{m.Value, m.Unit}
	}
	data, err := json.Marshal(out)
	return string(data), err
}

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "schedule seed: the order each workload's ops run in")
	names := fs.String("workload", "", "comma-separated workloads to run (default: all four)")
	secs := fs.Float64("seconds", 0, "how long each workload's closed loop runs (default: BENCHMARK.json's run_seconds)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run and the drills (per-layer metrics, span files)")
	scaleName := fs.String("scale", "full", "full, or smoke for a seconds-long structural check")
	out := fs.String("out", "out", "directory for result.json, layers.json and trace.<workload>.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bench, err := readContract()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if *secs == 0 {
		*secs = float64(bench.RunSeconds)
	}
	cfg := config{seed: *seed, seconds: *secs, trace: *trace == 1, out: *out}
	var ok bool
	if cfg.sc, ok = scales[*scaleName]; !ok || fs.NArg() > 0 || *trace < 0 || *trace > 1 || !(*secs > 0) {
		fmt.Fprintln(stderr, "usage: benchmark [-workload a,b] [-seed n] [-seconds s] [-trace 0|1] [-scale smoke|full] [-out dir] | benchmark compare A.json B.json")
		return 2
	}
	cfg.workloads = workloads
	if *names != "" {
		cfg.workloads = nil
		for _, name := range strings.Split(*names, ",") {
			wl, ok := workloadByName(name)
			if !ok {
				fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", name)
				return 2
			}
			cfg.workloads = append(cfg.workloads, wl)
		}
	}
	rep, err := run(cfg, bench)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	printReport(stdout, rep)
	if rep.failed() {
		fmt.Fprintln(stderr, "benchmark: some ops failed or returned a wrong result")
		return 1
	}
	if len(rep.Workloads) == 1 {
		defs := bench.EndToEnd
		if cfg.trace {
			defs = bench.PerLayer
		}
		line, err := driverLine(rep.Workloads[0], defs)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, line)
	}
	return 0
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }
