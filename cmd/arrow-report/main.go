// Command arrow-report renders ARROW flight-recorder ledgers and metrics
// snapshots into per-scenario run reports, and compares two metrics
// snapshots counter by counter.
//
// Usage:
//
//	arrow-report -run [-seed 1] [-parallelism 8] [-out report.md] [-json report.json] [-ledger-json ledger.json]
//	arrow-report -ledger ledger.json [-metrics metrics.json] [-out report.md] [-json report.json]
//	arrow-report -diff old.json new.json
//
// -run executes the standard recorded pipeline (eval.RunRecorded's B4
// instance), solves the ARROW scheme, and renders the
// decision ledger: which tickets were generated or rejected (and why),
// which ticket won each scenario with its restored-capacity fraction, the
// two-phase LP certificates, and the residual unmet demand. It exits 1 when
// a certificate fails.
//
// -diff prints every deterministic counter that differs between two
// -metrics-json snapshots (the wall-clock par.busy_ns and par.idle_ns are
// skipped) and exits 1 if any does, 2 if either file is not a metrics
// snapshot. It is the parent-vs-change check of a refactor; the properties a
// run must have (no anomalies, no certificate failures, an exact attribution
// identity) are asserted by the tests in internal/eval.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"github.com/arrow-te/arrow/internal/eval"
	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/plan"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main behind testable seams: argv in, exit code out.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("arrow-report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		doRun      = fs.Bool("run", false, "run the standard recorded pipeline and render its report")
		seed       = fs.Int64("seed", 1, "random seed for -run")
		parallel   = fs.Int("parallelism", 0, "worker count for -run (0 = NumCPU; results are identical)")
		healthEvr  = fs.Int("health-every", 0, "with -run: probe every LP solve's numerical health every N pivots (0 = off; probes never change results)")
		doAttr     = fs.Bool("attr", false, "with -run: run the availability-attribution pass (loss decomposition, shadow prices, what-if probes) after the solve; results are identical on or off")
		attrOut    = fs.String("attr-json", "", "with -run -attr: write the attribution report JSON to this path")
		metricsOut = fs.String("metrics-out", "", "with -run: write the run's metrics snapshot JSON to this path (diffable with -diff)")
		ledgerIn   = fs.String("ledger", "", "render an existing ledger snapshot JSON instead of running")
		metricsIn  = fs.String("metrics", "", "metrics snapshot JSON to embed in the report (with -ledger)")
		out        = fs.String("out", "-", "markdown report output path (- = stdout)")
		jsonOut    = fs.String("json", "", "also write the report as JSON to this path")
		ledgerOut  = fs.String("ledger-json", "", "with -run: write the raw ledger snapshot to this path")
		doDiff     = fs.Bool("diff", false, "print the counters that differ between two metrics snapshots and exit 1 if any does: arrow-report -diff old.json new.json")
		verbose    = fs.Bool("v", false, "verbose: mirror ledger events to the structured log")
	)
	obsFlags := obs.RegisterFlags(fs)
	space := plan.RegisterScenarioFlags(fs)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	logger := obsFlags.Logger(*verbose)

	switch {
	case *doDiff:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: arrow-report -diff old.json new.json")
			return 2
		}
		differ, err := runDiff(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "arrow-report:", err)
			return 2
		}
		if differ > 0 {
			return 1
		}
		return 0

	case *ledgerIn != "":
		fd, err := os.Open(*ledgerIn)
		if err != nil {
			fmt.Fprintln(stderr, "arrow-report:", err)
			return 2
		}
		snap, err := ledger.ReadJSON(fd)
		fd.Close()
		if err != nil {
			fmt.Fprintln(stderr, "arrow-report:", err)
			return 2
		}
		var metrics *obs.Snapshot
		if *metricsIn != "" {
			data, err := os.ReadFile(*metricsIn)
			if err != nil {
				fmt.Fprintln(stderr, "arrow-report:", err)
				return 2
			}
			metrics = &obs.Snapshot{}
			if err := json.Unmarshal(data, metrics); err != nil {
				fmt.Fprintln(stderr, "arrow-report:", err)
				return 2
			}
		}
		return emitReport(buildReport(snap, metrics), *out, *jsonOut, stdout, stderr)

	case *doRun:
		led := ledger.New()
		if *verbose {
			led.SetLogger(logger)
		}
		// With -debug-addr the run shares the observability session's
		// registry, so the live /metrics, /healthz and /timeseries endpoints
		// see the solve as it happens, and /events streams the ledger.
		obsFlags.SetEventStream(obs.EventSource(func(buf int) obs.EventSub { return led.SubscribeJSON(buf) }))
		var attrState atomic.Value // *attr.Report once the pass finishes
		if *doAttr {
			obsFlags.SetAttributionSource(func() any { return attrState.Load() })
		}
		sess, err := obsFlags.Start()
		if err != nil {
			fmt.Fprintln(stderr, "arrow-report:", err)
			return 1
		}
		defer sess.Close()
		reg := sess.Registry()
		if reg == nil {
			reg = obs.NewRegistry()
		}
		if addr := sess.DebugAddr(); addr != "" {
			logger.Info("debug server listening", "addr", addr)
		}
		logger.Info("building recorded pipeline", "seed", *seed, "parallelism", *parallel, "health_every", *healthEvr, "attr", *doAttr)
		prof := obs.NewStageProfiler()
		ctx := obs.WithProfiler(ledger.WithLedger(obs.WithRecorder(context.Background(), reg), led), prof)
		endTotal := prof.Total()
		_, _, attrRep, err := eval.RunRecorded(ctx, eval.RunOptions{
			Seed: *seed, Workers: *parallel, HealthEvery: *healthEvr,
			Attribution: *doAttr, Space: *space,
		})
		if err != nil {
			fmt.Fprintln(stderr, "arrow-report:", err)
			return 1
		}
		if attrRep != nil {
			attrState.Store(attrRep)
			logger.Info("attribution recorded", "availability", attrRep.Availability,
				"identity_gap", attrRep.IdentityGap, "sensitivities", len(attrRep.Sensitivities),
				"probes", len(attrRep.Probes))
		}
		tb, err := eval.RunTestbed(ctx, *seed, *doAttr)
		endTotal()
		if err != nil {
			fmt.Fprintln(stderr, "arrow-report:", err)
			return 1
		}
		prof.PublishGauges(reg)
		logger.Info("testbed observatory recorded", "latency_ratio", tb.LatencyRatio)
		if *ledgerOut != "" {
			if err := led.WriteFile(*ledgerOut); err != nil {
				fmt.Fprintln(stderr, "arrow-report:", err)
				return 1
			}
		}
		if *attrOut != "" {
			if attrRep == nil {
				fmt.Fprintln(stderr, "arrow-report: -attr-json requires -attr")
				return 2
			}
			data, err := json.MarshalIndent(attrRep, "", "  ")
			if err != nil {
				fmt.Fprintln(stderr, "arrow-report:", err)
				return 1
			}
			if err := os.WriteFile(*attrOut, append(data, '\n'), 0o644); err != nil {
				fmt.Fprintln(stderr, "arrow-report:", err)
				return 1
			}
		}
		if *metricsOut != "" {
			data, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
			if err != nil {
				fmt.Fprintln(stderr, "arrow-report:", err)
				return 1
			}
			if err := os.WriteFile(*metricsOut, append(data, '\n'), 0o644); err != nil {
				fmt.Fprintln(stderr, "arrow-report:", err)
				return 1
			}
		}
		rep := buildReport(led.Snapshot(), reg.Snapshot())
		rep.Performance = buildPerf(prof.Snapshot())
		logger.Info("run recorded", "events", led.Len(), "scenarios", len(rep.Scenarios), "cert_failures", rep.Certificates.Failures)
		code := emitReport(rep, *out, *jsonOut, stdout, stderr)
		if code == 0 && !rep.Certificates.AllPassing {
			fmt.Fprintln(stderr, "arrow-report: certificate verification failed")
			return 1
		}
		return code
	}

	fmt.Fprintln(stderr, "nothing to do: pass -run, -ledger <file> or -diff old.json new.json")
	return 2
}

// emitReport writes the markdown (and optional JSON) renderings.
func emitReport(rep *RunReport, out, jsonOut string, stdout, stderr io.Writer) int {
	var w io.Writer = stdout
	if out != "-" && out != "" {
		fd, err := os.Create(out)
		if err != nil {
			fmt.Fprintln(stderr, "arrow-report:", err)
			return 1
		}
		defer fd.Close()
		w = fd
	}
	renderMarkdown(w, rep)
	if jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "arrow-report:", err)
			return 1
		}
		if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "arrow-report:", err)
			return 1
		}
	}
	return 0
}
