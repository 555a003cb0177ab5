// Command arrow-report renders a run bundle (the -run-out file every CLI
// writes) into a per-scenario run report, and compares two bundles counter
// by counter.
//
// Usage:
//
//	arrow-report -run [-seed 1] [-parallelism 8] [-health-every 32] [-attr] [-out report.md] [-run-out run.json]
//	arrow-report [-out report.md] run.json
//	arrow-report -diff old.json new.json
//
// -run executes the standard recorded pipeline (eval.RunRecorded's B4
// instance) and the emulated testbed, and renders the bundle of that run
// through the same path as a saved one: which tickets were generated or
// rejected (and why), which ticket won each scenario with its
// restored-capacity fraction, the two-phase LP certificates, and the
// residual unmet demand. It exits 1 when a certificate fails.
// -parallelism and -health-every apply to the pipeline; the testbed runs
// unprobed at the default worker count either way.
//
// -diff prints every deterministic counter that differs between two
// bundles (the wall-clock par.busy_ns and par.idle_ns are skipped) and
// exits 1 if any does. It is the parent-vs-change check of a refactor; the
// properties a run must have (no anomalies, no certificate failures, an
// exact attribution identity) are asserted by the tests in internal/eval.
//
// A file that is not a bundle this build can read (malformed JSON, a
// newer schema, a bare ledger or metrics snapshot) exits 2.
package main

import (
	"bytes"
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/arrow-te/arrow/internal/eval"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/par"
	"github.com/arrow-te/arrow/internal/plan"
	"github.com/arrow-te/arrow/internal/session"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main behind testable seams: argv in, exit code out.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("arrow-report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		doRun     = fs.Bool("run", false, "run the standard recorded pipeline and render its report")
		seed      = fs.Int64("seed", 1, "random seed for -run")
		parallel  = fs.Int("parallelism", 0, "worker count for -run (0 = NumCPU; results are identical)")
		healthEvr = fs.Int("health-every", 0, "with -run: probe every LP solve's numerical health every N pivots (0 = off; probes never change results)")
		doAttr    = fs.Bool("attr", false, "with -run: run the availability-attribution pass (loss decomposition, shadow prices, what-if probes) after the solve; results are identical on or off")
		out       = fs.String("out", "-", "markdown report output path (- = stdout)")
		doDiff    = fs.Bool("diff", false, "print the counters that differ between two run bundles and exit 1 if any does: arrow-report -diff old.json new.json")
		verbose   = fs.Bool("v", false, "verbose: mirror ledger events to the structured log")
	)
	flags := session.RegisterFlags(fs)
	space := plan.RegisterScenarioFlags(fs)
	// Flags may follow the bundle paths (arrow-report run.json -out r.md):
	// parse again after each positional argument.
	var args []string
	for rest := argv; ; rest = fs.Args()[1:] {
		if err := fs.Parse(rest); err != nil {
			return 2
		}
		if fs.NArg() == 0 {
			break
		}
		args = append(args, fs.Arg(0))
	}

	switch {
	case *doDiff:
		if len(args) != 2 {
			fmt.Fprintln(stderr, "usage: arrow-report -diff old.json new.json")
			return 2
		}
		differ, err := runDiff(stdout, args[0], args[1])
		if err != nil {
			fmt.Fprintln(stderr, "arrow-report:", err)
			return 2
		}
		if differ > 0 {
			return 1
		}
		return 0

	case *doRun && len(args) == 0:
		b, err := record(flags, *verbose, *seed, *parallel, *healthEvr, *doAttr, *space)
		if err != nil {
			fmt.Fprintln(stderr, "arrow-report:", err)
			return 1
		}
		r := newReport(b)
		if code := emitReport(r, *out, stdout, stderr); code != 0 {
			return code
		}
		if certFailures(r) > 0 {
			fmt.Fprintln(stderr, "arrow-report: certificate verification failed")
			return 1
		}
		return 0

	case !*doRun && len(args) == 1:
		b, err := session.ReadFile(args[0])
		if err != nil {
			fmt.Fprintln(stderr, "arrow-report:", err)
			return 2
		}
		return emitReport(newReport(b), *out, stdout, stderr)
	}

	fmt.Fprintln(stderr, "nothing to do: pass -run, a run bundle, or -diff old.json new.json")
	return 2
}

// record runs the standard recorded pipeline (at the given worker count and
// probe period) and the emulated testbed under a session that records every
// sink, and returns the run's bundle (written to -run-out when set). With
// -debug-addr the live /metrics, /healthz, /timeseries and /events endpoints
// see the run as it happens, and /attribution serves the attribution pass
// once it lands.
func record(flags *session.Flags, verbose bool, seed int64, workers, healthEvery int, attribution bool, space plan.Space) (*session.Bundle, error) {
	sess, err := flags.Start(session.Report, verbose)
	if err != nil {
		return nil, err
	}
	ctx, logger := sess.Context(), sess.Logger()
	prof := obs.ProfilerFrom(ctx)
	logger.Info("building recorded pipeline", "seed", seed, "parallelism", workers,
		"health_every", healthEvery, "attr", attribution)
	endTotal := prof.Total()
	runCtx := par.WithWorkers(obs.WithHealthEvery(ctx, healthEvery), workers)
	_, _, attrRep, err := eval.RunRecorded(runCtx, seed, space, attribution)
	if err == nil && attrRep != nil {
		sess.SetAttribution(attrRep)
		logger.Info("attribution recorded", "availability", attrRep.Availability,
			"identity_gap", attrRep.IdentityGap, "sensitivities", len(attrRep.Sensitivities),
			"probes", len(attrRep.Probes))
	}
	if err == nil {
		var tb *eval.TestbedOutcome
		tb, err = eval.RunTestbed(ctx, seed, attribution)
		if err == nil {
			logger.Info("testbed observatory recorded", "latency_ratio", tb.LatencyRatio)
		}
	}
	endTotal()
	b, cerr := sess.Close()
	if err := cmp.Or(err, cerr); err != nil {
		return nil, err
	}
	logger.Info("run recorded", "events", len(b.Ledger.Events))
	// Render what -run-out carries, not what memory held: JSON drops a -0
	// in an omitempty event field, say, and a saved bundle must render to
	// the same bytes as its run.
	var buf bytes.Buffer
	if err := b.Write(&buf); err != nil {
		return nil, err
	}
	return session.Read(&buf)
}

// emitReport writes the markdown rendering to out ("-" = stdout).
func emitReport(r *report, out string, stdout, stderr io.Writer) int {
	if out == "-" || out == "" {
		renderMarkdown(stdout, r)
		return 0
	}
	fd, err := os.Create(out)
	if err == nil {
		renderMarkdown(fd, r)
		err = fd.Close()
	}
	if err != nil {
		fmt.Fprintln(stderr, "arrow-report:", err)
		return 1
	}
	return 0
}
