// Command arrow-experiments regenerates the tables and figures of the
// ARROW paper's evaluation from this repository's implementations.
//
// Usage:
//
//	arrow-experiments -list
//	arrow-experiments -exp fig13 [-full] [-seed 1] [-parallelism 8]
//	arrow-experiments -all [-full]
//
// Without -full, experiments run in fast mode: smaller sweeps with the same
// comparison structure. Independent experiments fan out over the worker
// pool (and each experiment's scenario-independent inner loops fan out
// further); -parallelism 1 restores fully sequential execution with
// identical output.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/arrow-te/arrow/internal/eval"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/par"
	"github.com/arrow-te/arrow/internal/plan"
	"github.com/arrow-te/arrow/internal/session"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list registered experiments")
		exp      = flag.String("exp", "", "comma-separated experiment IDs to run (e.g. fig13,table5)")
		all      = flag.Bool("all", false, "run every registered experiment")
		full     = flag.Bool("full", false, "full-scale sweeps (slow) instead of fast mode")
		md       = flag.Bool("md", false, "emit GitHub-flavoured markdown instead of text tables")
		seed     = flag.Int64("seed", 1, "random seed for all generators")
		parallel = flag.Int("parallelism", 0, "worker count for scenario-parallel loops (0 = NumCPU, 1 = sequential; results are identical)")
		verbose  = flag.Bool("v", false, "log per-experiment progress at debug level")
		warm     = flag.Bool("warm", true, "warm-start the RWA and ARROW LP solves from deterministic bases (-warm=false starts them cold, which can change tickets, winners and throughput; baselines always start from the slack basis)")
		health   = flag.Int("health-every", 0, "probe every LP solve's numerical health every N pivots (0 = off; probes never change results)")
	)
	flags := session.RegisterFlags(flag.CommandLine)
	space := plan.RegisterScenarioFlags(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, e := range eval.Experiments() {
			fmt.Printf("%-8s %s\n         paper: %s\n", e.ID, e.Title, e.PaperClaim)
		}
		return
	}

	sess, err := flags.Start(0, *verbose) // the experiments record metrics, no ledger
	if err != nil {
		fmt.Fprintln(os.Stderr, "arrow-experiments:", err)
		os.Exit(1)
	}
	ctx, logger := sess.Context(), sess.Logger()
	exitCode := 0
	defer func() {
		if _, err := sess.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "arrow-experiments:", err)
			if exitCode == 0 {
				exitCode = 1
			}
		}
		os.Exit(exitCode)
	}()

	var ids []string
	switch {
	case *all:
		for _, e := range eval.Experiments() {
			ids = append(ids, e.ID)
		}
	case *exp != "":
		ids = strings.Split(*exp, ",")
	default:
		fmt.Fprintln(os.Stderr, "nothing to do: pass -list, -exp <ids> or -all")
		exitCode = 2
		return
	}

	cfg := eval.Config{Fast: !*full, Seed: *seed, Parallelism: *parallel, Recorder: obs.FromContext(ctx), NoWarm: !*warm, HealthEvery: *health, Space: *space}

	// Independent experiments are themselves scenario-independent jobs:
	// fan them out on the shared pool and print the rendered outputs in
	// request order. Errors don't abort sibling experiments, so every
	// failure is reported (matching the sequential CLI's behaviour).
	type outcome struct {
		text string
		err  error
	}
	outs, _ := par.Map(ctx, *parallel, len(ids), func(_ context.Context, i int) (outcome, error) {
		id := strings.TrimSpace(ids[i])
		e, ok := eval.ByID(id)
		if !ok {
			return outcome{err: fmt.Errorf("unknown experiment %q (use -list)", id)}, nil
		}
		start := time.Now()
		logger.Debug("experiment started", "id", e.ID)
		res, err := e.Run(cfg)
		if err != nil {
			return outcome{err: fmt.Errorf("%s: %w", e.ID, err)}, nil
		}
		logger.Debug("experiment done", "id", e.ID, "seconds", time.Since(start).Seconds())
		var b strings.Builder
		if *md {
			fmt.Fprintln(&b, eval.RenderMarkdown(res))
		} else {
			b.WriteString(eval.RenderText(res))
		}
		fmt.Fprintf(&b, "(%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
		return outcome{text: b.String()}, nil
	})

	failed := 0
	for _, o := range outs {
		if o.err != nil {
			fmt.Fprintln(os.Stderr, o.err)
			failed++
			continue
		}
		fmt.Print(o.text)
	}
	if failed > 0 {
		exitCode = 1
	}
}
