// Command arrow solves one restoration-aware TE instance on a named
// evaluation topology and prints the allocation and restoration plan.
//
// Usage:
//
//	arrow -topo B4 [-scheme ARROW] [-scale 2.0] [-tickets 20] [-seed 1]
//
// Schemes: ARROW, ARROW-Naive, FFC-1, FFC-2, TeaVaR, ECMP.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"time"

	"github.com/arrow-te/arrow/internal/availability"
	"github.com/arrow-te/arrow/internal/eval"
	"github.com/arrow-te/arrow/internal/plan"
	"github.com/arrow-te/arrow/internal/session"
	"github.com/arrow-te/arrow/internal/topo"
	"github.com/arrow-te/arrow/internal/traffic"
)

func main() {
	var (
		topoName = flag.String("topo", "B4", "topology: B4, IBM or Facebook")
		scheme   = flag.String("scheme", "ARROW", "TE scheme: ARROW, ARROW-Naive, FFC-1, FFC-2, TeaVaR, ECMP")
		scale    = flag.Float64("scale", 2.0, "uniform demand scale (1.0 = comfortably satisfiable)")
		tickets  = flag.Int("tickets", 20, "LotteryTickets per failure scenario")
		seed     = flag.Int64("seed", 1, "random seed")
		flows    = flag.Int("flows", 40, "number of largest flows kept from the traffic matrix")
		file     = flag.String("file", "", "load a custom topology file instead of -topo (see internal/topo/format.go)")
		parallel = flag.Int("parallelism", 0, "worker count for the per-scenario offline stage (0 = NumCPU, 1 = sequential; results are identical)")
		verbose  = flag.Bool("v", false, "print the per-scenario restoration plan and mirror ledger events to the log")
	)
	flags := session.RegisterFlags(flag.CommandLine)
	space := plan.RegisterScenarioFlags(flag.CommandLine)
	flag.Parse()

	sess, err := flags.Start(session.Ledger, *verbose)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arrow:", err)
		os.Exit(1)
	}
	err = run(sess.Context(), *topoName, *file, *scheme, *scale, *tickets, *seed, *flows, *parallel, *verbose, *space)
	if _, cerr := sess.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "arrow:", err)
		os.Exit(1)
	}
}

// run plans and solves one instance under the recorder and ledger on ctx.
func run(ctx context.Context, topoName, file, scheme string, scale float64, tickets int, seed int64, flows, parallelism int, verbose bool, space plan.Space) error {
	var tp *topo.Topology
	var err error
	if file != "" {
		f, ferr := os.Open(file)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		tp, err = topo.Parse(f)
	} else {
		tp, err = topo.ByName(topoName, seed+5)
	}
	if err != nil {
		return err
	}
	s := tp.Stats()
	fmt.Printf("topology %s: %d routers, %d ROADMs, %d fibers, %d IP links, %.1f Tbps\n",
		tp.Name, s.Routers, s.ROADMs, s.Fibers, s.IPLinks, s.TotalCapacityGbps/1000)

	pl, err := eval.BuildPipelineContext(ctx, tp, eval.PipelineOptions{
		Cutoff: 0.001, NumTickets: tickets, Seed: seed, MaxScenarios: 24,
		Parallelism: parallelism, Space: space,
	})
	if err != nil {
		return err
	}
	fmt.Printf("planned %d failure scenarios\n", len(pl.Scenarios))

	m := traffic.Generate(traffic.Options{Sites: tp.NumRouters(), Count: 1, MaxFlows: flows, TotalGbps: 1, Seed: seed + 7})[0]
	base, err := pl.BaseNetwork(m, 8)
	if err != nil {
		return err
	}
	n := base.Scaled(scale)

	start := time.Now()
	al, restored, err := pl.SolveScheme(eval.Scheme(scheme), n)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	ev := &availability.Evaluator{Net: n, Alloc: al, ECMPRebalance: scheme == "ECMP"}
	avail := ev.Availability(pl.EvalScenarios(restored))

	fmt.Printf("\n%s at %.1fx demand (%d flows, %.0f Gbps total):\n", scheme, scale, len(n.Flows), n.TotalDemand())
	fmt.Printf("  admitted:     %.0f Gbps (throughput %.4f)\n", al.Objective, al.Throughput(n))
	fmt.Printf("  availability: %.5f\n", avail)
	fmt.Printf("  solve time:   %s\n", elapsed.Round(time.Millisecond))

	if verbose && restored != nil {
		fmt.Println("\nrestoration plan (winning LotteryTicket per scenario):")
		for qi, plan := range restored {
			links := slices.Clone(pl.Scenarios[qi].FailedLinks)
			sort.Ints(links)
			fmt.Printf("  scenario %d (p=%.4f, ticket %d):", qi, pl.Scenarios[qi].Prob, al.WinningTicket[qi])
			for _, l := range slices.Compact(links) {
				fmt.Printf(" link%d=%.0fG", l, plan.On(l))
			}
			fmt.Println()
		}
	}
	return nil
}
