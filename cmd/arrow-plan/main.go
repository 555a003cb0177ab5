// Command arrow-plan is the operator-facing planning tool: it loads a
// topology file and a demand list, runs ARROW's offline planning and online
// TE through the public library API, and writes the installable artifacts —
// the traffic plan (JSON: splitting ratios + per-scenario restoration) and
// one ROADM configuration file per planned fiber-cut scenario.
//
// Usage:
//
//	arrow-plan -topo wan.topo -demands demands.csv -out plan.json
//	arrow-plan -topo wan.topo -demands demands.csv -roadm-configs dir/
//
// The topology format is documented in internal/topo/format.go; demands are
// CSV lines "src,dst,gbps" (# comments allowed).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	arrow "github.com/arrow-te/arrow"
	"github.com/arrow-te/arrow/internal/plan"
	"github.com/arrow-te/arrow/internal/session"
	"github.com/arrow-te/arrow/internal/topo"
	"github.com/arrow-te/arrow/internal/traffic"
)

func main() {
	var (
		topoFile  = flag.String("topo", "", "topology file (required)")
		demFile   = flag.String("demands", "", "demand CSV file: src,dst,gbps (required)")
		out       = flag.String("out", "", "write the traffic plan JSON here (default stdout)")
		roadmDir  = flag.String("roadm-configs", "", "write per-scenario ROADM config files into this directory")
		tickets   = flag.Int("tickets", 40, "LotteryTickets per failure scenario")
		cutoff    = flag.Float64("cutoff", 1e-3, "failure scenario probability cutoff")
		seed      = flag.Int64("seed", 1, "random seed")
		naive     = flag.Bool("naive", false, "skip Phase I (Arrow-Naive)")
		parallel  = flag.Int("parallelism", 0, "worker count for per-scenario offline planning (0 = NumCPU, 1 = sequential; results are identical)")
		verbose   = flag.Bool("v", false, "mirror flight-recorder events to the structured log")
		warm      = flag.Bool("warm", true, "warm-start LP solves from deterministic bases (-warm=false starts them cold, which can change tickets, winners and throughput)")
		healthEvr = flag.Int("health-every", 0, "probe every LP solve's numerical health every N pivots (0 = off; probes never change results)")
	)
	flags := session.RegisterFlags(flag.CommandLine)
	space := plan.RegisterScenarioFlags(flag.CommandLine)
	flag.Parse()
	if *topoFile == "" || *demFile == "" {
		fmt.Fprintln(os.Stderr, "arrow-plan: -topo and -demands are required")
		os.Exit(2)
	}
	sess, err := flags.Start(session.Ledger, *verbose)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arrow-plan:", err)
		os.Exit(1)
	}
	popts := arrow.PlanOptions{
		Tickets: *tickets, Cutoff: *cutoff, Seed: *seed, Parallelism: *parallel,
		NoWarm: !*warm, HealthEvery: *healthEvr,
		MaxCutSize: space.MaxCutSize, UseSRLGs: space.UseSRLGs, TargetMass: space.TargetMass,
		MaxEnumerated: space.MaxEnumerated, NoCompose: space.NoCompose,
	}
	// The recorder and flight recorder ride the session's context so the
	// public Plan API stays instrumentation-free.
	err = run(sess.Context(), *topoFile, *demFile, *out, *roadmDir, popts, *naive)
	if _, cerr := sess.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "arrow-plan:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, topoFile, demFile, out, roadmDir string, popts arrow.PlanOptions, naive bool) error {
	net, err := loadNetwork(topoFile)
	if err != nil {
		return err
	}
	demands, err := loadDemands(demFile)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "loaded %d sites, %d fibers, %d IP links, %d demands\n",
		net.NumSites(), net.NumFibers(), net.NumLinks(), len(demands))

	planner, err := net.PlanContext(ctx, popts)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "planned %d failure scenarios\n", planner.NumScenarios())

	plan, err := planner.Solve(demands, arrow.SolveOptions{NaiveOnly: naive})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "admitted %.0f Gbps (throughput %.4f), availability %.5f\n",
		plan.AdmittedGbps(), plan.Throughput(), plan.Availability())

	data, err := plan.Export()
	if err != nil {
		return err
	}
	if out == "" {
		fmt.Println(string(data))
	} else if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}

	if roadmDir != "" {
		if err := os.MkdirAll(roadmDir, 0o755); err != nil {
			return err
		}
		written := 0
		for f := 0; f < net.NumFibers(); f++ {
			cfg, err := plan.ROADMConfig(arrow.FiberID(f))
			if errors.Is(err, arrow.ErrUnplannedCut) {
				continue // scenario below cutoff or fails no links
			}
			if err != nil {
				return err
			}
			path := filepath.Join(roadmDir, fmt.Sprintf("cut-fiber-%d.conf", f))
			if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
				return err
			}
			written++
		}
		fmt.Fprintf(os.Stderr, "wrote %d ROADM config files to %s\n", written, roadmDir)
	}
	return nil
}

// loadNetwork parses the topology file and rebuilds it through the public
// Builder so all public-API invariants hold.
func loadNetwork(path string) (*arrow.Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tp, err := topo.Parse(f)
	if err != nil {
		return nil, err
	}
	b := arrow.NewBuilder(tp.Opt.NumROADMs, tp.Opt.SlotCount)
	for _, fiber := range tp.Opt.Fibers {
		b.AddFiber(int(fiber.A), int(fiber.B), fiber.LengthKm)
	}
	for _, l := range tp.Opt.IPLinks {
		if len(l.Waves) == 0 {
			continue
		}
		w0 := l.Waves[0]
		fibers := make([]arrow.FiberID, len(w0.FiberPath))
		for i, id := range w0.FiberPath {
			fibers[i] = arrow.FiberID(id)
		}
		if _, err := b.AddIPLink(int(l.Src), int(l.Dst), len(l.Waves), w0.Modulation.GbpsPerWavelength, fibers); err != nil {
			return nil, fmt.Errorf("rebuilding link %d: %w", l.ID, err)
		}
	}
	for _, g := range tp.SRLGs {
		fibers := make([]arrow.FiberID, len(g.Fibers))
		for i, id := range g.Fibers {
			fibers[i] = arrow.FiberID(id)
		}
		b.AddSRLG(g.Prob, fibers...)
	}
	return b.Build()
}

// loadDemands parses "src,dst,gbps" CSV lines.
func loadDemands(path string) ([]arrow.Demand, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseDemands(f)
}

func parseDemands(r io.Reader) ([]arrow.Demand, error) {
	m, err := traffic.ReadCSV(r)
	if err != nil {
		return nil, err
	}
	if len(m.Flows) == 0 {
		return nil, fmt.Errorf("no demands found")
	}
	out := make([]arrow.Demand, len(m.Flows))
	for i, f := range m.Flows {
		out[i] = arrow.Demand{Src: f.Src, Dst: f.Dst, Gbps: f.Demand}
	}
	return out, nil
}
