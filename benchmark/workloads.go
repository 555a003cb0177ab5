package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"time"

	arrow "github.com/arrow-te/arrow"
	"github.com/arrow-te/arrow/internal/eval"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/stats"
	"github.com/arrow-te/arrow/internal/topo"
	"github.com/arrow-te/arrow/internal/traffic"
)

// scale fixes every instance size. full is the benchmark that is measured;
// smoke shrinks the instances (never the code paths) so bench_test.go can
// drive the same program in seconds.
type scale struct {
	name string
	// offline-plan: cut sets of up to planCutSize elements on B4.
	planCutSize int
	// online-te and cut-reaction share one planned network.
	bigTopo   func(seed int64) (*topo.Topology, error)
	bigCutoff float64
	bigFlows  int
	// availability-sweep: full resets the sweep memo before every op so each
	// op is the computation; smoke lets ops after the first hit the memo.
	sweepReset bool
	// setups is how many times set-up runs for the setup_s median.
	setups int
	// drillCuts bounds the cut sets each RWA drill solves.
	drillCuts int
}

var scales = map[string]scale{
	"full": {
		name: "full", planCutSize: 3,
		bigTopo: topo.Facebook, bigCutoff: 2e-4, bigFlows: 120,
		sweepReset: true, setups: 3, drillCuts: 400,
	},
	"smoke": {
		name: "smoke", planCutSize: 2,
		bigTopo: topo.B4, bigCutoff: 1e-3, bigFlows: 40,
		sweepReset: false, setups: 1, drillCuts: 20,
	},
}

const (
	// instanceSeed pins every generated input: topology, failure model and
	// traffic. A run's -seed decides only the order ops run in, because an
	// instance drawn from it moves op times twofold (README) and would bury
	// every bound.
	instanceSeed = 1
	tickets      = 12
	// demandShare scales every flow of the unit-total matrices to this share
	// of the summed IP capacity; throughput then lands at 0.98-1.00.
	demandShare = 0.0375
	// matrices is the period of traffic.Generate's diurnal modulation: later
	// epochs repeat these four.
	matrices = 4
	// sweepScales and the scheme count give the fast fig13 grid's cells.
	sweepScales = 9
)

// env is what a workload's set-up may depend on. The program under test
// never sees the schedule seed or a workload name: only the inputs below.
type env struct {
	sc      scale
	workers int
	rec     *obs.Registry // nil on every end-to-end run
	tr      *tracer       // nil on every end-to-end run
}

func (e *env) ctx() context.Context {
	if e.rec == nil {
		return context.Background()
	}
	return obs.WithRecorder(context.Background(), e.rec)
}

// opResult is one verified op. dur times only the call into the program,
// not the verification around it.
type opResult struct {
	dur          time.Duration
	units        float64
	availability float64
	throughput   float64 // NaN where the workload has none
}

// instance is a set-up workload: cycle distinct ops, replayed in schedule
// order. op verifies its own result and returns an error when it is wrong.
type instance struct {
	cycle int
	op    func(slot int) (opResult, error)
}

type workload struct {
	name  string
	unit  string // work unit of work_per_s
	setup func(e *env) (*instance, error)
}

// BENCHMARK.json and README.md say why each workload exists.
var workloads = []workload{
	{"offline-plan", "scenarios", setupOfflinePlan},
	{"online-te", "solves", setupOnlineTE},
	{"cut-reaction", "reactions", setupCutReaction},
	{"availability-sweep", "cells", setupAvailabilitySweep},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// buildNetwork rebuilds a generated topology through the public Builder, as
// cmd/arrow-plan does for topology files.
func buildNetwork(tp *topo.Topology) (*arrow.Network, error) {
	b := arrow.NewBuilder(tp.Opt.NumROADMs, tp.Opt.SlotCount)
	for _, f := range tp.Opt.Fibers {
		b.AddFiber(int(f.A), int(f.B), f.LengthKm)
	}
	for _, l := range tp.Opt.IPLinks {
		if len(l.Waves) == 0 {
			continue
		}
		w0 := l.Waves[0]
		path := make([]arrow.FiberID, len(w0.FiberPath))
		for i, id := range w0.FiberPath {
			path[i] = arrow.FiberID(id)
		}
		if _, err := b.AddIPLink(int(l.Src), int(l.Dst), len(l.Waves), w0.Modulation.GbpsPerWavelength, path); err != nil {
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

// offlineInstance is the B4 + conduit-SRLG network offline-plan plans.
type offlineInstance struct {
	tp  *topo.Topology
	net *arrow.Network
}

func buildOffline(e *env) (*offlineInstance, error) {
	tp, err := topo.B4(instanceSeed + 5)
	if err != nil {
		return nil, err
	}
	net, err := buildNetwork(tp)
	if err != nil {
		return nil, err
	}
	return &offlineInstance{tp: tp, net: net}, nil
}

func (o *offlineInstance) plan(e *env, slot, workers int) (*arrow.Planner, time.Duration, error) {
	opts := arrow.PlanOptions{
		Tickets: tickets, Cutoff: 1e-12, MaxCutSize: e.sc.planCutSize, UseSRLGs: true,
		Parallelism: workers, Seed: instanceSeed + int64(slot),
	}
	defer e.tr.begin("arrow.PlanContext")()
	start := time.Now()
	p, err := o.net.PlanContext(e.ctx(), opts)
	return p, time.Since(start), err
}

func setupOfflinePlan(e *env) (*instance, error) {
	off, err := buildOffline(e)
	if err != nil {
		return nil, err
	}
	type planned struct {
		scenarios int
		coverage  arrow.Coverage
	}
	first := map[int]planned{}
	return &instance{cycle: 4, op: func(slot int) (opResult, error) {
		p, dur, err := off.plan(e, slot, e.workers)
		if err != nil {
			return opResult{}, err
		}
		got := planned{p.NumScenarios(), p.Coverage()}
		if want, ok := first[slot]; !ok {
			first[slot] = got
		} else if got != want {
			return opResult{}, fmt.Errorf("plan seed slot %d: got %+v, first saw %+v", slot, got, want)
		}
		if got.scenarios == 0 {
			return opResult{}, fmt.Errorf("plan seed slot %d: no scenarios planned", slot)
		}
		return opResult{
			dur: dur, units: float64(got.scenarios),
			availability: got.coverage.Healthy + got.coverage.Planned, throughput: math.NaN(),
		}, nil
	}}, nil
}

// bigInstance is the planned network online-te and cut-reaction share.
type bigInstance struct {
	tp      *topo.Topology
	net     *arrow.Network
	planner *arrow.Planner
	// bare is planner without the recorder: a Planner binds its recorder when
	// it plans, so the untraced replay of a traced run needs one of its own.
	// On an end-to-end run the two are one.
	bare    *arrow.Planner
	demands [][]arrow.Demand // one site-indexed demand set per traffic matrix
}

// scaledMatrices generates the diurnal traffic matrices, router-indexed, each
// flow scaled from its share of a unit total to demandShare of the summed IP
// capacity.
func scaledMatrices(e *env, tp *topo.Topology) []traffic.Matrix {
	ms := traffic.Generate(traffic.Options{
		Sites: tp.NumRouters(), Count: matrices, MaxFlows: e.sc.bigFlows, TotalGbps: 1, Seed: instanceSeed + 7,
	})
	capSum := stats.Sum(tp.LinkCaps())
	for _, m := range ms {
		for i := range m.Flows {
			m.Flows[i].Demand *= demandShare * capSum
		}
	}
	return ms
}

func (b *bigInstance) plan(e *env) (*arrow.Planner, error) {
	return b.net.PlanContext(e.ctx(), arrow.PlanOptions{
		Tickets: tickets, Cutoff: e.sc.bigCutoff, Parallelism: 1, Seed: instanceSeed,
	})
}

func buildBig(e *env) (*bigInstance, error) {
	tp, err := e.sc.bigTopo(instanceSeed + 5)
	if err != nil {
		return nil, err
	}
	net, err := buildNetwork(tp)
	if err != nil {
		return nil, err
	}
	b := &bigInstance{tp: tp, net: net}
	if b.planner, err = b.plan(e); err != nil {
		return nil, err
	}
	b.bare = b.planner
	if e.rec != nil {
		if b.bare, err = b.plan(&env{sc: e.sc}); err != nil {
			return nil, err
		}
	}
	for _, m := range scaledMatrices(e, tp) {
		ds := make([]arrow.Demand, len(m.Flows))
		for i, f := range m.Flows {
			ds[i] = arrow.Demand{Src: int(tp.Routers[f.Src]), Dst: int(tp.Routers[f.Dst]), Gbps: f.Demand}
		}
		b.demands = append(b.demands, ds)
	}
	return b, nil
}

func (b *bigInstance) solve(e *env, m int) (*arrow.TrafficPlan, time.Duration, error) {
	defer e.tr.begin("arrow.Solve")()
	planner := b.planner
	if e.rec == nil {
		planner = b.bare
	}
	start := time.Now()
	tp, err := planner.Solve(b.demands[m], arrow.SolveOptions{})
	return tp, time.Since(start), err
}

func setupOnlineTE(e *env) (*instance, error) {
	big, err := buildBig(e)
	if err != nil {
		return nil, err
	}
	type solved struct{ throughput, availability, admitted float64 }
	first := map[int]solved{}
	return &instance{cycle: len(big.demands), op: func(slot int) (opResult, error) {
		tp, dur, err := big.solve(e, slot)
		if err != nil {
			return opResult{}, err
		}
		got := solved{tp.Throughput(), tp.Availability(), tp.AdmittedGbps()}
		offered := 0.0
		for _, d := range big.demands[slot] {
			offered += d.Gbps
		}
		switch {
		case !(got.throughput >= 0 && got.throughput <= 1+1e-9):
			return opResult{}, fmt.Errorf("matrix %d: throughput %v outside [0,1]", slot, got.throughput)
		case got.admitted > offered*(1+1e-9):
			return opResult{}, fmt.Errorf("matrix %d: admitted %v Gbps of %v offered", slot, got.admitted, offered)
		}
		for d, row := range tp.SplitRatios() {
			sum := 0.0
			for _, r := range row {
				sum += r
			}
			if math.Abs(sum-1) > 1e-6 {
				return opResult{}, fmt.Errorf("matrix %d: split ratios of demand %d sum to %v", slot, d, sum)
			}
		}
		// Ties among optimal bases may move the split, never the optimum.
		if want, ok := first[slot]; !ok {
			first[slot] = got
		} else if math.Abs(got.throughput-want.throughput) > 1e-9 || math.Abs(got.availability-want.availability) > 1e-9 {
			return opResult{}, fmt.Errorf("matrix %d: got %+v, first saw %+v", slot, got, want)
		}
		return opResult{dur: dur, units: 1, availability: got.availability, throughput: got.throughput}, nil
	}}, nil
}

func setupCutReaction(e *env) (*instance, error) {
	big, err := buildBig(e)
	if err != nil {
		return nil, err
	}
	tp, _, err := big.solve(e, 0)
	if err != nil {
		return nil, err
	}
	cuts := plannedCuts(big.net, tp)
	if len(cuts) == 0 {
		return nil, fmt.Errorf("no single-fiber cut is planned")
	}
	first := make([]*arrow.Reaction, len(cuts))
	return &instance{cycle: len(cuts), op: func(slot int) (opResult, error) {
		f := cuts[slot]
		end := e.tr.begin("arrow.OnFiberCut")
		start := time.Now()
		re, err := tp.OnFiberCut(f)
		dur := time.Since(start)
		end()
		if err != nil {
			return opResult{}, err
		}
		if want := big.net.FailedLinks(f); !reflect.DeepEqual(re.Failed, want) {
			return opResult{}, fmt.Errorf("fiber %d: reaction fails links %v, network says %v", f, re.Failed, want)
		}
		lost, restored := 0.0, 0.0
		for _, l := range re.Failed {
			lost += big.net.LinkCapacityGbps(l)
		}
		for l, g := range re.RestoredGbps {
			if g < 0 || g > big.net.LinkCapacityGbps(l)+1e-9 {
				return opResult{}, fmt.Errorf("fiber %d: link %d restored to %v Gbps of %v", f, l, g, big.net.LinkCapacityGbps(l))
			}
			restored += g
		}
		if first[slot] == nil {
			first[slot] = re
		} else if !reflect.DeepEqual(re, first[slot]) {
			return opResult{}, fmt.Errorf("fiber %d: reaction differs from the first one seen", f)
		}
		return opResult{dur: dur, units: 1, availability: restored / lost, throughput: math.NaN()}, nil
	}}, nil
}

// plannedCuts returns the single-fiber cuts the plan holds a reaction for.
// Fibers that carry no IP link, or fall below the planning cutoff, have none.
func plannedCuts(net *arrow.Network, tp *arrow.TrafficPlan) []arrow.FiberID {
	var cuts []arrow.FiberID
	for f := 0; f < net.NumFibers(); f++ {
		if _, err := tp.OnFiberCut(arrow.FiberID(f)); err == nil {
			cuts = append(cuts, arrow.FiberID(f))
		}
	}
	return cuts
}

func setupAvailabilitySweep(e *env) (*instance, error) {
	exp, ok := eval.ByID("fig13")
	if !ok {
		return nil, fmt.Errorf("experiment fig13 is not registered")
	}
	var first [][]string
	return &instance{cycle: 1, op: func(int) (opResult, error) {
		cfg := eval.Config{Fast: true, Seed: instanceSeed, Parallelism: e.workers}
		if e.rec != nil { // a nil *Registry in the interface would not read as "no recorder"
			cfg.Recorder = e.rec
		}
		if e.sc.sweepReset {
			eval.ResetSweepCache()
		}
		end := e.tr.begin("eval.fig13")
		start := time.Now()
		r, err := exp.Run(cfg)
		dur := time.Since(start)
		end()
		if err != nil {
			return opResult{}, err
		}
		if len(r.Rows) != sweepScales {
			return opResult{}, fmt.Errorf("fig13 returned %d rows, want %d", len(r.Rows), sweepScales)
		}
		arrowSum, cells := 0.0, 0
		for _, row := range r.Rows {
			for c, cell := range row[2:] { // after topology and scale
				v, err := strconv.ParseFloat(cell, 64)
				if err != nil || !(v >= 0 && v <= 1) {
					return opResult{}, fmt.Errorf("fig13 cell %q is not an availability", cell)
				}
				if c == 0 {
					arrowSum += v
				}
				cells++
			}
		}
		if first == nil {
			first = r.Rows
		} else if !reflect.DeepEqual(r.Rows, first) {
			return opResult{}, fmt.Errorf("fig13 rows differ from the first op's")
		}
		return opResult{dur: dur, units: float64(cells), availability: arrowSum / sweepScales, throughput: math.NaN()}, nil
	}}, nil
}
