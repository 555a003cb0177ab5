package arrow

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/arrow-te/arrow/internal/eval"
	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/plan"
	"github.com/arrow-te/arrow/internal/rwa"
	"github.com/arrow-te/arrow/internal/scenario"
	"github.com/arrow-te/arrow/internal/te"
	"github.com/arrow-te/arrow/internal/topo"
)

var updateFingerprints = flag.Bool("update-fingerprints", false, "rewrite testdata/offline_fingerprints.golden")

// offlineInstance is one pinned input of the offline stage, spelled once and
// handed to both entry points.
type offlineInstance struct {
	name       string
	topo       func(seed int64) (*topo.Topology, error)
	cutoff     float64
	maxCutSize int
	srlgs      bool
}

// The four instances the two copies of the offline stage were compared on
// before they were merged: the fast-mode cutoffs of the experiments, every
// relevant scenario kept (no MaxScenarios: Plan has no such budget).
var offlineInstances = []offlineInstance{
	{name: "b4-legacy", topo: topo.B4, cutoff: 1e-3},
	{name: "b4-srlg-k3", topo: topo.B4, cutoff: 1e-12, maxCutSize: 3, srlgs: true},
	{name: "ibm-legacy", topo: topo.IBM, cutoff: 1e-3},
	{name: "facebook-legacy", topo: topo.Facebook, cutoff: 2e-4},
}

const (
	fingerprintSeed    = 3
	fingerprintTickets = 12
)

func (in offlineInstance) planOptions(workers int) PlanOptions {
	return PlanOptions{
		Tickets: fingerprintTickets, Cutoff: in.cutoff, Seed: fingerprintSeed,
		MaxCutSize: in.maxCutSize, UseSRLGs: in.srlgs, Parallelism: workers,
	}
}

func (in offlineInstance) pipelineOptions(workers int) eval.PipelineOptions {
	return eval.PipelineOptions{
		NumTickets: fingerprintTickets, Cutoff: in.cutoff, Seed: fingerprintSeed,
		Space: plan.Space{MaxCutSize: in.maxCutSize, UseSRLGs: in.srlgs}, Parallelism: workers,
	}
}

// rebuildThroughBuilder re-enters a generated topology through the public
// Builder, as benchmark/workloads.go:buildNetwork and cmd/arrow-plan do.
func rebuildThroughBuilder(t testing.TB, tp *topo.Topology) *Network {
	t.Helper()
	b := NewBuilder(tp.Opt.NumROADMs, tp.Opt.SlotCount)
	for _, f := range tp.Opt.Fibers {
		b.AddFiber(int(f.A), int(f.B), f.LengthKm)
	}
	for _, l := range tp.Opt.IPLinks {
		if len(l.Waves) == 0 {
			continue
		}
		w0 := l.Waves[0]
		path := make([]FiberID, len(w0.FiberPath))
		for i, id := range w0.FiberPath {
			path[i] = FiberID(id)
		}
		if _, err := b.AddIPLink(int(l.Src), int(l.Dst), len(l.Waves), w0.Modulation.GbpsPerWavelength, path); err != nil {
			t.Fatalf("rebuilding link %d: %v", l.ID, err)
		}
	}
	for _, g := range tp.SRLGs {
		fibers := make([]FiberID, len(g.Fibers))
		for i, id := range g.Fibers {
			fibers[i] = FiberID(id)
		}
		b.AddSRLG(g.Prob, fibers...)
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// planFingerprint hashes what a plan is: the scenario set (cuts,
// probabilities, healthy and residual mass), every planned scenario's failed
// links, ticket links, seed count and tickets, and the naive projection —
// each scenario with its first ticket alone and no seeds, the part of it
// Arrow-Naive reads. Floats enter by their bits.
func planFingerprint(set *scenario.Set, scenarios []te.RestorableScenario) string {
	naive := make([]te.RestorableScenario, len(scenarios))
	for i, sc := range scenarios {
		naive[i] = te.RestorableScenario{FailureScenario: sc.FailureScenario, TicketLinks: sc.TicketLinks, Tickets: sc.Tickets[:1]}
	}
	var b bytes.Buffer
	f := func(x float64) { fmt.Fprintf(&b, " %016x", math.Float64bits(x)) }
	fmt.Fprintf(&b, "set %d", len(set.Scenarios))
	f(set.HealthyProb)
	f(set.ResidualProb)
	b.WriteByte('\n')
	for _, sc := range set.Scenarios {
		fmt.Fprintf(&b, "cut %v", sc.Cut)
		f(sc.Prob)
		b.WriteByte('\n')
	}
	for _, group := range [][]te.RestorableScenario{scenarios, naive} {
		fmt.Fprintf(&b, "scenarios %d\n", len(group))
		for _, sc := range group {
			fmt.Fprintf(&b, "q failed=%v links=%v seeds=%d tickets=%d", sc.FailedLinks, sc.TicketLinks, sc.Seeds, len(sc.Tickets))
			f(sc.Prob)
			b.WriteByte('\n')
			for _, tk := range sc.Tickets {
				fmt.Fprintf(&b, "z %v", tk.Waves)
				for _, g := range tk.Gbps {
					f(g)
				}
				b.WriteByte('\n')
			}
		}
	}
	return fmt.Sprintf("%x", sha256.Sum256(b.Bytes()))[:16]
}

// rwaFingerprint hashes the relaxed RWA objective of every kept scenario.
func rwaFingerprint(results []*rwa.Result) string {
	var b bytes.Buffer
	for _, r := range results {
		fmt.Fprintf(&b, "%v %016x\n", r.Failed, math.Float64bits(r.Objective))
	}
	return fmt.Sprintf("%x", sha256.Sum256(b.Bytes()))[:16]
}

// ledgerFingerprint hashes a ledger's events as a multiset: arrival order and
// sequence numbers depend on the schedule, the bag of events may not.
func ledgerFingerprint(t *testing.T, led *ledger.Ledger) string {
	t.Helper()
	events := led.Events()
	lines := make([]string, len(events))
	for i, ev := range events {
		ev.Seq = 0
		raw, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = string(raw)
	}
	sort.Strings(lines)
	return fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(lines, "\n"))))[:16]
}

// TestOfflineStageFingerprints pins the offline stage's output on four
// instances, through both entry points (Network.PlanContext on a network
// rebuilt through the Builder, eval.BuildPipeline on the topology itself)
// and at one and four workers, against hashes captured before the two
// implementations of the stage were merged into internal/plan. The
// four-worker builds carry a flight recorder whose event multiset
// (HealthEvery 0) is pinned the same way, so they also show that recording
// changes no plan. The golden file, not a kept copy of either old loop, is the
// reference; regenerate it (-update-fingerprints) only for a change that
// means to move plans.
func TestOfflineStageFingerprints(t *testing.T) {
	const golden = "testdata/offline_fingerprints.golden"
	var got bytes.Buffer
	for _, in := range offlineInstances {
		tp, err := in.topo(fingerprintSeed)
		if err != nil {
			t.Fatal(err)
		}
		net := rebuildThroughBuilder(t, tp)
		var plan, rwaHash, ledgerHash string
		var scenarios int
		for _, workers := range []int{1, 4} {
			planCtx, pipelineCtx := context.Background(), context.Background()
			var planLedger, pipelineLedger *ledger.Ledger
			if workers > 1 {
				planLedger, pipelineLedger = ledger.New(), ledger.New()
				planCtx, pipelineCtx = ledger.WithLedger(planCtx, planLedger), ledger.WithLedger(pipelineCtx, pipelineLedger)
			}
			p, err := net.PlanContext(planCtx, in.planOptions(workers))
			if err != nil {
				t.Fatalf("%s: PlanContext (workers=%d): %v", in.name, workers, err)
			}
			pl, err := eval.BuildPipelineContext(pipelineCtx, tp, in.pipelineOptions(workers))
			if err != nil {
				t.Fatalf("%s: BuildPipeline (workers=%d): %v", in.name, workers, err)
			}
			// The cross-check the tree never had: the two entry points plan
			// the same scenarios, ticket for ticket.
			if !reflect.DeepEqual(p.scenarios, pl.Scenarios) {
				t.Errorf("%s (workers=%d): planner and pipeline scenarios differ", in.name, workers)
			}
			if !reflect.DeepEqual(p.set, pl.Set) {
				t.Errorf("%s (workers=%d): planner and pipeline scenario sets differ", in.name, workers)
			}
			for i, fs := range pl.Plain {
				if !reflect.DeepEqual(fs, pl.Scenarios[i].FailureScenario) {
					t.Errorf("%s (workers=%d): Plain[%d] is not Scenarios[%d]'s failure scenario", in.name, workers, i, i)
				}
			}
			if len(pl.Plain) != len(pl.Scenarios) || len(pl.RWAResults) != len(pl.Scenarios) {
				t.Errorf("%s (workers=%d): %d scenarios, %d plain, %d RWA results", in.name, workers, len(pl.Scenarios), len(pl.Plain), len(pl.RWAResults))
			}
			viaPlanner := planFingerprint(p.set, p.scenarios)
			viaPipeline := planFingerprint(pl.Set, pl.Scenarios)
			if viaPlanner != viaPipeline {
				t.Errorf("%s (workers=%d): planner %s, pipeline %s", in.name, workers, viaPlanner, viaPipeline)
			}
			r := rwaFingerprint(pl.RWAResults)
			if workers == 1 {
				plan, rwaHash, scenarios = viaPlanner, r, len(p.scenarios)
				continue
			}
			if viaPlanner != plan || viaPipeline != plan || r != rwaHash {
				t.Errorf("%s: fingerprints move with the worker count: plan %s -> %s / %s, rwa %s -> %s", in.name, plan, viaPlanner, viaPipeline, rwaHash, r)
			}
			ledgerHash = ledgerFingerprint(t, planLedger)
			if viaPipeline := ledgerFingerprint(t, pipelineLedger); viaPipeline != ledgerHash {
				t.Errorf("%s: ledger multisets differ: planner %s, pipeline %s", in.name, ledgerHash, viaPipeline)
			}
		}
		fmt.Fprintf(&got, "%s scenarios=%d plan=%s rwa=%s ledger=%s\n", in.name, scenarios, plan, rwaHash, ledgerHash)
	}
	if *updateFingerprints {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("offline stage moved:\n--- got\n%s--- want (%s)\n%s", got.Bytes(), golden, want)
	}
}
