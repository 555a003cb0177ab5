package eval

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/topo"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden metrics-schema file")

// TestMetricsSchemaGolden pins the metrics schema (the metrics section of a
// -run-out bundle, and /metrics): the section-
// qualified key listing of an instrumented standard pipeline build must
// match testdata/metrics_schema.golden exactly. Metric VALUES are timing-
// dependent; the KEY SET is deterministic for a fixed seed and must not
// drift silently — a renamed or dropped counter breaks downstream tooling
// that parses the snapshot. Regenerate deliberately with:
//
//	go test ./internal/eval -run TestMetricsSchemaGolden -update
func TestMetricsSchemaGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a full pipeline")
	}
	tp, err := topo.B4(6)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	if _, err := BuildPipelineContext(withSinks(reg, nil, nil), tp, PipelineOptions{
		Cutoff: 0.001, NumTickets: 12, Seed: 1, MaxScenarios: 16,
		Parallelism: 2,
	}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()

	// The acceptance floor: the snapshot must report real solver work, not
	// just schema keys.
	for _, c := range []string{"lp.solves", "lp.pivots", "rwa.solves",
		"ticket.rounding_attempts", "par.pools", "par.tasks", "par.busy_ns",
		"pipeline.scenarios_enumerated", "pipeline.scenarios_relevant"} {
		if snap.Counters[c] <= 0 {
			t.Errorf("counter %s = %d, want > 0", c, snap.Counters[c])
		}
	}
	// Core schema keys exist even for layers this build never runs.
	for _, c := range []string{"mip.nodes", "sim.intervals"} {
		if _, ok := snap.Counters[c]; !ok {
			t.Errorf("core counter %s missing from snapshot", c)
		}
	}
	for _, sp := range []string{"pipeline.build", "pipeline.enumerate", "pipeline.offline", "par.task"} {
		if snap.Spans[sp].Count == 0 {
			t.Errorf("span %s missing or never completed", sp)
		}
	}

	got := strings.Join(snap.Keys(), "\n") + "\n"
	golden := filepath.Join("testdata", "metrics_schema.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("metrics schema drifted from %s (regenerate deliberately with -update):\n got:\n%s\nwant:\n%s",
			golden, got, want)
	}
}
