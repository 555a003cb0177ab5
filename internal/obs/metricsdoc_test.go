package obs

import (
	"os"
	"strings"
	"testing"
)

// TestCounterHelpCoversSchema: every core counter is documented, listed
// once and of kind counter, and every one is what NewRegistry seeds.
func TestCounterHelpCoversSchema(t *testing.T) {
	snap := NewRegistry().Snapshot()
	seen := map[string]bool{}
	for _, d := range CounterDocs() {
		if d.Help == "" || d.Kind != "counter" {
			t.Errorf("counter %q: kind %q, help %q", d.Name, d.Kind, d.Help)
		}
		if seen[d.Name] {
			t.Errorf("counter %q listed twice", d.Name)
		}
		seen[d.Name] = true
		if _, ok := snap.Counters[d.Name]; !ok {
			t.Errorf("counter %q not seeded by NewRegistry", d.Name)
		}
	}
	if len(snap.Counters) != len(seen) {
		t.Errorf("NewRegistry seeds %d counters, the schema lists %d", len(snap.Counters), len(seen))
	}
}

func TestMetricsDocContent(t *testing.T) {
	doc := MetricsDoc()
	for _, want := range []string{
		"# Metric namespace",
		"## Counters", "## Gauges", "## Histograms",
		"`lp.pivots`", "`attr.runs`", "`emu.latency_ratio`",
		"`lp.health.probes`", "`lp.pivots_per_solve`",
		"`testbed.restore_seconds`",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("MetricsDoc missing %q", want)
		}
	}
	for _, d := range append(append(CounterDocs(), CoreGauges...), CoreHistograms...) {
		if d.Help == "" {
			t.Errorf("metric %q (%s) has no help text", d.Name, d.Kind)
		}
	}
}

// TestMetricsMDFresh pins METRICS.md as the golden of MetricsDoc.
// Regenerate with `go generate ./...`, which runs:
//
//	go test ./internal/obs -run TestMetricsMDFresh -update
func TestMetricsMDFresh(t *testing.T) {
	const path = "../../METRICS.md"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(MetricsDoc()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("METRICS.md unreadable (regenerate with go generate ./...): %v", err)
	}
	if string(raw) != MetricsDoc() {
		t.Error("METRICS.md is stale; regenerate: go generate ./...")
	}
}
