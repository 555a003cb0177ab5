package obs

import (
	"os"
	"strings"
	"testing"
)

// TestCounterHelpCoversSchema keeps counterHelp and CoreCounters exactly
// aligned: every counter documented, no stale docs for removed counters.
func TestCounterHelpCoversSchema(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range CoreCounters {
		if counterHelp[name] == "" {
			t.Errorf("counter %q has no help text", name)
		}
		seen[name] = true
	}
	for name := range counterHelp {
		if !seen[name] {
			t.Errorf("counterHelp documents %q, which is not in CoreCounters", name)
		}
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
