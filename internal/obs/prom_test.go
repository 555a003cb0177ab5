package obs

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files: the Prometheus exposition and METRICS.md")

// promTestSnapshot is a hand-built snapshot exercising every section and
// the formatting edge cases (dots in names, +Inf, float values).
func promTestSnapshot() *Snapshot {
	return &Snapshot{
		SchemaVersion: SchemaVersion,
		Counters: map[string]int64{
			"lp.pivots":               1234,
			"lp.health.anomalies":     0,
			"lp.health.anomaly.stall": 2,
		},
		Gauges: map[string]float64{
			"sim.availability": 0.99995,
			"emu.temp-c":       42.5,
		},
		Histograms: map[string]HistogramSnapshot{
			"lp.health.residual_inf": {
				Bounds: []float64{1e-9, 1e-6, 1e-3},
				Counts: []int64{5, 3, 1, 1}, // last is overflow
				Count:  10,
				Sum:    0.0125,
				Min:    2e-10,
				Max:    0.012,
			},
		},
		Spans: map[string]SpanSnapshot{
			"pipeline.build": {Count: 3, TotalSeconds: 1.5, MinSeconds: 0.4, MaxSeconds: 0.6},
		},
	}
}

// TestPromExpositionGolden pins the exposition bytes: names, # TYPE lines,
// cumulative buckets, ordering. Regenerate deliberately with:
//
//	go test ./internal/obs -run TestPromExpositionGolden -update
func TestPromExpositionGolden(t *testing.T) {
	var b strings.Builder
	if err := WritePromText(&b, promTestSnapshot()); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	golden := filepath.Join("testdata", "prom_exposition.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("Prometheus exposition drifted from golden.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// parsePromText is a minimal scraper-side parser: it validates the line
// grammar the Prometheus text format requires and returns the samples. Any
// malformed line fails the parse.
func parsePromText(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	types := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			switch parts[3] {
			case "counter", "gauge", "histogram", "summary":
			default:
				t.Fatalf("unknown metric type in %q", line)
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		// sample: name[{labels}] value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		name, valStr := line[:sp], line[sp+1:]
		var v float64
		switch valStr {
		case "+Inf":
			v = math.Inf(1)
		case "-Inf":
			v = math.Inf(-1)
		case "NaN":
			v = math.NaN()
		default:
			f, err := strconv.ParseFloat(valStr, 64)
			if err != nil {
				t.Fatalf("bad sample value in %q: %v", line, err)
			}
			v = f
		}
		base := name
		if i := strings.IndexByte(base, '{'); i >= 0 {
			if !strings.HasSuffix(base, "\"}") {
				t.Fatalf("malformed label block in %q", line)
			}
			base = base[:i]
		}
		for _, c := range base {
			if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == ':') {
				t.Fatalf("invalid metric name character %q in %q", c, line)
			}
		}
		// Every sample must be preceded by a TYPE declaration of its family.
		family := base
		for _, suffix := range []string{"_bucket", "_sum", "_count", "_total"} {
			trimmed := strings.TrimSuffix(base, suffix)
			if trimmed != base {
				if _, ok := types[trimmed]; ok {
					family = trimmed
					break
				}
			}
		}
		if _, ok := types[family]; !ok {
			t.Fatalf("sample %q has no TYPE declaration", line)
		}
		samples[name] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestPromExpositionScraperParseable runs the minimal parser over the
// exposition of a hand-built snapshot AND of a real registry, checking
// histogram bucket monotonicity and counter values survive the round trip.
func TestPromExpositionScraperParseable(t *testing.T) {
	var b strings.Builder
	if err := WritePromText(&b, promTestSnapshot()); err != nil {
		t.Fatal(err)
	}
	samples := parsePromText(t, b.String())

	if v := samples["arrow_lp_pivots_total"]; v != 1234 {
		t.Errorf("arrow_lp_pivots_total = %g, want 1234", v)
	}
	if v := samples["arrow_lp_health_anomaly_stall_total"]; v != 2 {
		t.Errorf("stall counter = %g, want 2", v)
	}
	if v := samples["arrow_sim_availability"]; v != 0.99995 {
		t.Errorf("gauge = %g", v)
	}
	// Histogram: cumulative buckets must be monotone and end at count.
	cum := []float64{
		samples[`arrow_lp_health_residual_inf_bucket{le="1e-09"}`],
		samples[`arrow_lp_health_residual_inf_bucket{le="1e-06"}`],
		samples[`arrow_lp_health_residual_inf_bucket{le="0.001"}`],
		samples[`arrow_lp_health_residual_inf_bucket{le="+Inf"}`],
	}
	want := []float64{5, 8, 9, 10}
	for i := range cum {
		if cum[i] != want[i] {
			t.Fatalf("cumulative buckets %v, want %v", cum, want)
		}
	}
	if samples["arrow_lp_health_residual_inf_count"] != 10 {
		t.Errorf("histogram count %g", samples["arrow_lp_health_residual_inf_count"])
	}
	if samples["arrow_pipeline_build_seconds_count"] != 3 {
		t.Errorf("span summary count %g", samples["arrow_pipeline_build_seconds_count"])
	}

	// A real registry's exposition parses too (covers default buckets and
	// the full core counter schema).
	reg := NewRegistry()
	reg.Add("lp.pivots", 42)
	reg.Gauge("x.y", 1.5)
	reg.Observe("lp.pivots_per_solve", 17)
	var rb strings.Builder
	if err := WritePromText(&rb, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	real := parsePromText(t, rb.String())
	if real["arrow_lp_pivots_total"] != 42 {
		t.Errorf("registry counter %g", real["arrow_lp_pivots_total"])
	}
	if _, ok := real["arrow_obs_sse_dropped_events_total"]; !ok {
		t.Error("core counter obs.sse.dropped_events missing from exposition")
	}
}

func TestPromNameSanitisation(t *testing.T) {
	cases := map[string]string{
		"lp.pivots":  "arrow_lp_pivots",
		"emu.temp-c": "arrow_emu_temp_c",
		"a b/c":      "arrow_a_b_c",
		"UPPER_ok.1": "arrow_UPPER_ok_1",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
	if got := promFloat(math.Inf(1)); got != "+Inf" {
		t.Errorf("promFloat(+Inf) = %q", got)
	}
}

// TestHistogramQuantile covers the percentile estimator the report's
// drift/degeneracy table uses.
func TestHistogramQuantile(t *testing.T) {
	h := HistogramSnapshot{
		Bounds: []float64{1, 2, 4},
		Counts: []int64{10, 10, 0, 0},
		Count:  20,
		Sum:    25,
		Min:    0.5,
		Max:    1.8,
	}
	if v := h.Quantile(0); v != 0.5 {
		t.Errorf("q0 = %g, want Min", v)
	}
	if v := h.Quantile(1); v != 1.8 {
		t.Errorf("q1 = %g, want Max", v)
	}
	// Median: exactly at the boundary between the two buckets.
	if v := h.Quantile(0.5); v < 0.5 || v > 1.1 {
		t.Errorf("q0.5 = %g, want ~1", v)
	}
	// p75 sits inside the second bucket (1..1.8 after Max clamp).
	if v := h.Quantile(0.75); v <= 1 || v > 1.8 {
		t.Errorf("q0.75 = %g, want in (1, 1.8]", v)
	}
	var empty HistogramSnapshot
	if v := empty.Quantile(0.5); v != 0 {
		t.Errorf("empty quantile %g", v)
	}

	// Monotonicity over a spread of quantiles.
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := h.Quantile(q)
		if v < prev-1e-12 {
			t.Fatalf("quantile not monotone at q=%.2f: %g < %g", q, v, prev)
		}
		prev = v
	}
	_ = fmt.Sprint(h)
}
