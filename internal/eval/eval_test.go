package eval

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig3", "fig4", "fig5", "fig6", "fig12", "fig13", "fig14", "fig15",
		"fig16", "fig17", "fig19", "fig20", "fig21", "fig22",
		"table4", "table5", "table6", "table8", "table9",
		"thm31", "ablation-alpha", "ablation-stride", "timeline", "ext-clband", "table10",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Fatalf("experiment %s not registered", id)
		}
	}
	if len(Experiments()) < len(want) {
		t.Fatalf("registry has %d experiments, want >= %d", len(Experiments()), len(want))
	}
}

func TestRenderText(t *testing.T) {
	r := &Result{ID: "x", Title: "demo", Header: []string{"a", "bb"}}
	r.AddRow("1", "2")
	r.AddNote("hello %d", 7)
	out := RenderText(r)
	for _, want := range []string{"demo", "a", "bb", "hello 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestLightExperiments runs every experiment that completes quickly in fast
// mode and sanity-checks the output structure.
func TestLightExperiments(t *testing.T) {
	cfg := Config{Fast: true, Seed: 1}
	for _, id := range []string{"fig3", "fig4", "fig12", "fig20", "fig21", "table4", "table6", "table8", "table9"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		res, err := e.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
		if res.ID != id {
			t.Fatalf("%s returned result id %s", id, res.ID)
		}
	}
}

func TestFacebookMeasureExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("facebook topology experiments take a while")
	}
	cfg := Config{Fast: true, Seed: 1}
	for _, id := range []string{"fig5", "fig22"} {
		e, _ := ByID(id)
		res, err := e.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
	}
}

func TestRenderMarkdown(t *testing.T) {
	r := &Result{ID: "x", Title: "demo", Header: []string{"a", "b"}}
	r.AddRow("1", "2")
	r.AddNote("note %s", "one")
	out := RenderMarkdown(r)
	for _, want := range []string{"### x — demo", "| a | b |", "| 1 | 2 |", "> note one"} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q:\n%s", want, out)
		}
	}
}

// TestFig14ShapeReportsWhatWasMeasured: fig14's note states the measured
// shape — whether throughput ever falls along |Z| and where it peaks (ties
// to the smallest |Z|) — not the paper's, which the fast run contradicts. A
// fall or a rise within 1e-9 relative is a tie.
func TestFig14ShapeReportsWhatWasMeasured(t *testing.T) {
	tickets := []int{1, 2, 5, 10}
	for _, tc := range []struct {
		thr  []float64
		want string
	}{
		{[]float64{0.9097, 0.9097, 0.8700, 0.8469}, "throughput falls somewhere as |Z| grows and peaks at |Z|=1 with 0.9097: first 0.9097 -> last 0.8469"},
		{[]float64{0.7, 0.8, 0.8, 0.8}, "throughput never falls as |Z| grows and peaks at |Z|=2 with 0.8000: first 0.7000 -> last 0.8000"},
		{[]float64{0.7, 0.9, 0.8, 0.9}, "throughput falls somewhere as |Z| grows and peaks at |Z|=2 with 0.9000"},
		// The -warm=false run's curve: a last-bit fall, then a last-bit rise.
		{[]float64{0.8031, 0.8031 - 4.4e-16, 0.8939, 0.8939 + 4.4e-16}, "measured (to 1e-09 relative), throughput never falls as |Z| grows and peaks at |Z|=5 with 0.8939"},
		{[]float64{0.8, 0.8 - 1e-8, 0.8, 0.8}, "throughput falls somewhere as |Z| grows and peaks at |Z|=1 with 0.8000"},
	} {
		if got := fig14Shape(tickets, tc.thr); !strings.Contains(got, tc.want) {
			t.Errorf("%v: note %q, want it to say %q", tc.thr, got, tc.want)
		}
	}
	e, _ := ByID("fig14")
	if !strings.Contains(e.PaperClaim, "plateaus") {
		t.Errorf("fig14's PaperClaim %q no longer states the paper's shape", e.PaperClaim)
	}
}
