package sim

import (
	"context"
	"math"
	"testing"

	"github.com/arrow-te/arrow/internal/te"
	"github.com/arrow-te/arrow/internal/ticket"
)

func TestGenerateTimelineShape(t *testing.T) {
	events := GenerateTimeline(20, TimelineOptions{DurationH: 365 * 24, CutsPerMonth: 16, Seed: 1})
	if len(events) == 0 {
		t.Fatal("empty timeline")
	}
	cuts, repairs := 0, 0
	prev := 0.0
	downSet := map[int]bool{}
	for _, e := range events {
		if e.TimeH < prev {
			t.Fatal("events not sorted")
		}
		prev = e.TimeH
		if e.Up {
			repairs++
			if !downSet[e.Fiber] {
				t.Fatalf("repair of healthy fiber %d", e.Fiber)
			}
			delete(downSet, e.Fiber)
		} else {
			cuts++
			if downSet[e.Fiber] {
				t.Fatalf("double cut of fiber %d", e.Fiber)
			}
			downSet[e.Fiber] = true
		}
	}
	// ~16/month over 12 months = ~192 cuts (skips for already-down fibers
	// make it slightly fewer).
	if cuts < 120 || cuts > 260 {
		t.Fatalf("%d cuts over a year at 16/month", cuts)
	}
	if repairs > cuts {
		t.Fatalf("%d repairs for %d cuts", repairs, cuts)
	}
	// Determinism.
	again := GenerateTimeline(20, TimelineOptions{DurationH: 365 * 24, CutsPerMonth: 16, Seed: 1})
	if len(again) != len(events) || again[0] != events[0] {
		t.Fatal("timeline not deterministic")
	}
}

// simpleNet: one flow, two disjoint one-link tunnels; fiber i carries IP
// link i.
func simpleNet() (*te.Network, Projector) {
	n := &te.Network{
		LinkCap: []float64{100, 100},
		Flows:   []te.Flow{{Src: 0, Dst: 1, Demand: 150}},
		Tunnels: [][]te.Tunnel{{{Links: []int{0}}, {Links: []int{1}}}},
	}
	project := func(cut []int) []int { return append([]int(nil), cut...) }
	return n, project
}

func TestRunNoEventsFullService(t *testing.T) {
	n, project := simpleNet()
	al := &te.Allocation{B: []float64{150}, A: [][]float64{{75, 75}}}
	r := NewRunner(n, al, project, nil, nil)
	rep := r.Run(context.Background(), nil, 100)
	if rep.Delivered != 1 || rep.FullServiceFrac != 1 || rep.Worst != 1 {
		t.Fatalf("healthy replay %+v", rep)
	}
}

func TestRunTimeWeighting(t *testing.T) {
	n, project := simpleNet()
	al := &te.Allocation{B: []float64{150}, A: [][]float64{{75, 75}}}
	// Link 0 down from t=10 to t=60 (50 of 100 hours). During the outage,
	// tunnel 1 carries min(150, 100) -> delivered 2/3.
	events := []Event{{TimeH: 10, Fiber: 0, Up: false}, {TimeH: 60, Fiber: 0, Up: true}}
	scenarios := []te.FailureScenario{{FailedLinks: []int{0}}}
	r := NewRunner(n, al, project, scenarios, nil)
	rep := r.Run(context.Background(), events, 100)
	want := (50*1.0 + 50*(100.0/150)) / 100
	if math.Abs(rep.Delivered-want) > 1e-9 {
		t.Fatalf("delivered %g want %g", rep.Delivered, want)
	}
	if math.Abs(rep.FullServiceFrac-0.5) > 1e-9 {
		t.Fatalf("full-service %g", rep.FullServiceFrac)
	}
	if math.Abs(rep.Worst-100.0/150) > 1e-9 {
		t.Fatalf("worst %g", rep.Worst)
	}
	if rep.UnplannedHours != 0 {
		t.Fatalf("unplanned %g for a planned scenario", rep.UnplannedHours)
	}
}

func TestRunRestorationPlanApplied(t *testing.T) {
	n, project := simpleNet()
	al := &te.Allocation{B: []float64{150}, A: [][]float64{{75, 75}}}
	events := []Event{{TimeH: 0, Fiber: 0, Up: false}}
	scenarios := []te.FailureScenario{{FailedLinks: []int{0}}}
	restored := []te.Restoration{{Links: []int{0}, Gbps: []float64{50}}}
	r := NewRunner(n, al, project, scenarios, restored)
	rep := r.Run(context.Background(), events, 10)
	// Tunnel 0 revived at 50: delivered (50+75)/150.
	want := (50 + 75.0) / 150
	if math.Abs(rep.Delivered-want) > 1e-9 {
		t.Fatalf("delivered %g want %g", rep.Delivered, want)
	}
}

func TestRunUnplannedScenarioCounted(t *testing.T) {
	n, project := simpleNet()
	al := &te.Allocation{B: []float64{150}, A: [][]float64{{75, 75}}}
	// Double failure was never planned.
	events := []Event{
		{TimeH: 0, Fiber: 0, Up: false},
		{TimeH: 2, Fiber: 1, Up: false},
		{TimeH: 6, Fiber: 1, Up: true},
	}
	scenarios := []te.FailureScenario{{FailedLinks: []int{0}}}
	r := NewRunner(n, al, project, scenarios, nil)
	rep := r.Run(context.Background(), events, 10)
	if math.Abs(rep.UnplannedHours-4) > 1e-9 {
		t.Fatalf("unplanned %g want 4", rep.UnplannedHours)
	}
	if rep.Worst != 0 { // total outage during the double failure
		t.Fatalf("worst %g", rep.Worst)
	}
}

// TestArrowOutlastsBaselineOnTimeline wires a real ARROW solve into the
// replay: with restoration, the delivered-time integral must dominate the
// same allocation replayed without its restoration plans.
func TestArrowOutlastsBaselineOnTimeline(t *testing.T) {
	n := &te.Network{
		LinkCap: []float64{100, 100},
		Flows:   []te.Flow{{Src: 0, Dst: 1, Demand: 160}},
		Tunnels: [][]te.Tunnel{{{Links: []int{0}}, {Links: []int{1}}}},
	}
	scs := []te.RestorableScenario{
		{
			FailureScenario: te.FailureScenario{Prob: 0.01, FailedLinks: []int{0}},
			TicketLinks:     []int{0},
			Tickets:         []ticket.Ticket{{Waves: []int{7}, Gbps: []float64{70}}},
		},
		{
			FailureScenario: te.FailureScenario{Prob: 0.01, FailedLinks: []int{1}},
			TicketLinks:     []int{1},
			Tickets:         []ticket.Ticket{{Waves: []int{7}, Gbps: []float64{70}}},
		},
	}
	al, err := te.Arrow(n, scs, nil)
	if err != nil {
		t.Fatal(err)
	}
	project := func(cut []int) []int { return append([]int(nil), cut...) }
	plain := []te.FailureScenario{{FailedLinks: []int{0}}, {FailedLinks: []int{1}}}
	events := GenerateTimeline(2, TimelineOptions{DurationH: 2000, CutsPerMonth: 30, Seed: 5})

	withPlans := NewRunner(n, al, project, plain, te.Restorations(scs, al.WinningTicket))
	withoutPlans := NewRunner(n, al, project, plain, nil)
	a := withPlans.Run(context.Background(), events, 2000)
	b := withoutPlans.Run(context.Background(), events, 2000)
	if a.Delivered < b.Delivered {
		t.Fatalf("restoration made things worse: %g vs %g", a.Delivered, b.Delivered)
	}
	if a.Delivered <= b.Delivered && a.Worst <= b.Worst && a.Delivered == b.Delivered {
		t.Fatalf("restoration had no effect on a lossy timeline: %+v vs %+v", a, b)
	}
}
