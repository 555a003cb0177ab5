package sim

import (
	"context"
	"math"
	"reflect"
	"testing"

	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/par"
	"github.com/arrow-te/arrow/internal/te"
)

// TestAttributeLossPerCut checks the replay's loss-attribution events: one
// event per distinct cut set, loss shares that sum to the replay's total
// loss, an identical Report with the switch on or off, and a stream that is
// byte-identical at any worker count.
func TestAttributeLossPerCut(t *testing.T) {
	n, project := simpleNet()
	al := &te.Allocation{B: []float64{150}, A: [][]float64{{75, 75}}}
	// Two outage windows of the same cut {0} (10h+10h, delivered 2/3) and
	// one of cut {1} (5h, same loss by symmetry), over 100 h.
	events := []Event{
		{TimeH: 10, Fiber: 0, Up: false}, {TimeH: 20, Fiber: 0, Up: true},
		{TimeH: 40, Fiber: 0, Up: false}, {TimeH: 50, Fiber: 0, Up: true},
		{TimeH: 70, Fiber: 1, Up: false}, {TimeH: 75, Fiber: 1, Up: true},
	}
	scenarios := []te.FailureScenario{{FailedLinks: []int{0}}, {FailedLinks: []int{1}}}

	run := func(workers int, attrLoss bool, led *ledger.Ledger) *Report {
		r := NewRunner(n, al, project, scenarios, nil)
		r.AttributeLoss = attrLoss
		return r.Run(ledger.WithLedger(par.WithWorkers(context.Background(), workers), led), events, 100)
	}

	base := run(1, false, nil)
	led := ledger.New()
	rep := run(1, true, led)
	if *rep != *base {
		t.Fatalf("AttributeLoss changed the report: %+v vs %+v", rep, base)
	}

	var cuts []ledger.Event
	for _, ev := range led.Events() {
		if ev.Kind == ledger.KindAttribution {
			if ev.Detail != "sim_cut" {
				t.Fatalf("unexpected attribution detail %q", ev.Detail)
			}
			cuts = append(cuts, ev)
		}
	}
	if len(cuts) != 2 {
		t.Fatalf("%d sim_cut events, want 2 (one per distinct cut set)", len(cuts))
	}
	// Loss shares must sum to the replay's total lost delivery.
	total := 0.0
	for _, ev := range cuts {
		total += ev.Fraction
	}
	if want := 1 - rep.Delivered; math.Abs(total-want) > 1e-9 {
		t.Fatalf("cut loss shares sum to %g, total loss %g", total, want)
	}
	// Sorted by loss descending: cut {0} was down 20 h, cut {1} only 5 h.
	if !reflect.DeepEqual(cuts[0].Links, []int{0}) || math.Abs(cuts[0].DurSec-20*3600) > 1e-6 {
		t.Fatalf("first event %+v, want cut [0] over 20h", cuts[0])
	}
	if !reflect.DeepEqual(cuts[1].Links, []int{1}) || math.Abs(cuts[1].DurSec-5*3600) > 1e-6 {
		t.Fatalf("second event %+v, want cut [1] over 5h", cuts[1])
	}

	// The emission happens after the parallel evaluation, in a sorted
	// order, so the stream is identical at any worker count.
	ledPar := ledger.New()
	repPar := run(4, true, ledPar)
	if *repPar != *rep {
		t.Fatal("report differs across worker counts")
	}
	seq, par := led.Events(), ledPar.Events()
	if len(seq) != len(par) {
		t.Fatalf("%d events sequential vs %d parallel", len(seq), len(par))
	}
	for i := range seq {
		seq[i].Seq, par[i].Seq = 0, 0
		if !reflect.DeepEqual(seq[i], par[i]) {
			t.Fatalf("event %d differs across worker counts:\n%+v\n%+v", i, seq[i], par[i])
		}
	}
}
