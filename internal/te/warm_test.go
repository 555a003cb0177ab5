package te

import (
	"math"
	"testing"

	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/lp"
	"github.com/arrow-te/arrow/internal/obs"
)

// TestArrowWarmMatchesCold pins the warm-start contract on the two-phase
// TE: warm (both phases from their model's all-slack basis) and cold runs
// must agree on the winning tickets and the final objective, the warm run
// must skip Phase I's LP phase 1, and every Phase II solve must start
// feasible: accepted unrepaired, phase 1 skipped, no phase-1 pivot.
func TestArrowWarmMatchesCold(t *testing.T) {
	n := parallelLinks()
	scs := fig7Scenario()

	warmReg, coldReg := obs.NewRegistry(), obs.NewRegistry()
	warm, err := Arrow(n, scs, &ArrowOptions{LP: &lp.Options{Recorder: warmReg}})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Arrow(n, scs, &ArrowOptions{LP: &lp.Options{Recorder: coldReg}, NoWarm: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(warm.Objective-cold.Objective) > 1e-9*(1+math.Abs(cold.Objective)) {
		t.Errorf("objectives differ: warm %.12g cold %.12g", warm.Objective, cold.Objective)
	}
	if len(warm.WinningTicket) != len(cold.WinningTicket) {
		t.Fatalf("winner counts differ: %v vs %v", warm.WinningTicket, cold.WinningTicket)
	}
	for qi := range warm.WinningTicket {
		if warm.WinningTicket[qi] != cold.WinningTicket[qi] {
			t.Errorf("scenario %d winner differs: warm %d cold %d",
				qi, warm.WinningTicket[qi], cold.WinningTicket[qi])
		}
	}
	ws, cs := warmReg.Snapshot().Counters, coldReg.Snapshot().Counters
	if ws["lp.warm_starts"] < 2 { // phase 1 + at least one phase 2 solve
		t.Errorf("lp.warm_starts = %d, want >= 2", ws["lp.warm_starts"])
	}
	if cs["lp.warm_starts"] != 0 {
		t.Errorf("cold run recorded %d lp.warm_starts", cs["lp.warm_starts"])
	}
	if ws["lp.phase1_skipped"] == 0 {
		t.Error("warm run never skipped phase 1 (slack basis should be feasible)")
	}
	if ws["lp.phase1_pivots"] > cs["lp.phase1_pivots"] {
		t.Errorf("warm phase-1 pivots %d exceed cold %d",
			ws["lp.phase1_pivots"], cs["lp.phase1_pivots"])
	}
	if err := checkPhase2Start(n, scs); err != nil {
		t.Error(err)
	}
}

// TestArrowWarmDeterministicPivots re-runs the warm two-phase solve and
// requires identical pivot counts: the warm sources are fixed (each model's
// all-slack basis), so the pivot sequence cannot depend on timing.
func TestArrowWarmDeterministicPivots(t *testing.T) {
	var pivots []int64
	for i := 0; i < 3; i++ {
		reg := obs.NewRegistry()
		if _, err := Arrow(parallelLinks(), fig7Scenario(), &ArrowOptions{LP: &lp.Options{Recorder: reg}}); err != nil {
			t.Fatal(err)
		}
		pivots = append(pivots, reg.Snapshot().Counters["lp.pivots"])
	}
	if pivots[0] != pivots[1] || pivots[1] != pivots[2] {
		t.Errorf("pivot counts drifted across identical runs: %v", pivots)
	}
}

// TestArrowLedgerWarmStartEvents checks the flight-recorder seam: every
// warm-started solve leaves one KindWarmStart event naming its model and a
// recognised outcome status.
func TestArrowLedgerWarmStartEvents(t *testing.T) {
	L := ledger.New()
	if _, err := Arrow(parallelLinks(), fig7Scenario(), &ArrowOptions{Ledger: L}); err != nil {
		t.Fatal(err)
	}
	events := L.Events()
	seen := map[string]int{}
	for _, ev := range events {
		if ev.Kind != ledger.KindWarmStart {
			continue
		}
		switch ev.Status {
		case "phase1_skipped", "dual", "accepted", "rejected":
		default:
			t.Errorf("warm_start event with unknown status %q", ev.Status)
		}
		if ev.Count < 0 {
			t.Errorf("warm_start event with negative pivots saved: %+v", ev)
		}
		seen[ev.Solver]++
	}
	if seen["arrow-phase1"] != 1 {
		t.Errorf("arrow-phase1 warm_start events = %d, want 1", seen["arrow-phase1"])
	}
	if seen["arrow-phase2"] < 1 {
		t.Errorf("arrow-phase2 warm_start events = %d, want >= 1", seen["arrow-phase2"])
	}
	// Cold runs must leave no warm_start events at all.
	Lc := ledger.New()
	if _, err := Arrow(parallelLinks(), fig7Scenario(), &ArrowOptions{Ledger: Lc, NoWarm: true}); err != nil {
		t.Fatal(err)
	}
	for _, ev := range Lc.Events() {
		if ev.Kind == ledger.KindWarmStart {
			t.Errorf("cold run emitted warm_start event: %+v", ev)
		}
	}
}
