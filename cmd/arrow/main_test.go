package main

import (
	"context"
	"path/filepath"
	"testing"

	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/plan"
	"github.com/arrow-te/arrow/internal/session"
)

func TestRunB4Arrow(t *testing.T) {
	if testing.Short() {
		t.Skip("solves TE instances")
	}
	if err := run(context.Background(), "B4", "", "ARROW", 2.0, 4, 1, 10, 0, true, plan.Space{}); err != nil {
		t.Fatal(err)
	}
}

// TestRunRecordsLedger checks the -run-out wiring: a run under a session
// that records a ledger captures the decision stream, and the bundle Close
// writes reads back with every event.
func TestRunRecordsLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("solves TE instances")
	}
	path := filepath.Join(t.TempDir(), "run.json")
	sess, err := (&session.Flags{RunOut: path}).Start(session.Ledger, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(sess.Context(), "B4", "", "ARROW", 2.0, 4, 1, 10, 0, false, plan.Space{}); err != nil {
		t.Fatal(err)
	}
	recorded, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	b, err := session.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Ledger.Events) == 0 || len(b.Ledger.Events) != len(recorded.Ledger.Events) {
		t.Fatalf("bundle has %d events, the run recorded %d", len(b.Ledger.Events), len(recorded.Ledger.Events))
	}
	winners := 0
	for _, ev := range b.Ledger.Events {
		if ev.Kind == ledger.KindWinner {
			winners++
		}
	}
	if winners == 0 {
		t.Error("ledger has no winner events")
	}
	if b.Metrics.Counters["lp.solves"] == 0 {
		t.Error("bundle metrics recorded no LP solve")
	}
}

func TestRunUnknownTopology(t *testing.T) {
	if err := run(context.Background(), "nope", "", "ARROW", 1, 1, 1, 5, 1, false, plan.Space{}); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

func TestRunUnknownScheme(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a pipeline")
	}
	if err := run(context.Background(), "B4", "", "WAT", 1, 2, 1, 5, 0, false, plan.Space{}); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}
