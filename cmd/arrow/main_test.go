package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/plan"
)

func TestRunB4Arrow(t *testing.T) {
	if testing.Short() {
		t.Skip("solves TE instances")
	}
	if err := run(context.Background(), "B4", "", "ARROW", 2.0, 4, 1, 10, 0, true, plan.Space{}); err != nil {
		t.Fatal(err)
	}
}

// TestRunRecordsLedger checks the -ledger-json wiring: a run with a live
// flight recorder captures the decision stream and Ledger.WriteFile round-trips
// it through ledger.ReadJSON.
func TestRunRecordsLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("solves TE instances")
	}
	led := ledger.New()
	if err := run(ledger.WithLedger(context.Background(), led), "B4", "", "ARROW", 2.0, 4, 1, 10, 0, false, plan.Space{}); err != nil {
		t.Fatal(err)
	}
	if led.Len() == 0 {
		t.Fatal("ledger recorded no events")
	}
	winners := 0
	for _, ev := range led.Events() {
		if ev.Kind == ledger.KindWinner {
			winners++
		}
	}
	if winners == 0 {
		t.Error("ledger has no winner events")
	}
	path := filepath.Join(t.TempDir(), "ledger.json")
	if err := led.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	fd, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	snap, err := ledger.ReadJSON(fd)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Events) != led.Len() {
		t.Errorf("round-trip lost events: %d != %d", len(snap.Events), led.Len())
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
