package ledger

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"sync"
	"testing"

	"github.com/arrow-te/arrow/internal/lp"
)

// TestNilLedgerIsSafe pins the nil-default seam: every method must be a
// no-op on a nil *Ledger.
func TestNilLedgerIsSafe(t *testing.T) {
	var l *Ledger
	l.Emit(Event{Kind: KindWinner})
	l.SetLogger(slog.Default())
	if l.Len() != 0 {
		t.Error("nil ledger has events")
	}
	if l.Events() != nil {
		t.Error("nil ledger returned events")
	}
	ctx := WithLedger(context.Background(), nil)
	if FromContext(ctx) != nil {
		t.Error("nil ledger attached to context")
	}
}

// TestEmitAssignsSequence checks ordering and payload fidelity.
func TestEmitAssignsSequence(t *testing.T) {
	l := New()
	l.Emit(Event{Kind: KindEnumerated, Scenario: -1, Count: 16})
	l.Emit(Event{Kind: KindScenario, Scenario: 0, Enum: 3, Prob: 0.25, Links: []int{1, 2}})
	l.Emit(Event{Kind: KindWinner, Scenario: 0, Ticket: 4, Gbps: 300, Fraction: 0.75})
	evs := l.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != int64(i+1) {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
	}
	if evs[1].Kind != KindScenario || evs[1].Enum != 3 || evs[1].Prob != 0.25 {
		t.Errorf("scenario event corrupted: %+v", evs[1])
	}
	if evs[2].Fraction != 0.75 {
		t.Errorf("winner event corrupted: %+v", evs[2])
	}
	// Events() must be a copy, not an alias.
	evs[0].Count = 999
	if l.Events()[0].Count == 999 {
		t.Error("Events() aliases internal storage")
	}
}

// TestConcurrentEmit hammers Emit from many goroutines; run under -race this
// is the concurrency-safety proof, and sequence numbers must stay unique.
func TestConcurrentEmit(t *testing.T) {
	l := New()
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Emit(Event{Kind: KindTicketGenerated, Scenario: w, Ticket: i})
			}
		}(w)
	}
	wg.Wait()
	evs := l.Events()
	if len(evs) != workers*per {
		t.Fatalf("got %d events, want %d", len(evs), workers*per)
	}
	seen := make(map[int64]bool, len(evs))
	for _, ev := range evs {
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
	}
}

// roundTrip marshals the ledger's snapshot and reads it back, as a run
// bundle's ledger section travels.
func roundTrip(t *testing.T, l *Ledger) *Snapshot {
	t.Helper()
	data, err := json.Marshal(l.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	return &snap
}

// TestJSONRoundTrip writes a snapshot and reads it back, including a nested
// certificate. A newer schema is refused by the bundle reader
// (internal/session).
func TestJSONRoundTrip(t *testing.T) {
	l := New()
	l.Emit(Event{Kind: KindSolveStart, Scenario: -1, Solver: "arrow-phase1"})
	l.Emit(Event{
		Kind: KindSolveEnd, Scenario: -1, Solver: "arrow-phase1", Status: "optimal",
		Cert: &lp.Certificate{Primal: 10, Dual: 10, Gap: 0},
	})
	snap := roundTrip(t, l)
	if snap.SchemaVersion != SchemaVersion {
		t.Errorf("schema version %d", snap.SchemaVersion)
	}
	if len(snap.Events) != 2 {
		t.Fatalf("got %d events", len(snap.Events))
	}
	c := snap.Events[1].Cert
	if c == nil || c.Primal != 10 || c.Dual != 10 {
		t.Errorf("certificate did not survive round trip: %+v", c)
	}
}

// TestEmuEventsRoundTrip pins the restoration-latency observatory fields:
// emulated episode/stage events and latency-aware sim summaries must
// survive the JSON round trip with their emulated-clock coordinates.
func TestEmuEventsRoundTrip(t *testing.T) {
	l := New()
	l.Emit(Event{
		Kind: KindEmuEpisode, Scenario: -1, Mode: "legacy",
		DurSec: 1021, Gbps: 2800, Fraction: 1, Count: 25,
	})
	l.Emit(Event{
		Kind: KindEmuStage, Scenario: -1, Mode: "legacy", Stage: "amp_settle",
		Device: "path [0 1] amp 3", Lane: 2, StartSec: 6, DurSec: 40,
	})
	l.Emit(Event{
		Kind: KindSimSummary, Scenario: -1, Mode: "noise_loading",
		Count: 12, Fraction: 0.995, FullService: 0.98, RestoringH: 0.4,
	})
	snap := roundTrip(t, l)
	ep, st, sum := snap.Events[0], snap.Events[1], snap.Events[2]
	if ep.Mode != "legacy" || ep.DurSec != 1021 || ep.Count != 25 {
		t.Errorf("episode corrupted: %+v", ep)
	}
	if st.Stage != "amp_settle" || st.Lane != 2 || st.StartSec != 6 || st.DurSec != 40 || st.Device == "" {
		t.Errorf("stage corrupted: %+v", st)
	}
	if sum.FullService != 0.98 || sum.RestoringH != 0.4 || sum.Mode != "noise_loading" {
		t.Errorf("sim summary corrupted: %+v", sum)
	}
}

// TestSlogMirroring checks that events reach an attached slog handler with
// the kind attribute intact.
func TestSlogMirroring(t *testing.T) {
	var buf bytes.Buffer
	lg := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	l := New()
	l.SetLogger(lg)
	l.Emit(Event{Kind: KindTicketRejected, Scenario: 2, Ticket: 7, Reason: RejectDuplicate})
	var line struct {
		Msg    string `json:"msg"`
		Kind   string `json:"kind"`
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("mirror output not JSON: %v (%q)", err, buf.String())
	}
	if line.Msg != "ledger" || line.Kind != string(KindTicketRejected) || line.Reason != string(RejectDuplicate) {
		t.Errorf("mirrored line wrong: %+v", line)
	}

	// Detaching stops the mirror.
	l.SetLogger(nil)
	buf.Reset()
	l.Emit(Event{Kind: KindWinner})
	if buf.Len() != 0 {
		t.Error("detached logger still received events")
	}
}

// TestContextHelpers round-trips a ledger through a context.
func TestContextHelpers(t *testing.T) {
	l := New()
	ctx := WithLedger(context.Background(), l)
	if FromContext(ctx) != l {
		t.Error("FromContext lost the ledger")
	}
	if FromContext(context.Background()) != nil {
		t.Error("empty context produced a ledger")
	}
}
