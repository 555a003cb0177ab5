package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/lp"
	"github.com/arrow-te/arrow/internal/obs"
)

// TestBuildReportJoins checks the enum->pipeline-index join: ticket events
// tagged with enumerated indices must land in the right scenario rows.
func TestBuildReportJoins(t *testing.T) {
	l := ledger.New()
	l.Emit(ledger.Event{Kind: ledger.KindEnumerated, Scenario: -1, Count: 5})
	// Pipeline scenario 0 came from enumerated index 2 (0 and 1 were
	// irrelevant cuts).
	l.Emit(ledger.Event{Kind: ledger.KindScenario, Scenario: 0, Enum: 2, Prob: 0.1, Links: []int{4, 7}, Cut: []int{9, 3}, Count: 3})
	l.Emit(ledger.Event{Kind: ledger.KindTicketGenerated, Scenario: 2, Ticket: 0, Gbps: 100})
	l.Emit(ledger.Event{Kind: ledger.KindTicketRejected, Scenario: 2, Ticket: 1, Reason: ledger.RejectDuplicate})
	l.Emit(ledger.Event{Kind: ledger.KindTicketRejected, Scenario: 2, Ticket: 2, Reason: ledger.RejectSpectrumClash})
	l.Emit(ledger.Event{Kind: ledger.KindTicketRejected, Scenario: 2, Ticket: 3, Reason: ledger.RejectRounding})
	// Ticket events for an enumerated scenario that was never kept must be
	// dropped, not crash.
	l.Emit(ledger.Event{Kind: ledger.KindTicketGenerated, Scenario: 4, Ticket: 0})
	l.Emit(ledger.Event{Kind: ledger.KindSolveEnd, Scenario: -1, Solver: "arrow-phase2", Status: "optimal",
		Cert: &lp.Certificate{Primal: 9, Dual: 9}})
	l.Emit(ledger.Event{Kind: ledger.KindWinner, Scenario: 0, Ticket: 2, Gbps: 300, Fraction: 0.6})
	l.Emit(ledger.Event{Kind: ledger.KindUnmetDemand, Scenario: -1, Gbps: 50, Fraction: 0.05})

	rep := buildReport(l.Snapshot(), nil)
	if rep.Enumerated != 5 || len(rep.Scenarios) != 1 {
		t.Fatalf("enumerated=%d scenarios=%d", rep.Enumerated, len(rep.Scenarios))
	}
	sr := rep.Scenarios[0]
	if sr.Generated != 1 || sr.RejectedDuplicates != 1 || sr.RejectedSpectrum != 1 || sr.RejectedRounding != 1 {
		t.Errorf("ticket tallies wrong: %+v", sr)
	}
	if !sr.HasWinner || sr.WinningTicket != 2 || sr.RestoredFraction != 0.6 {
		t.Errorf("winner join wrong: %+v", sr)
	}
	if rep.UnmetGbps != 50 || rep.UnmetFraction != 0.05 {
		t.Errorf("unmet demand wrong: %+v", rep)
	}
	if !rep.Certificates.AllPassing || rep.Certificates.Certified != 1 {
		t.Errorf("cert summary wrong: %+v", rep.Certificates)
	}
	if rep.Restoration.Count != 1 || rep.Restoration.P50 != 0.6 {
		t.Errorf("restoration summary wrong: %+v", rep.Restoration)
	}

	var md bytes.Buffer
	renderMarkdown(&md, rep)
	for _, want := range []string{"#2", "60.0%", "arrow-phase2", "PASS", "{f3,f9}"} {
		if !strings.Contains(md.String(), want) {
			t.Errorf("markdown missing %q", want)
		}
	}
}

// writeSnapshot writes a minimal metrics snapshot with the given counters
// and gauges.
func writeSnapshot(t *testing.T, path string, counters map[string]int64, gauges map[string]float64) {
	t.Helper()
	data, err := json.Marshal(&obs.Snapshot{SchemaVersion: obs.SchemaVersion, Counters: counters, Gauges: gauges})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDiffDetectsPerturbedSnapshot is the acceptance gate: a synthetically
// perturbed snapshot must make -diff exit nonzero.
func TestDiffDetectsPerturbedSnapshot(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	writeSnapshot(t, oldPath, map[string]int64{"ticket.infeasible": 100, "lp.pivots": 1000}, nil)
	writeSnapshot(t, newPath, map[string]int64{"ticket.infeasible": 150, "lp.pivots": 1000}, nil)

	var out, errb bytes.Buffer
	code := run([]string{"-diff", oldPath, newPath}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code %d, want 1; out:\n%s\nerr:\n%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "ticket.infeasible") {
		t.Errorf("diff output does not name the regressed counter:\n%s", out.String())
	}

	// The identical snapshot must pass.
	out.Reset()
	if code := run([]string{"-diff", oldPath, oldPath}, &out, &errb); code != 0 {
		t.Errorf("identical snapshots exit %d:\n%s", code, out.String())
	}

	// A per-key override can loosen the gate.
	out.Reset()
	if code := run([]string{"-diff", "-key-threshold", "ticket.infeasible=0.6", oldPath, newPath}, &out, &errb); code != 0 {
		t.Errorf("override did not loosen the gate: exit %d:\n%s", code, out.String())
	}

	// ...and tighten it.
	out.Reset()
	writeSnapshot(t, newPath, map[string]int64{"ticket.infeasible": 110, "lp.pivots": 1000}, nil)
	if code := run([]string{"-diff", "-key-threshold", "ticket.infeasible=0.05", oldPath, newPath}, &out, &errb); code != 1 {
		t.Errorf("tightened gate did not fire: exit %d:\n%s", code, out.String())
	}
}

// TestDiffTimingCountersExcluded pins that wall-clock accumulators never
// gate: they are schedule-dependent noise.
func TestDiffTimingCountersExcluded(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	writeSnapshot(t, oldPath, map[string]int64{"par.busy_ns": 1000, "par.idle_ns": 10}, nil)
	writeSnapshot(t, newPath, map[string]int64{"par.busy_ns": 99000, "par.idle_ns": 99000}, nil)
	var out, errb bytes.Buffer
	if code := run([]string{"-diff", oldPath, newPath}, &out, &errb); code != 0 {
		t.Errorf("timing counters gated the diff: exit %d:\n%s", code, out.String())
	}
}

// TestDiffRequireDrop pins the inverted gate: -require-drop keys must
// shrink by at least the fraction, and a counter that vanished from the
// new snapshot is a regression, not a pass.
func TestDiffRequireDrop(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	writeSnapshot(t, oldPath, map[string]int64{"lp.phase1_pivots": 800, "lp.pivots": 1000}, nil)

	// A sufficient drop (800 -> 10, far beyond 40%) passes.
	writeSnapshot(t, newPath, map[string]int64{"lp.phase1_pivots": 10, "lp.pivots": 1000}, nil)
	var out, errb bytes.Buffer
	if code := run([]string{"-diff", "-require-drop", "lp.phase1_pivots=0.4", oldPath, newPath}, &out, &errb); code != 0 {
		t.Errorf("sufficient drop gated: exit %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "required drop 40% met") {
		t.Errorf("diff output does not confirm the drop:\n%s", out.String())
	}

	// An insufficient drop (800 -> 700, only 12.5%) regresses.
	writeSnapshot(t, newPath, map[string]int64{"lp.phase1_pivots": 700, "lp.pivots": 1000}, nil)
	out.Reset()
	if code := run([]string{"-diff", "-require-drop", "lp.phase1_pivots=0.4", oldPath, newPath}, &out, &errb); code != 1 {
		t.Errorf("insufficient drop did not gate: exit %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "lp.phase1_pivots") {
		t.Errorf("diff output does not name the failed drop:\n%s", out.String())
	}

	// A counter missing from the new snapshot is a regression.
	writeSnapshot(t, newPath, map[string]int64{"lp.pivots": 1000}, nil)
	out.Reset()
	if code := run([]string{"-diff", "-require-drop", "lp.phase1_pivots=0.4", oldPath, newPath}, &out, &errb); code != 1 {
		t.Errorf("missing counter did not gate: exit %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "missing from new snapshot") {
		t.Errorf("diff output does not flag the missing counter:\n%s", out.String())
	}

	// Malformed -require-drop is a usage error.
	if code := run([]string{"-diff", "-require-drop", "garbage", oldPath, newPath}, &out, &errb); code != 2 {
		t.Errorf("bad require-drop exit %d, want 2", code)
	}
}

// TestDiffBenchTimingGaugesExcluded pins satellite honesty for gauges: the
// bench.*_seconds family is wall-clock on whatever host took the snapshot,
// so it is reported but never gated by default — while a grown non-timing
// gauge still regresses, and a per-key override opts a timing gauge back in.
func TestDiffBenchTimingGaugesExcluded(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	writeSnapshot(t, oldPath, map[string]int64{"lp.pivots": 100},
		map[string]float64{"bench.stage_total_seconds": 0.5, "eval.unmet_gbps": 10})
	writeSnapshot(t, newPath, map[string]int64{"lp.pivots": 100},
		map[string]float64{"bench.stage_total_seconds": 50, "eval.unmet_gbps": 10})

	// A 100x-grown timing gauge does not gate by default.
	var out, errb bytes.Buffer
	if code := run([]string{"-diff", oldPath, newPath}, &out, &errb); code != 0 {
		t.Errorf("timing gauge gated the diff: exit %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "machine-dependent timing, not gated") {
		t.Errorf("diff output does not flag the exclusion:\n%s", out.String())
	}

	// A grown non-timing gauge does gate.
	writeSnapshot(t, newPath, map[string]int64{"lp.pivots": 100},
		map[string]float64{"bench.stage_total_seconds": 0.5, "eval.unmet_gbps": 25})
	out.Reset()
	if code := run([]string{"-diff", oldPath, newPath}, &out, &errb); code != 1 {
		t.Errorf("grown non-timing gauge did not gate: exit %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "eval.unmet_gbps") {
		t.Errorf("diff output does not name the regressed gauge:\n%s", out.String())
	}

	// A per-key override re-enables gating on a timing gauge explicitly.
	writeSnapshot(t, newPath, map[string]int64{"lp.pivots": 100},
		map[string]float64{"bench.stage_total_seconds": 50, "eval.unmet_gbps": 10})
	out.Reset()
	if code := run([]string{"-diff", "-key-threshold", "bench.stage_total_seconds=0.5",
		oldPath, newPath}, &out, &errb); code != 1 {
		t.Errorf("override did not re-enable the timing gauge gate: exit %d:\n%s", code, out.String())
	}
}

// TestDiffAttrIdentityAbsoluteGate pins the attribution-soundness gate: any
// nonzero attr.identity_violations in the new snapshot regresses regardless
// of growth thresholds.
func TestDiffAttrIdentityAbsoluteGate(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	writeSnapshot(t, oldPath, map[string]int64{"attr.identity_violations": 0}, nil)
	writeSnapshot(t, newPath, map[string]int64{"attr.identity_violations": 2}, nil)
	var out, errb bytes.Buffer
	if code := run([]string{"-diff", "-threshold", "1e9", oldPath, newPath}, &out, &errb); code != 1 {
		t.Errorf("identity violation did not gate: exit %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "attr.identity_violations") {
		t.Errorf("diff output does not name the gate:\n%s", out.String())
	}
}

// TestDiffCertFailuresAbsoluteGate pins the solver-soundness gate: any
// nonzero lp.cert_failures in the new snapshot regresses, even from zero
// baseline growth allowance tricks.
func TestDiffCertFailuresAbsoluteGate(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	writeSnapshot(t, oldPath, map[string]int64{"lp.cert_failures": 0}, nil)
	writeSnapshot(t, newPath, map[string]int64{"lp.cert_failures": 1}, nil)
	var out, errb bytes.Buffer
	if code := run([]string{"-diff", "-threshold", "1e9", oldPath, newPath}, &out, &errb); code != 1 {
		t.Errorf("cert failure did not gate: exit %d:\n%s", code, out.String())
	}
}

// TestRunReportNamesEveryWinner is the end-to-end acceptance criterion:
// arrow-report -run on the default pipeline must name the winning ticket
// and restored-capacity fraction for every relevant scenario, and every LP
// solve must carry a sub-tolerance certificate.
func TestRunReportNamesEveryWinner(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full recorded pipeline")
	}
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "report.json")
	ledgerPath := filepath.Join(dir, "ledger.json")
	var out, errb bytes.Buffer
	code := run([]string{"-run", "-parallelism", "2", "-out", filepath.Join(dir, "report.md"),
		"-json", jsonPath, "-ledger-json", ledgerPath}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, errb.String())
	}

	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep RunReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Scenarios) == 0 {
		t.Fatal("report has no scenarios")
	}
	for _, sr := range rep.Scenarios {
		if !sr.HasWinner {
			t.Errorf("scenario %d has no winning ticket", sr.Scenario)
		}
		if sr.RestoredFraction < 0 || sr.RestoredFraction > 1 {
			t.Errorf("scenario %d restored fraction %g out of range", sr.Scenario, sr.RestoredFraction)
		}
	}
	if !rep.Certificates.AllPassing || rep.Certificates.Certified == 0 {
		t.Errorf("certificates not all passing: %+v", rep.Certificates)
	}
	if rep.Certificates.MaxGap >= lp.DefaultCertTol {
		t.Errorf("max duality gap %g exceeds %g", rep.Certificates.MaxGap, lp.DefaultCertTol)
	}
	if rep.Metrics == nil || rep.Metrics.Counters["lp.certificates"] == 0 {
		t.Error("report metrics missing lp.certificates")
	}

	// The written ledger must round-trip through the -ledger render mode.
	out.Reset()
	if code := run([]string{"-ledger", ledgerPath}, &out, &errb); code != 0 {
		t.Fatalf("-ledger render exit %d:\n%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "## Ticket win/loss per scenario") {
		t.Error("-ledger render missing the win/loss table")
	}
}

// TestRunUsageErrors pins the exit codes of bad invocations.
func TestRunUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Errorf("no-op invocation exit %d, want 2", code)
	}
	if code := run([]string{"-diff", "only-one.json"}, &out, &errb); code != 2 {
		t.Errorf("-diff with one arg exit %d, want 2", code)
	}
	if code := run([]string{"-ledger", filepath.Join(t.TempDir(), "missing.json")}, &out, &errb); code != 2 {
		t.Errorf("missing ledger exit %d, want 2", code)
	}
	if code := run([]string{"-diff", "-key-threshold", "garbage", "a.json", "b.json"}, &out, &errb); code != 2 {
		t.Errorf("bad key-threshold exit %d, want 2", code)
	}
}

// TestRunPerformanceAttribution is the observatory's acceptance gate: the
// Performance table of a recorded run must name the required top-level
// stages and be internally consistent (its percent column adds up to the
// reported coverage), and the markdown must render the table. It asserts
// structure only: how much of
// a ~0.06 s run falls inside a stage is wall-clock share, which moves with the
// scheduler and with every solver speed-up, and is gated by the benchmark
// tooling instead (ROADMAP item 1).
func TestRunPerformanceAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full recorded pipeline")
	}
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "report.json")
	mdPath := filepath.Join(dir, "report.md")
	var out, errb bytes.Buffer
	code := run([]string{"-run", "-parallelism", "2", "-out", mdPath,
		"-json", jsonPath}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, errb.String())
	}

	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep RunReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	p := rep.Performance
	if p == nil {
		t.Fatal("report has no Performance section")
	}
	if p.TotalSeconds <= 0 {
		t.Fatalf("total %v", p.TotalSeconds)
	}
	if p.Coverage <= 0 || p.Coverage > 1 {
		t.Errorf("stage coverage %v, want in (0, 1]; stages: %+v", p.Coverage, p.Stages)
	}
	stages := map[string]StageRow{}
	var pctSum float64
	for _, st := range p.Stages {
		stages[st.Name] = st
		pctSum += st.Percent
	}
	for _, name := range []string{"pipeline.offline", "te.phase1", "testbed.emulate", "sim.replay"} {
		if stages[name].Count == 0 {
			t.Errorf("stage %q missing from the table", name)
		}
	}
	if math.Abs(pctSum-100*p.Coverage) > 0.5 {
		t.Errorf("percent column sums to %.2f, want 100*coverage = %.2f", pctSum, 100*p.Coverage)
	}

	md, err := os.ReadFile(mdPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"## Performance", "% of total", "pipeline.offline"} {
		if !strings.Contains(string(md), want) {
			t.Errorf("markdown missing %q", want)
		}
	}
}
