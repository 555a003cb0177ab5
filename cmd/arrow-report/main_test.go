package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/lp"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/session"
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

	rep := buildReport(&session.Bundle{Ledger: l.Snapshot()})
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

// writeBundle writes a run bundle with the given counters and returns its
// path.
func writeBundle(t *testing.T, dir, name string, counters map[string]int64) string {
	t.Helper()
	data, err := json.Marshal(&session.Bundle{
		SchemaVersion: session.SchemaVersion,
		Metrics:       &obs.Snapshot{SchemaVersion: obs.SchemaVersion, Counters: counters},
	})
	if err != nil {
		t.Fatal(err)
	}
	return writeFile(t, dir, name, string(data))
}

func writeFile(t *testing.T, dir, name, body string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// foreignFiles are the files arrow-report refuses with exit 2, by -diff and
// by the render path alike: none is a run bundle this build can read.
func foreignFiles(t *testing.T, dir string) []struct{ name, path string } {
	counters := `{"schema_version":1,"counters":{"lp.pivots":1000}}`
	return []struct{ name, path string }{
		{"ledger file", writeFile(t, dir, "ledger.json", `{"schema_version":1,"events":[{"seq":1,"kind":"winner","scenario":0,"ticket":2}]}`)},
		{"metrics snapshot", writeFile(t, dir, "metrics.json", counters)},
		{"malformed file", writeFile(t, dir, "bad.json", "{not json")},
		{"newer bundle schema", writeFile(t, dir, "newer.json", fmt.Sprintf(`{"schema_version":%d,"metrics":%s}`, session.SchemaVersion+1, counters))},
		{"newer ledger schema", writeFile(t, dir, "newer_ledger.json", fmt.Sprintf(`{"schema_version":%d,"metrics":%s,"ledger":{"schema_version":%d,"events":[]}}`,
			session.SchemaVersion, counters, ledger.SchemaVersion+1))},
	}
}

// TestDiffDetectsPerturbedSnapshot pins -diff's contract: it names every
// counter that moved and exits 1, exits 0 on equal bundles, and refuses
// anything that is not a run bundle this build can read with exit 2.
func TestDiffDetectsPerturbedSnapshot(t *testing.T) {
	dir := t.TempDir()
	base := map[string]int64{"lp.pivots": 1000, "ticket.infeasible": 100}
	old := writeBundle(t, dir, "old.json", base)
	type diffCase struct {
		name, new string
		code      int
		want      string
	}
	cases := []diffCase{
		{"equal snapshots", writeBundle(t, dir, "equal.json", base), 0, "0 of 2 counters differ"},
		{"one counter moved", writeBundle(t, dir, "moved.json", map[string]int64{
			"lp.pivots": 1000, "ticket.infeasible": 101}), 1, "ticket.infeasible"},
	}
	for _, f := range foreignFiles(t, dir) {
		cases = append(cases, diffCase{f.name, f.path, 2, ""})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run([]string{"-diff", old, tc.new}, &out, &errb); code != tc.code {
				t.Fatalf("exit %d, want %d; out:\n%s\nerr:\n%s", code, tc.code, out.String(), errb.String())
			}
			if !strings.Contains(out.String(), tc.want) {
				t.Errorf("output does not contain %q:\n%s", tc.want, out.String())
			}
		})
	}
}

// TestRenderRejectsForeignFiles is the render path's half of the same
// contract: arrow-report FILE exits 2 on anything that is not a run bundle
// this build can read.
func TestRenderRejectsForeignFiles(t *testing.T) {
	for _, f := range foreignFiles(t, t.TempDir()) {
		t.Run(f.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run([]string{f.path}, &out, &errb); code != 2 {
				t.Fatalf("exit %d, want 2; err:\n%s", code, errb.String())
			}
		})
	}
}

// TestDiffTimingCountersExcluded pins that the wall-clock par.* counters
// never count as a difference: they are schedule-dependent noise.
func TestDiffTimingCountersExcluded(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeBundle(t, dir, "old.json", map[string]int64{"lp.pivots": 1000, "par.busy_ns": 1000, "par.idle_ns": 10})
	newPath := writeBundle(t, dir, "new.json", map[string]int64{"lp.pivots": 1000, "par.busy_ns": 99000, "par.idle_ns": 99000})
	var out, errb bytes.Buffer
	if code := run([]string{"-diff", oldPath, newPath}, &out, &errb); code != 0 {
		t.Errorf("timing counters gated the diff: exit %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "0 of 3 counters differ") {
		t.Errorf("timing counters reported as differing:\n%s", out.String())
	}
}

// TestRunReportNamesEveryWinner is the end-to-end acceptance criterion:
// arrow-report -run on the default pipeline must name the winning ticket
// and restored-capacity fraction for every relevant scenario, and every LP
// solve must carry a sub-tolerance certificate. The run's bundle renders
// to the same bytes as the run itself, Performance and Attribution
// sections included.
func TestRunReportNamesEveryWinner(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full recorded pipeline")
	}
	dir := t.TempDir()
	bundlePath := filepath.Join(dir, "run.json")
	runMD, savedMD := filepath.Join(dir, "run.md"), filepath.Join(dir, "saved.md")
	var out, errb bytes.Buffer
	code := run([]string{"-run", "-parallelism", "2", "-attr", "-out", runMD, "-run-out", bundlePath}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, errb.String())
	}

	b, err := session.ReadFile(bundlePath)
	if err != nil {
		t.Fatal(err)
	}
	rep := buildReport(b)
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
	if b.Attribution == nil || b.Attribution.IdentityViolations != 0 {
		t.Errorf("bundle attribution %+v, want a report with an exact identity", b.Attribution)
	}

	if code := run([]string{bundlePath, "-out", savedMD}, &out, &errb); code != 0 {
		t.Fatalf("render exit %d:\n%s", code, errb.String())
	}
	fromRun, err := os.ReadFile(runMD)
	if err != nil {
		t.Fatal(err)
	}
	fromBundle, err := os.ReadFile(savedMD)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromRun, fromBundle) {
		t.Errorf("the saved bundle renders differently from its run:\n--- run\n%s\n--- bundle\n%s", fromRun, fromBundle)
	}
	for _, want := range []string{"## Ticket win/loss per scenario", "## Performance", "## Availability attribution"} {
		if !bytes.Contains(fromBundle, []byte(want)) {
			t.Errorf("rendered bundle missing %q", want)
		}
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
	if code := run([]string{filepath.Join(t.TempDir(), "missing.json")}, &out, &errb); code != 2 {
		t.Errorf("missing bundle exit %d, want 2", code)
	}
	if code := run([]string{"-run", "run.json"}, &out, &errb); code != 2 {
		t.Errorf("-run with a bundle exit %d, want 2", code)
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
	bundlePath := filepath.Join(dir, "run.json")
	mdPath := filepath.Join(dir, "report.md")
	var out, errb bytes.Buffer
	code := run([]string{"-run", "-parallelism", "2", "-out", mdPath,
		"-run-out", bundlePath}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, errb.String())
	}

	b, err := session.ReadFile(bundlePath)
	if err != nil {
		t.Fatal(err)
	}
	p := buildReport(b).Performance
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
