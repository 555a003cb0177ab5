package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/lp"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/session"
)

// renderEvents renders a bundle of the given metrics and ledger events.
func renderEvents(metrics *obs.Snapshot, events ...ledger.Event) string {
	l := ledger.New()
	for _, ev := range events {
		l.Emit(ev)
	}
	var md bytes.Buffer
	renderMarkdown(&md, newReport(&session.Bundle{Metrics: metrics, Ledger: l.Snapshot()}))
	return md.String()
}

// wantLines fails t for each line of want that md lacks.
func wantLines(t *testing.T, md string, want ...string) {
	t.Helper()
	for _, w := range want {
		if !strings.Contains(md, w) {
			t.Errorf("markdown missing %q:\n%s", w, md)
		}
	}
}

// TestBuildReportJoins checks the enum->pipeline-index join: ticket events
// tagged with enumerated indices must land in the right scenario rows.
func TestBuildReportJoins(t *testing.T) {
	md := renderEvents(nil,
		ledger.Event{Kind: ledger.KindEnumerated, Scenario: -1, Count: 5},
		// Pipeline scenario 0 came from enumerated index 2 (0 and 1 were
		// irrelevant cuts).
		ledger.Event{Kind: ledger.KindScenario, Scenario: 0, Enum: 2, Prob: 0.1, Links: []int{4, 7}, Cut: []int{9, 3}, Count: 3},
		ledger.Event{Kind: ledger.KindTicketGenerated, Scenario: 2, Ticket: 0, Gbps: 100},
		ledger.Event{Kind: ledger.KindTicketRejected, Scenario: 2, Ticket: 1, Reason: ledger.RejectDuplicate},
		ledger.Event{Kind: ledger.KindTicketRejected, Scenario: 2, Ticket: 2, Reason: ledger.RejectSpectrumClash},
		ledger.Event{Kind: ledger.KindTicketRejected, Scenario: 2, Ticket: 3, Reason: ledger.RejectRounding},
		// Ticket events for an enumerated scenario that was never kept must be
		// dropped, not crash.
		ledger.Event{Kind: ledger.KindTicketGenerated, Scenario: 4, Ticket: 0},
		ledger.Event{Kind: ledger.KindSolveEnd, Scenario: -1, Solver: "arrow-phase2", Status: "optimal",
			Cert: &lp.Certificate{Primal: 9, Dual: 9}},
		ledger.Event{Kind: ledger.KindWinner, Scenario: 0, Ticket: 2, Gbps: 300, Fraction: 0.6},
		ledger.Event{Kind: ledger.KindUnmetDemand, Scenario: -1, Gbps: 50, Fraction: 0.05},
	)
	wantLines(t, md,
		"Scenarios: 5 enumerated, 1 relevant (kept).",
		// generated 1, one rejection of each reason, ticket #2 won.
		"| 0 | 2 | 1.00e-01 | {f3,f9} | 4 7 | 3 | 1 | 1 | 1 | 1 | #2 | 300.0 | 60.0% |",
		"Residual unmet demand: 50.0 Gbps (5.00% of total).",
		"1 solves, 1 certified, 0 failures → **PASS**",
		"| arrow-phase2 | optimal | 9 | 9 | 0.00e+00 | ok |",
		"Restored-capacity fraction over 1 scenarios: min 0.600, p25 0.600, median 0.600",
	)
	// -run exits 1 on this count: the synthetic bundle's failing
	// certificate counts, its uncertified solve does not.
	if n := certFailures(newReport(syntheticBundle())); n != 1 {
		t.Errorf("certFailures = %d, want 1", n)
	}
}

// TestNoPlanNoPlanSections pins that a bundle without a plan, such as a
// testbed run's, renders no scenario header, win/loss table, restoration
// summary or certificate verdict: there is nothing they could describe.
func TestNoPlanNoPlanSections(t *testing.T) {
	md := renderEvents(nil,
		ledger.Event{Kind: ledger.KindEmuStage, Scenario: -1, Mode: "legacy", Stage: "detect", DurSec: 1},
		ledger.Event{Kind: ledger.KindEmuEpisode, Scenario: -1, Mode: "legacy", DurSec: 1, Gbps: 100},
	)
	wantLines(t, md, "## Restoration latency")
	for _, bad := range []string{"Scenarios: 0 enumerated", "## Ticket win/loss", "over 0 scenarios",
		"Residual unmet demand", "## Solver certificates", "→ **PASS**"} {
		if strings.Contains(md, bad) {
			t.Errorf("plan-less markdown contains %q:\n%s", bad, md)
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
	if b.Metrics.Counters["lp.certificates"] == 0 {
		t.Error("bundle metrics missing lp.certificates")
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
	md := string(fromBundle)
	wantLines(t, md, "## Performance", "## Availability attribution")

	rows := tableRows(t, md, "## Ticket win/loss per scenario")
	if len(rows) == 0 {
		t.Fatal("report has no scenarios")
	}
	for _, row := range rows {
		if row[10] == "-" {
			t.Errorf("scenario %s has no winning ticket", row[0])
		}
		if pct, err := strconv.ParseFloat(strings.TrimSuffix(row[12], "%"), 64); err != nil || pct < 0 || pct > 100 {
			t.Errorf("scenario %s restored fraction %q out of range", row[0], row[12])
		}
	}
	m := regexp.MustCompile(`(\d+) certified, 0 failures → \*\*PASS\*\*\. Max duality gap (\S+),`).FindStringSubmatch(md)
	if m == nil || m[1] == "0" {
		t.Fatalf("certificates not all passing:\n%s", md)
	}
	if gap, err := strconv.ParseFloat(m[2], 64); err != nil || gap >= lp.DefaultCertTol {
		t.Errorf("max duality gap %s exceeds %g", m[2], lp.DefaultCertTol)
	}
}

// tableRows returns the cells of the data rows of the first table after
// heading in md.
func tableRows(t *testing.T, md, heading string) [][]string {
	t.Helper()
	_, section, ok := strings.Cut(md, heading+"\n")
	if !ok {
		t.Fatalf("markdown has no %q", heading)
	}
	var rows [][]string
	lines := 0
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			if lines > 0 {
				break
			}
			continue
		}
		if lines++; lines <= 2 {
			continue // the header and its rule
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		rows = append(rows, cells)
	}
	return rows
}

// TestRunReportIndependentOfWorkers pins the report's determinism end to
// end: -run at one and at four workers renders the same bytes once the
// wall-clock parts of the bundle (the stage profile and the par.busy_ns /
// par.idle_ns counters) are dropped.
func TestRunReportIndependentOfWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full recorded pipeline twice")
	}
	dir := t.TempDir()
	var reports []string
	for _, workers := range []string{"1", "4"} {
		path := filepath.Join(dir, "run"+workers+".json")
		var out, errb bytes.Buffer
		if code := run([]string{"-run", "-attr", "-health-every", "32", "-parallelism", workers, "-run-out", path}, &out, &errb); code != 0 {
			t.Fatalf("-parallelism %s: exit %d:\n%s", workers, code, errb.String())
		}
		b, err := session.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b.Stages = nil
		delete(b.Metrics.Counters, "par.busy_ns")
		delete(b.Metrics.Counters, "par.idle_ns")
		var md bytes.Buffer
		renderMarkdown(&md, newReport(b))
		reports = append(reports, md.String())
	}
	one, four := strings.Split(reports[0], "\n"), strings.Split(reports[1], "\n")
	for i := range min(len(one), len(four)) {
		if one[i] != four[i] {
			t.Fatalf("line %d differs:\n 1 worker:  %s\n 4 workers: %s", i+1, one[i], four[i])
		}
	}
	if len(one) != len(four) {
		t.Fatalf("reports have %d and %d lines", len(one), len(four))
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
	sp := b.Stages
	if sp == nil || sp.TotalSeconds <= 0 {
		t.Fatalf("bundle stage profile %+v, want a total bracket", sp)
	}
	if sp.Coverage <= 0 || sp.Coverage > 1 {
		t.Errorf("stage coverage %v, want in (0, 1]; stages: %+v", sp.Coverage, sp.Stages)
	}

	md, err := os.ReadFile(mdPath)
	if err != nil {
		t.Fatal(err)
	}
	wantLines(t, string(md), "## Performance", "% of total", "pipeline.offline")
	calls := map[string]string{}
	var pctSum float64
	top := 0
	for _, row := range tableRows(t, string(md), "## Performance") {
		calls[row[0]] = row[1]
		if pct, err := strconv.ParseFloat(strings.TrimSuffix(row[3], "%"), 64); err == nil {
			pctSum += pct
			top++
		}
	}
	for _, name := range []string{"pipeline.offline", "te.phase1", "testbed.emulate", "sim.replay"} {
		if c := calls[name]; c == "" || c == "0" {
			t.Errorf("stage %q missing from the table", name)
		}
	}
	// Each rendered percentage is rounded to 0.1.
	if math.Abs(pctSum-100*sp.Coverage) > 0.05*float64(top)+0.01 {
		t.Errorf("percent column sums to %.2f, want 100*coverage = %.2f", pctSum, 100*sp.Coverage)
	}
}
