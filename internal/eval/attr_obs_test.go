package eval

import (
	"context"
	"reflect"
	"testing"

	"github.com/arrow-te/arrow/internal/attr"
	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/plan"
)

// TestRunRecordedAttrIdentityAndDeterminism is the acceptance test for the
// availability-attribution observatory on the standard seed configuration:
//
//   - the loss decomposition is an identity (gap <= 1e-9, zero violations),
//   - the attributed legs, probed every 32 pivots as arrow-report -run
//     -health-every 32 -attr runs, report probes, no solver anomaly and no
//     failed certificate,
//   - every harvested shadow price agrees with its finite-difference warm
//     re-solve bracket within 1e-6,
//   - pipeline results are byte-identical with attribution on or off at
//     Parallelism 1, 4 and 8, and the attribution report itself is
//     identical at every worker count.
func TestRunRecordedAttrIdentityAndDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several full recorded pipelines")
	}

	// Baseline: attribution off, sequential.
	basePl, baseAl, baseRep, err := RunRecorded(withSettings(context.Background(), 0, 1), 1, plan.Space{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if baseRep != nil {
		t.Fatal("attribution off returned a report")
	}
	if baseAl.Sens != nil {
		t.Fatal("attribution off captured a sensitivity handle")
	}
	want := pipelineFingerprint(basePl)

	var reports []*attr.Report
	for _, workers := range []int{1, 4, 8} {
		reg := obs.NewRegistry()
		led := ledger.New()
		pl, al, rep, err := RunRecorded(withSettings(withSinks(reg, led, nil), 32, workers), 1, plan.Space{}, true)
		if err != nil {
			t.Fatal(err)
		}
		if got := pipelineFingerprint(pl); got != want {
			t.Errorf("workers=%d: pipeline differs with attribution on", workers)
		}
		if !reflect.DeepEqual(al.B, baseAl.B) || !reflect.DeepEqual(al.A, baseAl.A) ||
			!reflect.DeepEqual(al.WinningTicket, baseAl.WinningTicket) {
			t.Errorf("workers=%d: allocation differs with attribution on", workers)
		}
		if rep == nil {
			t.Fatalf("workers=%d: attribution on returned no report", workers)
		}
		if rep.IdentityGap > attr.IdentityTol {
			t.Errorf("workers=%d: identity gap %g exceeds %g", workers, rep.IdentityGap, attr.IdentityTol)
		}
		if rep.IdentityViolations != 0 {
			t.Errorf("workers=%d: %d identity violations", workers, rep.IdentityViolations)
		}
		if len(rep.Sensitivities) == 0 {
			t.Errorf("workers=%d: no sensitivities harvested", workers)
		}
		for _, s := range rep.Sensitivities {
			if s.Dual < s.FDLow-1e-6 || s.Dual > s.FDHigh+1e-6 {
				t.Errorf("workers=%d: row %s dual %g outside FD bracket [%g, %g]",
					workers, s.Row, s.Dual, s.FDLow, s.FDHigh)
			}
		}
		if len(rep.Probes) == 0 {
			t.Errorf("workers=%d: no what-if probes evaluated", workers)
		}

		snap := reg.Snapshot()
		if snap.Counters["attr.runs"] != 1 {
			t.Errorf("workers=%d: attr.runs = %d", workers, snap.Counters["attr.runs"])
		}
		if snap.Counters["attr.identity_violations"] != 0 {
			t.Errorf("workers=%d: attr.identity_violations = %d", workers, snap.Counters["attr.identity_violations"])
		}
		if snap.Counters["lp.health.probes"] == 0 {
			t.Errorf("workers=%d: lp.health.probes = 0 at HealthEvery 32", workers)
		}
		if v := snap.Counters["lp.health.anomalies"]; v != 0 {
			t.Errorf("workers=%d: lp.health.anomalies = %d", workers, v)
		}
		if v := snap.Counters["lp.cert_failures"]; v != 0 {
			t.Errorf("workers=%d: lp.cert_failures = %d", workers, v)
		}
		if snap.Counters["attr.fd_mismatches"] != 0 {
			t.Errorf("workers=%d: attr.fd_mismatches = %d", workers, snap.Counters["attr.fd_mismatches"])
		}
		if snap.Counters["attr.fd_checks"] == 0 || snap.Counters["attr.probes"] == 0 {
			t.Errorf("workers=%d: fd_checks=%d probes=%d", workers,
				snap.Counters["attr.fd_checks"], snap.Counters["attr.probes"])
		}

		// The attribution event stream is emitted sequentially after the
		// solve, so even its ORDER is identical across worker counts.
		var attrEvents []ledger.Event
		for _, ev := range led.Events() {
			switch ev.Kind {
			case ledger.KindAttribution, ledger.KindSensitivity, ledger.KindWhatIf:
				ev.Seq = 0
				attrEvents = append(attrEvents, ev)
			}
		}
		if len(attrEvents) == 0 {
			t.Errorf("workers=%d: no attribution ledger events", workers)
		}
		reports = append(reports, rep)
		if workers == 1 {
			t.Logf("availability %.6f, loss %.3e, gap %.3e, %d sensitivities, %d probes",
				rep.Availability, rep.Loss, rep.IdentityGap, len(rep.Sensitivities), len(rep.Probes))
		}
	}
	for i := 1; i < len(reports); i++ {
		if !reflect.DeepEqual(reports[0], reports[i]) {
			t.Errorf("attribution report differs between worker counts 1 and %d", []int{1, 4, 8}[i])
		}
	}
}
