package main

import (
	"strings"
	"testing"

	"github.com/arrow-te/arrow/internal/ledger"
)

// TestBuildAttributionJoins pins the event-stream join: scenario rows sorted
// by loss descending with their flow splits attached, sensitivities and
// probes carried through, sim_cut events landing in the replay-loss table,
// and a ledger without attribution events omitting the section.
func TestBuildAttributionJoins(t *testing.T) {
	md := renderEvents(nil,
		// Healthy state loses nothing; scenario 1 dominates scenario 0.
		ledger.Event{Kind: ledger.KindAttribution, Scenario: -1, Prob: 0.97, Detail: "scenario"},
		ledger.Event{Kind: ledger.KindAttribution, Scenario: 0, Prob: 0.01, Gbps: 50, Fraction: 0.001, Detail: "scenario"},
		ledger.Event{Kind: ledger.KindAttribution, Scenario: 0, Flow: 1, Gbps: 50, Fraction: 0.001, Detail: "flow"},
		ledger.Event{Kind: ledger.KindAttribution, Scenario: 1, Prob: 0.02, Gbps: 200, Fraction: 0.004, Detail: "scenario"},
		ledger.Event{Kind: ledger.KindAttribution, Scenario: 1, Flow: 0, Gbps: 120, Fraction: 0.0024, Detail: "flow"},
		ledger.Event{Kind: ledger.KindAttribution, Scenario: 1, Flow: 2, Gbps: 80, Fraction: 0.0016, Detail: "flow"},
		ledger.Event{Kind: ledger.KindSensitivity, Scenario: -1, Link: 3, Fiber: -1,
			Value: 0.8, FDLow: 0.79, FDHigh: 0.81, Detail: "cap_e3"},
		ledger.Event{Kind: ledger.KindWhatIf, Scenario: -1, Link: 3, Fiber: 2,
			Gbps: 100, Value: 0.002, Detail: "+1 wave on fiber 2"},
		ledger.Event{Kind: ledger.KindAttribution, Scenario: -1, Mode: "arrow",
			Links: []int{4, 5}, DurSec: 7200, Fraction: 0.01, Detail: "sim_cut"},
	)
	wantLines(t, md,
		"## Availability attribution",
		"Loss decomposition over 3 states (healthy = scenario -1); contributions sum to the headline availability loss 5.000e-03 by identity.",
		"| 1 | - | 2.00e-02 | 200.0 | 4.000e-03 | 0:120.0 2:80.0 |\n"+
			"| 0 | - | 1.00e-02 | 50.0 | 1.000e-03 | 1:50.0 |\n"+
			"| -1 | - | 9.70e-01 | 0.0 | 0.000e+00 | - |\n",
		"### Shadow prices (FD-validated)",
		"| cap_e3 | 3 | -1 | -1 | 0.8 | 0.79 | 0.81 |",
		"### What-if probes",
		"| +1 wave on fiber 2 | 100.0 | 2.000e-03 |",
		"### Replay loss by fiber-cut set",
		"| arrow | {f4,f5} | 2.0 | 1.000e-02 |",
	)

	// A ledger with no attribution events omits the section entirely.
	md = renderEvents(nil, ledger.Event{Kind: ledger.KindWinner, Scenario: 0, Ticket: 1})
	if strings.Contains(md, "Availability attribution") {
		t.Fatalf("unattributed ledger rendered a section:\n%s", md)
	}
}
