package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/obs"
)

// loadSnapshot reads a -metrics-json obs.Snapshot. Unknown fields are
// ignored so older and newer snapshots stay comparable.
func loadSnapshot(path string) (*obs.Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if snap.Counters == nil {
		return nil, fmt.Errorf("%s: not a metrics snapshot (no counters)", path)
	}
	return &snap, nil
}

// timingCounters accumulate wall-clock, not work: schedule-dependent, never
// diffed.
var timingCounters = map[string]bool{
	"par.busy_ns": true,
	"par.idle_ns": true,
}

// machineDependentGauge reports gauges excluded from the -diff gate by
// default: the bench.*_seconds family measures wall-clock on whatever
// machine took the snapshot, so comparing it across hosts gates on
// hardware, not code.
func machineDependentGauge(key string) bool {
	return strings.HasPrefix(key, "bench.") && strings.HasSuffix(key, "_seconds")
}

// gaugeFinding is one compared gauge.
type gaugeFinding struct {
	Key        string
	Old, New   float64
	Growth     float64 // (new-old)/max(|old|,1)
	Threshold  float64
	Regression bool
	Excluded   bool // machine-dependent timing gauge, reported but never gated
}

// diffGauges compares the gauges present in BOTH snapshots with the same
// growth semantics as diffCounters. Machine-dependent timing gauges
// (bench.*_seconds) are excluded from gating by default; a per-key
// threshold override re-enables them explicitly.
func diffGauges(oldG, newG map[string]float64, opts diffOptions) []gaugeFinding {
	keys := make([]string, 0, len(newG))
	for k := range newG {
		if _, ok := oldG[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var out []gaugeFinding
	for _, k := range keys {
		o, n := oldG[k], newG[k]
		thr, overridden := opts.perKey[k]
		if !overridden {
			thr = opts.threshold
		}
		if thr < 0 {
			continue // exempted
		}
		den := o
		if den < 0 {
			den = -den
		}
		if den < 1 {
			den = 1
		}
		growth := (n - o) / den
		f := gaugeFinding{Key: k, Old: o, New: n, Growth: growth, Threshold: thr}
		if machineDependentGauge(k) && !overridden {
			f.Excluded = true
		} else {
			f.Regression = growth > thr
		}
		out = append(out, f)
	}
	return out
}

// diffOptions tunes the regression gate.
type diffOptions struct {
	// threshold is the default allowed relative growth per counter (0.20 =
	// +20%).
	threshold float64
	// perKey overrides the threshold for specific counters
	// ("ticket.infeasible=0.1"). A negative override exempts the key.
	perKey map[string]float64
	// minLatencyRatio, when > 0, is an absolute gate on the new snapshot's
	// emu.latency_ratio gauge: the legacy/ARROW restoration-latency gap the
	// emulated testbed must preserve (paper: 127x). A missing gauge fails
	// the gate — the run that produced the snapshot skipped the testbed.
	minLatencyRatio float64
	// requireDrop inverts the gate for specific counters: each key must
	// SHRINK to at most old*(1-frac) in the new snapshot
	// ("te.phase1_pivot_work=0.25" requires a 25% drop). CI uses it to
	// assert column generation keeps cutting phase-1 work versus full
	// enumeration. A key missing from the new snapshot is a regression —
	// the run that produced it lost the counter, not the work.
	requireDrop map[string]float64
	// maxAnomalies is the absolute ceiling on the new snapshot's
	// lp.health.anomalies counter (-1 disables the gate). CI runs the
	// standard probed pipeline with the default of 0: any stall, residual
	// drift, warm-fallback or cycling suspicion is a regression.
	maxAnomalies int64
}

// parseKeyThresholds parses "k1=0.1,k2=0.5" into a per-key map.
func parseKeyThresholds(s string) (map[string]float64, error) {
	out := map[string]float64{}
	if strings.TrimSpace(s) == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad threshold %q (want key=fraction)", part)
		}
		v, err := strconv.ParseFloat(kv[1], 64)
		if err != nil {
			return nil, fmt.Errorf("bad threshold %q: %w", part, err)
		}
		out[kv[0]] = v
	}
	return out, nil
}

// diffFinding is one compared counter.
type diffFinding struct {
	Key        string
	Old, New   int64
	Growth     float64 // (new-old)/max(old,1)
	Threshold  float64
	Regression bool
}

// diffCounters compares the deterministic counters of two snapshots. A
// counter regresses when it GROWS by more than its threshold: every gated
// counter measures waste or failure (infeasible tickets, certificate
// failures, pivots, pruned nodes), so shrinking is improvement and only
// growth gates.
func diffCounters(oldC, newC map[string]int64, opts diffOptions) []diffFinding {
	keys := make([]string, 0, len(newC))
	for k := range newC {
		if _, ok := oldC[k]; ok && !timingCounters[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var out []diffFinding
	for _, k := range keys {
		o, n := oldC[k], newC[k]
		thr := opts.threshold
		if v, ok := opts.perKey[k]; ok {
			thr = v
		}
		if thr < 0 {
			continue // exempted
		}
		den := o
		if den < 1 {
			den = 1
		}
		growth := float64(n-o) / float64(den)
		out = append(out, diffFinding{
			Key: k, Old: o, New: n, Growth: growth, Threshold: thr,
			Regression: growth > thr,
		})
	}
	return out
}

// ledgerWinners loads path as a flight-recorder ledger snapshot and
// extracts the per-scenario winning tickets. ok is false when the file is
// not a ledger snapshot (no events) — the caller falls back to the counter
// diff.
func ledgerWinners(path string) (map[int]int, bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, err
	}
	var snap struct {
		Events []struct {
			Kind     string `json:"kind"`
			Scenario int    `json:"scenario"`
			Ticket   int    `json:"ticket"`
		} `json:"events"`
	}
	if err := json.Unmarshal(data, &snap); err != nil || len(snap.Events) == 0 {
		return nil, false, nil
	}
	winners := map[int]int{}
	for _, ev := range snap.Events {
		if ev.Kind == string(ledger.KindWinner) {
			winners[ev.Scenario] = ev.Ticket
		}
	}
	return winners, true, nil
}

// diffWinners compares the winning-ticket allocations of two ledger
// snapshots scenario by scenario. Any difference is a regression: the
// colgen and full-enumeration modes are required to select identical
// winners, and CI runs this gate on every push.
func diffWinners(w io.Writer, oldPath, newPath string, oldW, newW map[int]int) int {
	keys := map[int]bool{}
	for q := range oldW {
		keys[q] = true
	}
	for q := range newW {
		keys[q] = true
	}
	qs := make([]int, 0, len(keys))
	for q := range keys {
		qs = append(qs, q)
	}
	sort.Ints(qs)
	regressions := 0
	fmt.Fprintf(w, "winner diff %s -> %s (%d scenarios):\n", oldPath, newPath, len(qs))
	for _, q := range qs {
		o, okOld := oldW[q]
		n, okNew := newW[q]
		switch {
		case !okOld:
			fmt.Fprintf(w, "✗ scenario %d has a winner only in %s (#%d)\n", q, newPath, n)
			regressions++
		case !okNew:
			fmt.Fprintf(w, "✗ scenario %d has a winner only in %s (#%d)\n", q, oldPath, o)
			regressions++
		case o != n:
			fmt.Fprintf(w, "✗ scenario %d winner differs: #%d -> #%d\n", q, o, n)
			regressions++
		}
	}
	if regressions == 0 {
		fmt.Fprintf(w, "winning tickets identical across %d scenarios\n", len(qs))
	} else {
		fmt.Fprintf(w, "%d winner mismatch(es)\n", regressions)
	}
	return regressions
}

// runDiff compares two snapshot files and writes a report; it returns the
// number of regressions. When both files are flight-recorder ledger
// snapshots the comparison is winner equality; otherwise both must be
// metrics snapshots and the comparison is the counter gate.
func runDiff(w io.Writer, oldPath, newPath string, opts diffOptions) (int, error) {
	oldW, oldIsLedger, err := ledgerWinners(oldPath)
	if err != nil {
		return 0, err
	}
	newW, newIsLedger, err := ledgerWinners(newPath)
	if err != nil {
		return 0, err
	}
	if oldIsLedger != newIsLedger {
		return 0, fmt.Errorf("cannot compare a ledger snapshot with a metrics snapshot (%s vs %s)", oldPath, newPath)
	}
	if oldIsLedger {
		return diffWinners(w, oldPath, newPath, oldW, newW), nil
	}

	oldS, err := loadSnapshot(oldPath)
	if err != nil {
		return 0, err
	}
	newS, err := loadSnapshot(newPath)
	if err != nil {
		return 0, err
	}

	findings := diffCounters(oldS.Counters, newS.Counters, opts)
	regressions := 0
	fmt.Fprintf(w, "counter diff %s -> %s (default threshold +%.0f%%):\n", oldPath, newPath, 100*opts.threshold)
	for _, f := range findings {
		mark := "  "
		if f.Regression {
			mark = "✗ "
			regressions++
		} else if f.Growth != 0 {
			mark = "~ "
		}
		if f.Growth != 0 || f.Regression {
			fmt.Fprintf(w, "%s%-32s %10d -> %10d  (%+.1f%%, limit +%.0f%%)\n",
				mark, f.Key, f.Old, f.New, 100*f.Growth, 100*f.Threshold)
		}
	}

	// Required drops gate the other direction: the named counters must have
	// SHRUNK by at least their fraction. Deterministic pivot counts make
	// this hardware-independent — CI asserts column generation still cuts
	// phase-1 work relative to the full-enumeration run.
	if len(opts.requireDrop) > 0 {
		keys := make([]string, 0, len(opts.requireDrop))
		for k := range opts.requireDrop {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		oldC, newC := oldS.Counters, newS.Counters
		for _, k := range keys {
			frac := opts.requireDrop[k]
			o, okOld := oldC[k]
			n, okNew := newC[k]
			limit := float64(o) * (1 - frac)
			switch {
			case !okOld:
				fmt.Fprintf(w, "✗ %s missing from old snapshot (required to drop %.0f%%)\n", k, 100*frac)
				regressions++
			case !okNew:
				fmt.Fprintf(w, "✗ %s missing from new snapshot (required to drop %.0f%%)\n", k, 100*frac)
				regressions++
			case float64(n) > limit:
				fmt.Fprintf(w, "✗ %-32s %10d -> %10d  (required <= %.0f, drop %.0f%%)\n", k, o, n, limit, 100*frac)
				regressions++
			default:
				fmt.Fprintf(w, "  %-32s %10d -> %10d  (required drop %.0f%% met)\n", k, o, n, 100*frac)
			}
		}
	}

	// Gauges gate with the same growth semantics, except machine-dependent
	// timing gauges (bench.*_seconds), which are reported but never gated —
	// wall-clock across hosts is hardware, not code. A per-key override
	// opts a timing gauge back in.
	for _, f := range diffGauges(oldS.Gauges, newS.Gauges, opts) {
		mark := "  "
		switch {
		case f.Excluded:
			mark = "- "
		case f.Regression:
			mark = "✗ "
			regressions++
		case f.Growth != 0:
			mark = "~ "
		}
		if f.Growth != 0 || f.Regression || f.Excluded {
			suffix := fmt.Sprintf("limit +%.0f%%", 100*f.Threshold)
			if f.Excluded {
				suffix = "machine-dependent timing, not gated"
			}
			fmt.Fprintf(w, "%s%-32s %10.4g -> %10.4g  (%+.1f%%, %s)\n",
				mark, f.Key, f.Old, f.New, 100*f.Growth, suffix)
		}
	}

	// Certificate failures are an absolute gate: any nonzero count in the
	// new snapshot is a solver-soundness regression regardless of growth.
	if n := newS.Counters["lp.cert_failures"]; n > 0 {
		fmt.Fprintf(w, "✗ lp.cert_failures = %d in new snapshot (must be 0)\n", n)
		regressions++
	}

	// So is the attribution decomposition identity: per-scenario and
	// per-flow loss contributions must sum exactly (within 1e-9) to the
	// headline availability loss. Any violation is an attribution-engine
	// bug, never a tuning question.
	if n := newS.Counters["attr.identity_violations"]; n > 0 {
		fmt.Fprintf(w, "✗ attr.identity_violations = %d in new snapshot (must be 0)\n", n)
		regressions++
	}

	// Solver-health anomalies are gated absolutely too (default ceiling 0):
	// the standard probed pipeline is numerically clean, so any detector
	// finding — stall, residual drift, warm-repair fallback, cycling
	// suspicion — is a regression, not a threshold question. -max-anomalies
	// -1 disables the gate for snapshots taken with probing off.
	if opts.maxAnomalies >= 0 {
		if n := newS.Counters["lp.health.anomalies"]; n > opts.maxAnomalies {
			fmt.Fprintf(w, "✗ lp.health.anomalies = %d in new snapshot (max %d)\n", n, opts.maxAnomalies)
			regressions++
		} else {
			fmt.Fprintf(w, "  lp.health.anomalies = %d (max %d)\n", n, opts.maxAnomalies)
		}
	}

	// The restoration-latency ratio is likewise absolute: the emulated
	// testbed must keep legacy amplifier reconfiguration at least
	// minLatencyRatio times slower than noise loading.
	if opts.minLatencyRatio > 0 {
		ratio, ok := newS.Gauges["emu.latency_ratio"]
		switch {
		case !ok:
			fmt.Fprintf(w, "✗ emu.latency_ratio missing from new snapshot (gate requires >= %.0fx)\n", opts.minLatencyRatio)
			regressions++
		case ratio < opts.minLatencyRatio:
			fmt.Fprintf(w, "✗ emu.latency_ratio = %.1fx below the %.0fx gate\n", ratio, opts.minLatencyRatio)
			regressions++
		default:
			fmt.Fprintf(w, "  emu.latency_ratio = %.0fx (gate >= %.0fx)\n", ratio, opts.minLatencyRatio)
		}
	}

	if regressions == 0 {
		fmt.Fprintf(w, "no regressions (%d counters compared)\n", len(findings))
	} else {
		fmt.Fprintf(w, "%d regression(s)\n", regressions)
	}
	return regressions, nil
}
