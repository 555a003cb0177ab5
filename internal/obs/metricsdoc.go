package obs

import (
	"fmt"
	"slices"
	"strings"
)

// MetricDoc documents one metric of the observability plane.
type MetricDoc struct {
	Name string // metric key, or a <placeholder> pattern for dynamic families
	Kind string // "counter", "gauge" or "histogram"
	Help string
}

// coreCounters is the canonical counter schema, in order: every Registry
// carries these keys from birth (at zero), so a snapshot always answers "how
// many pivots / nodes / rounding attempts" even for code paths the run never
// exercised, and METRICS.md documents each one. Instrumented layers may add
// further keys on top.
var coreCounters = []MetricDoc{
	{"lp.solves", "counter", "LP solves completed (both simplex phases count as one solve)"},
	{"lp.pivots", "counter", "simplex pivots across all solves"},
	{"lp.pivot_work", "counter", "pivots x (nonzeros + rows): a model-size weight per pivot, not a measure of work done"},
	{"lp.repriced_cols", "counter", "columns whose reduced cost was recomputed (each phase's initial full pass included)"},
	{"lp.solve_reach", "counter", "pivot steps visited by the LU triangular passes of FTRAN/BTRAN (rows of the basis for a full-length pass)"},
	{"lp.full_solves", "counter", "LU solves in which a triangular pass ran full length instead of following its reach"},
	{"lp.phase1_pivots", "counter", "pivots spent in simplex phase 1 (feasibility search)"},
	{"lp.refactorizations", "counter", "basis refactorizations (eta-file resets)"},
	{"lp.degenerate_pivots", "counter", "pivots with a zero step length"},
	{"lp.certificates", "counter", "optimality certificates produced and validated"},
	{"lp.cert_failures", "counter", "certificate validations that failed (solver bug tripwire)"},
	{"lp.warm_starts", "counter", "solves that started from a supplied basis"},
	{"lp.warm_accepted", "counter", "warm bases accepted as-is (no repair needed)"},
	{"lp.warm_repairs", "counter", "warm bases repaired before use (singular or stale rows)"},
	{"lp.phase1_skipped", "counter", "solves that skipped simplex phase 1 thanks to a feasible warm basis"},
	{"lp.pivots_saved", "counter", "estimated pivots saved by warm starts vs the cold baseline"},
	{"lp.dual_solves", "counter", "warm solves the dual simplex took to the end: a basis that priced out but broke bounds (a run it gave up on counts only in lp.dual_pivots)"},
	{"lp.dual_pivots", "counter", "dual simplex pivots (lp.pivots counts them too)"},
	{"lp.bound_flips", "counter", "nonbasic columns the dual ratio test moved to their other bound"},
	{"lp.columns_priced", "counter", "columns priced in by the column-generation loop"},
	{"te.pricing_rounds", "counter", "column-generation pricing sweeps across all ARROW Phase I solves"},
	{"te.tickets_deferred", "counter", "ticket blocks left out of the master by lazy pricing"},
	{"te.phase1_pivots", "counter", "simplex pivots attributed to ARROW Phase I masters"},
	{"te.phase1_pivot_work", "counter", "pivot work units attributed to ARROW Phase I masters"},
	{"te.fallback_kept", "counter", "ARROW solves that kept the all-ticket-0 Phase II over Phase I's winners"},
	{"te.chain_restarts", "counter", "TeaVaR warm re-solves along a demand-scale chain that ran out of pivots or failed their certificate and were solved again from the all-slack basis"},
	{"mip.solves", "counter", "branch-and-bound solves completed"},
	{"mip.nodes", "counter", "branch-and-bound nodes explored"},
	{"mip.pruned", "counter", "nodes pruned by bound"},
	{"mip.incumbents", "counter", "incumbent improvements found"},
	{"rwa.solves", "counter", "restoration wavelength-assignment solves"},
	{"rwa.block_solves", "counter", "independent RWA assignment-LP blocks solved"},
	{"rwa.block_hits", "counter", "RWA assignment-LP blocks answered by the plan's block memo instead of solved"},
	{"ticket.rounding_attempts", "counter", "LP-relaxation rounding attempts during ticket generation"},
	{"ticket.generated", "counter", "restoration tickets generated"},
	{"ticket.infeasible", "counter", "candidate tickets rejected as infeasible"},
	{"ticket.duplicates", "counter", "candidate tickets rejected as duplicates"},
	{"par.pools", "counter", "worker pools created"},
	{"par.tasks", "counter", "tasks executed across all pools"},
	{"par.busy_ns", "counter", "cumulative worker busy time (ns)"},
	{"par.idle_ns", "counter", "cumulative worker idle time (ns)"},
	{"pipeline.scenarios_enumerated", "counter", "failure scenarios enumerated by the offline pipeline"},
	{"pipeline.scenarios_relevant", "counter", "enumerated scenarios kept after the relevance cutoff"},
	// Correlated k-failure enumeration + compositional offline stage.
	{"scenario.enumerated", "counter", "cut sets emitted by the correlated k-failure enumerator"},
	{"scenario.pruned", "counter", "failure-lattice nodes pruned by the enumerator's probability bound"},
	{"scenario.warm_from_singles", "counter", "multi-cut scenarios whose ticket pool is seeded from pre-staged single-cut restorations"},
	{"sim.intervals", "counter", "timeline replay intervals evaluated"},
	{"sim.unplanned_intervals", "counter", "intervals spent in failure states with no precomputed plan"},
	{"sim.restoring_intervals", "counter", "intervals spent inside restoration-latency windows"},
	{"emu.episodes", "counter", "emulated restoration episodes run"},
	{"emu.amps_settled", "counter", "amplifiers settled across all episodes"},
	{"emu.amp_loops", "counter", "amplifier settle-loop iterations"},
	{"emu.roadm_reconfigs", "counter", "ROADM reconfigurations performed"},
	{"emu.lightpaths_restored", "counter", "lightpaths restored across all episodes"},
	// Solver-health observatory (lp.Options.HealthEvery probes). The
	// per-reason anomaly keys mirror lp.AnomalyReasons(); a conformance test
	// in internal/lp keeps the two lists aligned.
	{"lp.health.probes", "counter", "solver-health probes taken (lp.Options.HealthEvery)"},
	{"lp.health.anomalies", "counter", "health probes that flagged an anomaly"},
	{"lp.health.anomaly.stall", "counter", "probes flagging objective stall"},
	{"lp.health.anomaly.residual_drift", "counter", "probes flagging primal residual drift"},
	{"lp.health.anomaly.warm_repair_fallback", "counter", "probes flagging a warm-basis repair fallback"},
	{"lp.health.anomaly.cycling_suspect", "counter", "probes flagging suspected cycling"},
	{"mip.unhealthy_nodes", "counter", "branch-and-bound nodes whose LP relaxation probed unhealthy"},
	// Observability plane self-accounting.
	{"obs.late_hist_registrations", "counter", "histogram registrations after first observation (bucket mismatch tripwire)"},
	{"obs.sse.dropped_events", "counter", "SSE events dropped on slow /events clients"},
	// Availability-attribution observatory (internal/attr).
	{"attr.runs", "counter", "availability-attribution passes completed"},
	{"attr.scenarios", "counter", "scenario-level loss contributions decomposed"},
	{"attr.flows", "counter", "flow-level loss contributions decomposed"},
	{"attr.identity_violations", "counter", "decomposition identities off by more than 1e-9 (attribution bug tripwire)"},
	{"attr.sensitivities", "counter", "capacity-row shadow prices harvested from the final phase-II basis"},
	{"attr.fd_checks", "counter", "shadow prices validated against finite-difference warm re-solves"},
	{"attr.fd_mismatches", "counter", "shadow prices outside their finite-difference derivative bracket"},
	{"attr.probes", "counter", "what-if perturbations probed by warm re-solve or analytic evaluation"},
}

// CoreGauges documents the gauge families the instrumented layers publish.
var CoreGauges = []MetricDoc{
	{"emu.latency_ratio", "gauge", "legacy-over-ARROW restoration latency ratio from the paired testbed episodes"},
}

// CoreHistograms documents every histogram the instrumented layers observe.
var CoreHistograms = []MetricDoc{
	{"lp.pivots_per_solve", "histogram", "simplex pivots per solve"},
	{"lp.eta_depth_max", "histogram", "deepest eta file reached per solve"},
	{"lp.rows", "histogram", "constraint rows per solve"},
	{"lp.structural_vars", "histogram", "structural variables per solve"},
	{"lp.duality_gap", "histogram", "certified duality gap per solve"},
	{"lp.primal_inf", "histogram", "certified primal infeasibility per solve"},
	{"lp.dual_inf", "histogram", "certified dual infeasibility per solve"},
	{"lp.health.residual_inf", "histogram", "probed primal residual infinity norm"},
	{"lp.health.degenerate_ratio", "histogram", "probed degenerate-pivot ratio"},
	{"lp.health.eta_depth", "histogram", "probed eta-file depth"},
	{"lp.health.obj_progress", "histogram", "probed objective progress between probes"},
	{"mip.nodes_per_solve", "histogram", "branch-and-bound nodes per solve"},
	{"mip.gap", "histogram", "incumbent-vs-bound gap per solve"},
	{"rwa.relaxation_gap", "histogram", "RWA LP-relaxation rounding gap"},
	{"rwa.failed_links", "histogram", "failed IP links per RWA solve"},
	{"rwa.surrogate_paths", "histogram", "surrogate restoration paths per failed link"},
	{"ticket.yield_per_batch", "histogram", "tickets accepted per generation batch"},
	{"par.queue_wait_seconds", "histogram", "task queue wait before a worker picked it up"},
	{"par.worker_busy_seconds", "histogram", "per-worker cumulative busy time at pool close"},
	{"emu.amp_settle_seconds", "histogram", "per-amplifier settle duration (emulated clock)"},
	{"emu.restore_seconds", "histogram", "end-to-end restoration duration per episode (emulated clock)"},
	{"testbed.restore_seconds", "histogram", "cmd/arrow-testbed episode restoration duration"},
}

// CounterDocs returns the core counter schema, in order.
func CounterDocs() []MetricDoc {
	return slices.Clone(coreCounters)
}

// MetricsDoc renders the full metric-namespace reference (METRICS.md).
// METRICS.md is its golden: `go generate ./...` rewrites the file, and
// TestMetricsMDFresh fails while it is stale.
func MetricsDoc() string {
	var b strings.Builder
	b.WriteString("# Metric namespace\n\n")
	b.WriteString("<!-- Generated by internal/obs.MetricsDoc — do not edit by hand.\n")
	b.WriteString("     Regenerate: go generate ./... -->\n\n")
	b.WriteString("Every metric the observability plane can emit, by kind. Counters are\n")
	b.WriteString("pre-seeded on every registry (schema version ")
	fmt.Fprintf(&b, "%d", SchemaVersion)
	b.WriteString("), so snapshots always\ncarry the full schema at zero; gauges and histograms appear once their\nlayer runs. Exported on `/metrics` as JSON or Prometheus text, sampled\ninto `/timeseries`, summarised in `arrow-report`.\n")

	section := func(title string, docs []MetricDoc) {
		fmt.Fprintf(&b, "\n## %s\n\n", title)
		b.WriteString("| Metric | Help |\n|---|---|\n")
		for _, d := range docs {
			if d.Help == "" {
				continue
			}
			fmt.Fprintf(&b, "| `%s` | %s |\n", d.Name, d.Help)
		}
	}
	section("Counters", CounterDocs())
	section("Gauges", CoreGauges)
	section("Histograms", CoreHistograms)
	return b.String()
}
