package obs

import (
	"fmt"
	"strings"
)

// MetricDoc documents one metric of the observability plane.
type MetricDoc struct {
	Name string // metric key, or a <placeholder> pattern for dynamic families
	Kind string // "counter", "gauge" or "histogram"
	Help string
}

// counterHelp documents every CoreCounters key. A conformance test keeps
// the two lists exactly aligned, so adding a counter without documenting it
// fails the build.
var counterHelp = map[string]string{
	"lp.solves":                              "LP solves completed (both simplex phases count as one solve)",
	"lp.pivots":                              "simplex pivots across all solves",
	"lp.pivot_work":                          "pivots x (nonzeros + rows): a model-size weight per pivot, not a measure of work done",
	"lp.repriced_cols":                       "columns whose reduced cost was recomputed (each phase's initial full pass included)",
	"lp.solve_reach":                         "pivot steps visited by the LU triangular passes of FTRAN/BTRAN (rows of the basis for a full-length pass)",
	"lp.full_solves":                         "LU solves in which a triangular pass ran full length instead of following its reach",
	"lp.phase1_pivots":                       "pivots spent in simplex phase 1 (feasibility search)",
	"lp.refactorizations":                    "basis refactorizations (eta-file resets)",
	"lp.degenerate_pivots":                   "pivots with a zero step length",
	"lp.certificates":                        "optimality certificates produced and validated",
	"lp.cert_failures":                       "certificate validations that failed (solver bug tripwire)",
	"lp.warm_starts":                         "solves that started from a supplied basis",
	"lp.warm_accepted":                       "warm bases accepted as-is (no repair needed)",
	"lp.warm_repairs":                        "warm bases repaired before use (singular or stale rows)",
	"lp.phase1_skipped":                      "solves that skipped simplex phase 1 thanks to a feasible warm basis",
	"lp.pivots_saved":                        "estimated pivots saved by warm starts vs the cold baseline",
	"lp.columns_priced":                      "columns priced in by the column-generation loop",
	"te.pricing_rounds":                      "column-generation pricing sweeps across all ARROW Phase I solves",
	"te.tickets_deferred":                    "ticket blocks left out of the master by lazy pricing",
	"te.phase1_pivots":                       "simplex pivots attributed to ARROW Phase I masters",
	"te.phase1_pivot_work":                   "pivot work units attributed to ARROW Phase I masters",
	"te.fallback_kept":                       "ARROW solves that kept the all-ticket-0 Phase II over Phase I's winners",
	"mip.solves":                             "branch-and-bound solves completed",
	"mip.nodes":                              "branch-and-bound nodes explored",
	"mip.pruned":                             "nodes pruned by bound",
	"mip.incumbents":                         "incumbent improvements found",
	"rwa.solves":                             "restoration wavelength-assignment solves",
	"rwa.compose_adopted":                    "basis variables adopted from single-cut solutions when composing multi-cut warm starts",
	"ticket.rounding_attempts":               "LP-relaxation rounding attempts during ticket generation",
	"ticket.generated":                       "restoration tickets generated",
	"ticket.infeasible":                      "candidate tickets rejected as infeasible",
	"ticket.duplicates":                      "candidate tickets rejected as duplicates",
	"par.pools":                              "worker pools created",
	"par.tasks":                              "tasks executed across all pools",
	"par.busy_ns":                            "cumulative worker busy time (ns)",
	"par.idle_ns":                            "cumulative worker idle time (ns)",
	"pipeline.scenarios_enumerated":          "failure scenarios enumerated by the offline pipeline",
	"pipeline.scenarios_relevant":            "enumerated scenarios kept after the relevance cutoff",
	"scenario.enumerated":                    "cut sets emitted by the correlated k-failure enumerator",
	"scenario.pruned":                        "failure-lattice nodes pruned by the enumerator's probability bound",
	"scenario.warm_from_singles":             "multi-cut RWA solves warm-started from pre-staged single-cut bases",
	"sim.intervals":                          "timeline replay intervals evaluated",
	"sim.unplanned_intervals":                "intervals spent in failure states with no precomputed plan",
	"sim.restoring_intervals":                "intervals spent inside restoration-latency windows",
	"emu.episodes":                           "emulated restoration episodes run",
	"emu.amps_settled":                       "amplifiers settled across all episodes",
	"emu.amp_loops":                          "amplifier settle-loop iterations",
	"emu.roadm_reconfigs":                    "ROADM reconfigurations performed",
	"emu.lightpaths_restored":                "lightpaths restored across all episodes",
	"lp.health.probes":                       "solver-health probes taken (lp.Options.HealthEvery)",
	"lp.health.anomalies":                    "health probes that flagged an anomaly",
	"lp.health.anomaly.stall":                "probes flagging objective stall",
	"lp.health.anomaly.residual_drift":       "probes flagging primal residual drift",
	"lp.health.anomaly.warm_repair_fallback": "probes flagging a warm-basis repair fallback",
	"lp.health.anomaly.cycling_suspect":      "probes flagging suspected cycling",
	"mip.unhealthy_nodes":                    "branch-and-bound nodes whose LP relaxation probed unhealthy",
	"obs.late_hist_registrations":            "histogram registrations after first observation (bucket mismatch tripwire)",
	"obs.sse.dropped_events":                 "SSE events dropped on slow /events clients",
	"attr.runs":                              "availability-attribution passes completed",
	"attr.scenarios":                         "scenario-level loss contributions decomposed",
	"attr.flows":                             "flow-level loss contributions decomposed",
	"attr.identity_violations":               "decomposition identities off by more than 1e-9 (attribution bug tripwire)",
	"attr.sensitivities":                     "capacity-row shadow prices harvested from the final phase-II basis",
	"attr.fd_checks":                         "shadow prices validated against finite-difference warm re-solves",
	"attr.fd_mismatches":                     "shadow prices outside their finite-difference derivative bracket",
	"attr.probes":                            "what-if perturbations probed by warm re-solve or analytic evaluation",
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

// CounterDocs returns the documented counter schema in CoreCounters order.
func CounterDocs() []MetricDoc {
	out := make([]MetricDoc, 0, len(CoreCounters))
	for _, name := range CoreCounters {
		out = append(out, MetricDoc{Name: name, Kind: "counter", Help: counterHelp[name]})
	}
	return out
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
