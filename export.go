package arrow

import (
	"encoding/json"
	"fmt"
	"sort"

	"github.com/arrow-te/arrow/internal/availability"
	"github.com/arrow-te/arrow/internal/noise"
)

// PlanExport is the JSON-serialisable form of a TrafficPlan: the routing
// rules to install on routers (traffic splitting ratios per demand) and the
// proactive restoration plan per failure scenario.
type PlanExport struct {
	Demands  []DemandExport   `json:"demands"`
	Failures []FailureExport  `json:"failures"`
	Summary  PlanSummaryStats `json:"summary"`
}

// DemandExport is one demand's routing installation.
type DemandExport struct {
	Src      int           `json:"src"`
	Dst      int           `json:"dst"`
	Gbps     float64       `json:"gbps"`
	Admitted float64       `json:"admitted_gbps"`
	Tunnels  []TunnelSplit `json:"tunnels"`
}

// TunnelSplit is one tunnel's links and traffic share.
type TunnelSplit struct {
	Links []int   `json:"links"`
	Ratio float64 `json:"ratio"`
}

// FailureExport is the precomputed reaction to one failure scenario.
type FailureExport struct {
	Probability   float64            `json:"probability"`
	FailedLinks   []int              `json:"failed_links"`
	RestoredGbps  map[string]float64 `json:"restored_gbps"`
	WinningTicket int                `json:"winning_ticket"`
}

// PlanSummaryStats summarises the plan.
type PlanSummaryStats struct {
	AdmittedGbps float64 `json:"admitted_gbps"`
	Throughput   float64 `json:"throughput"`
	Availability float64 `json:"availability"`
	Scenarios    int     `json:"scenarios"`
}

// Export converts the plan to its installable JSON form.
func (tp *TrafficPlan) Export() ([]byte, error) {
	ex := &PlanExport{
		Summary: PlanSummaryStats{
			AdmittedGbps: tp.AdmittedGbps(),
			Throughput:   tp.Throughput(),
			Availability: tp.Availability(),
			Scenarios:    len(tp.planner.scenarios),
		},
	}
	ratios := tp.SplitRatios()
	for d, dm := range tp.demands {
		de := DemandExport{Src: dm.Src, Dst: dm.Dst, Gbps: dm.Gbps, Admitted: tp.alloc.B[d]}
		for t := range tp.network.Tunnels[d] {
			de.Tunnels = append(de.Tunnels, TunnelSplit{
				Links: append([]int(nil), tp.network.Tunnels[d][t].Links...),
				Ratio: ratios[d][t],
			})
		}
		ex.Demands = append(ex.Demands, de)
	}
	for qi := range tp.planner.scenarios {
		fe := FailureExport{
			Probability:  tp.planner.scenarios[qi].Prob,
			FailedLinks:  append([]int(nil), tp.planner.scenarios[qi].FailedLinks...),
			RestoredGbps: map[string]float64{},
		}
		sort.Ints(fe.FailedLinks)
		if tp.alloc.WinningTicket != nil {
			fe.WinningTicket = tp.alloc.WinningTicket[qi]
			r := tp.planner.scenarios[qi].Restoration(fe.WinningTicket)
			for _, l := range fe.FailedLinks {
				fe.RestoredGbps[fmt.Sprint(l)] = r.On(l)
			}
		}
		ex.Failures = append(ex.Failures, fe)
	}
	return json.MarshalIndent(ex, "", "  ")
}

// ROADMConfig renders the installable ROADM reconfiguration rules for the
// scenario that cuts exactly the given fibers (the text the paper's §3.3
// "installs on ROADM config files"). Like OnFiberCut, it reads the plan and
// refuses an unplanned cut with an error wrapping ErrUnplannedCut.
func (tp *TrafficPlan) ROADMConfig(fibers ...FiberID) (string, error) {
	sc := reactionPool.Get()
	defer reactionPool.Put(sc)
	if _, err := tp.restoration(sc, fibers); err != nil {
		return "", err
	}
	return noise.BuildConfig(fmt.Sprintf("cut%v", fibers), &sc.plan).Render(), nil
}

// PerDemandAvailability returns each demand's individual probability-
// weighted delivered fraction — the per-customer SLA view of the plan.
func (tp *TrafficPlan) PerDemandAvailability() []float64 {
	scs := make([]availability.ScenarioEval, len(tp.planner.scenarios))
	for i := range scs {
		scs[i] = tp.scenario(i)
	}
	ev := availability.Evaluator{Net: tp.network, Alloc: tp.alloc}
	return ev.PerFlowAvailability(scs)
}
