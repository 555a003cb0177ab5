package graph_test

import (
	"math"
	"reflect"
	"testing"

	"github.com/arrow-te/arrow/internal/graph"
	"github.com/arrow-te/arrow/internal/scenario"
	"github.com/arrow-te/arrow/internal/spectrum"
	"github.com/arrow-te/arrow/internal/topo"
)

// On every (failed link, cut) the offline stage plans on three of the
// pinned instances — B4 with its SRLGs and cut sets of up to three elements,
// B4 and IBM with singles and pairs, seed 3 — the memo answers the stage's
// question (k = 3 within the most robust modulation's reach) with the masked
// search's paths, edge for edge and weight bit for bit.
func TestPathMemoMatchesSearchOnPlannedCuts(t *testing.T) {
	reach := 0.0
	for _, m := range spectrum.Table6 {
		reach = math.Max(reach, m.ReachKm)
	}
	for _, in := range []struct {
		name       string
		topo       func(int64) (*topo.Topology, error)
		cutoff     float64
		maxCutSize int
		minRanked  float64 // the share of questions the lists must answer
	}{
		{"b4-legacy", topo.B4, 1e-3, 0, 0.9},
		{"b4-srlg-k3", topo.B4, 1e-12, 3, 0.95},
		{"ibm-legacy", topo.IBM, 1e-3, 0, 0.8},
	} {
		tp, err := in.topo(3)
		if err != nil {
			t.Fatal(err)
		}
		net := tp.Opt
		probs := scenario.FailureProbabilities(len(net.Fibers), scenario.DefaultShape, scenario.DefaultScale, 3)
		set := scenario.EnumerateCorrelated(probs, nil, scenario.EnumOptions{K: 2, Cutoff: in.cutoff})
		if in.maxCutSize > 0 {
			set = scenario.EnumerateCorrelated(probs, tp.SRLGs, scenario.EnumOptions{K: in.maxCutSize, Cutoff: in.cutoff})
		}
		g := net.Graph()
		memo := graph.NewPathMemo(g)
		var mask []bool
		asked, ranked := 0, 0
		for _, sc := range set.Scenarios {
			mask = net.CutMask(mask, sc.Cut)
			for _, lid := range net.FailedLinks(sc.Cut) {
				l := net.LinkByID(lid)
				src, dst := graph.Node(l.Src), graph.Node(l.Dst)
				want := g.KShortestPathsAvoiding(src, dst, 3, reach, mask)
				got := memo.KShortestPathsAvoiding(nil, src, dst, 3, reach, mask)
				if len(got) != len(want) {
					t.Fatalf("%s cut %v link %d: memo %v, search %v", in.name, sc.Cut, lid, got, want)
				}
				for i := range got {
					if !reflect.DeepEqual(got[i].Edges, want[i].Edges) || math.Float64bits(got[i].Weight) != math.Float64bits(want[i].Weight) {
						t.Fatalf("%s cut %v link %d: memo %v, search %v", in.name, sc.Cut, lid, got, want)
					}
				}
				asked++
				if _, ok := memo.Lookup(nil, src, dst, 3, reach, mask); ok {
					ranked++
				}
			}
		}
		t.Logf("%s: %d questions, %d answered from the ranked lists", in.name, asked, ranked)
		if asked < 50 || float64(ranked) < in.minRanked*float64(asked) {
			t.Errorf("%s: the ranked lists answered %d of %d questions", in.name, ranked, asked)
		}
	}
}
