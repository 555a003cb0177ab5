package scenario_test

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/arrow-te/arrow/internal/scenario"
	"github.com/arrow-te/arrow/internal/topo"
)

// enumerate is the oracle of EnumerateCorrelated's K = 2, no-group case: all
// single and double cuts with joint probability above cutoff, listed singles
// then pairs and stably sorted by descending probability.
//
// Scenario probabilities are exact independent-failure probabilities:
// P(exactly S fails) = prod_{i in S} p_i * prod_{j not in S} (1 - p_j).
func enumerate(failProb []float64, cutoff float64) *scenario.Set {
	n := len(failProb)
	healthy := 1.0
	for _, p := range failProb {
		healthy *= 1 - p
	}
	s := &scenario.Set{FailProb: append([]float64(nil), failProb...), HealthyProb: healthy}

	// P(exactly {i}) = healthy * p_i / (1-p_i); same trick for pairs.
	odds := make([]float64, n)
	for i, p := range failProb {
		if p >= 1 {
			odds[i] = 1e18
		} else {
			odds[i] = p / (1 - p)
		}
	}
	for i := 0; i < n; i++ {
		if pr := healthy * odds[i]; pr >= cutoff {
			s.Scenarios = append(s.Scenarios, scenario.Scenario{Cut: []int{i}, Prob: pr})
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if pr := healthy * odds[i] * odds[j]; pr >= cutoff {
				s.Scenarios = append(s.Scenarios, scenario.Scenario{Cut: []int{i, j}, Prob: pr})
			}
		}
	}
	sort.SliceStable(s.Scenarios, func(a, b int) bool { return s.Scenarios[a].Prob > s.Scenarios[b].Prob })

	covered := healthy
	for _, sc := range s.Scenarios {
		covered += sc.Prob
	}
	s.ResidualProb = 1 - covered
	if s.ResidualProb < 0 {
		s.ResidualProb = 0
	}
	return s
}

// TestEnumerateCorrelatedMatchesEnumerate is the byte-identity contract:
// with no groups, K=2 and no mass/count bounds, the best-first enumerator
// must reproduce the singles+pairs oracle exactly — same scenarios, same
// order, bit-equal probabilities, healthy and residual mass — on
// Weibull-realistic inputs, the draws of the benchmark's B4(6) and
// Facebook(6) instances among them.
func TestEnumerateCorrelatedMatchesEnumerate(t *testing.T) {
	type row struct {
		name   string
		probs  []float64
		cutoff float64
	}
	var rows []row
	for seed := int64(1); seed <= 5; seed++ {
		probs := scenario.FailureProbabilities(40, scenario.DefaultShape, scenario.DefaultScale, seed)
		for _, cutoff := range []float64{0, 1e-6, 1e-4, 1e-3} {
			rows = append(rows, row{fmt.Sprintf("n40/seed%d", seed), probs, cutoff})
		}
	}
	for _, in := range []struct {
		name string
		topo func(int64) (*topo.Topology, error)
	}{{"B4(6)", topo.B4}, {"Facebook(6)", topo.Facebook}} {
		tp, err := in.topo(6)
		if err != nil {
			t.Fatal(err)
		}
		probs := scenario.FailureProbabilities(len(tp.Opt.Fibers), scenario.DefaultShape, scenario.DefaultScale, 1)
		for _, cutoff := range []float64{1e-3, 2e-4} {
			rows = append(rows, row{in.name, probs, cutoff})
		}
	}
	for _, r := range rows {
		want := enumerate(r.probs, r.cutoff)
		got := scenario.EnumerateCorrelated(r.probs, nil, scenario.EnumOptions{K: 2, Cutoff: r.cutoff})
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s cutoff %g: best-first enumeration diverged from the oracle\nwant %d scenarios, got %d",
				r.name, r.cutoff, len(want.Scenarios), len(got.Scenarios))
		}
	}
}

// FuzzEnumerateCorrelated holds EnumerateCorrelated with K 2 and no groups
// to the singles+pairs oracle, and its K 3 output to the same order:
// descending probability, ties to fewer fibers, then to the smaller tuple.
// The input's first byte picks the cutoff (0,
// or a power of ten down to 1e-12); every later byte is one fiber's
// probability on a grid of 1/512 steps in [0, 0.5), so zeros and exact ties
// are common.
func FuzzEnumerateCorrelated(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{3, 10, 10, 0, 200, 255, 10})
	f.Add([]byte{5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{12, 255, 0, 255, 0, 1})
	// Ties among products taken in different orders: a pair's probability
	// rounds above its lattice parent's, which a heap ordered by probability
	// alone emits after the parent.
	f.Add([]byte("0\xff\x00cxaa22012c1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 49 {
			return
		}
		cutoff := 0.0
		if e := int(data[0] % 13); e > 0 {
			cutoff = math.Pow10(-e)
		}
		probs := make([]float64, len(data)-1)
		for i, b := range data[1:] {
			probs[i] = float64(b) / 512
		}
		want := enumerate(probs, cutoff)
		got := scenario.EnumerateCorrelated(probs, nil, scenario.EnumOptions{K: 2, Cutoff: cutoff})
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("probs %v cutoff %g: EnumerateCorrelated diverged from the oracle\nwant %+v\ngot  %+v",
				probs, cutoff, want, got)
		}
		three := scenario.EnumerateCorrelated(probs, nil, scenario.EnumOptions{K: 3, Cutoff: cutoff})
		if !sort.SliceIsSorted(three.Scenarios, func(i, j int) bool {
			return emittedBefore(three.Scenarios[i], three.Scenarios[j])
		}) {
			t.Fatalf("probs %v cutoff %g: K 3 enumeration out of order: %+v", probs, cutoff, three.Scenarios)
		}
	})
}

// emittedBefore is the emission order of a no-group enumeration: descending
// probability, then fewer fibers, then the lexicographically smaller cut.
func emittedBefore(a, b scenario.Scenario) bool {
	if a.Prob != b.Prob {
		return a.Prob > b.Prob
	}
	if len(a.Cut) != len(b.Cut) {
		return len(a.Cut) < len(b.Cut)
	}
	return slices.Compare(a.Cut, b.Cut) < 0
}
