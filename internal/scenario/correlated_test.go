package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/arrow-te/arrow/internal/obs"
)

// TestEnumerateCorrelatedProperties: mass accumulation is monotone
// nondecreasing along the emitted order, every scenario respects the
// cutoff, the order is nonincreasing in probability, and no cut set is
// emitted twice — across random probabilities, ks and random SRLGs.
func TestEnumerateCorrelatedProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 5 + rng.Intn(20)
		probs := make([]float64, n)
		for i := range probs {
			probs[i] = rng.Float64() * 0.2
		}
		var groups []Group
		for g := rng.Intn(4); g > 0; g-- {
			size := 2 + rng.Intn(3)
			fibers := make([]int, size)
			for i := range fibers {
				fibers[i] = rng.Intn(n)
			}
			groups = append(groups, Group{
				Name: fmt.Sprintf("g%d", g), Fibers: fibers, Prob: rng.Float64() * 0.05,
			})
		}
		k := 1 + rng.Intn(4)
		cutoff := math.Pow(10, -1-6*rng.Float64())
		s := EnumerateCorrelated(probs, groups, EnumOptions{K: k, Cutoff: cutoff})

		covered := s.HealthyProb
		seen := map[string]bool{}
		for i, sc := range s.Scenarios {
			if sc.Prob < cutoff {
				t.Fatalf("trial %d: scenario %d below cutoff: %g < %g", trial, i, sc.Prob, cutoff)
			}
			if len(sc.Cut) == 0 {
				t.Fatalf("trial %d: empty cut emitted", trial)
			}
			key := fmt.Sprint(sc.Cut)
			if seen[key] {
				t.Fatalf("trial %d: cut %v emitted twice", trial, sc.Cut)
			}
			seen[key] = true
			prev := covered
			covered += sc.Prob
			if covered < prev {
				t.Fatalf("trial %d: covered mass decreased", trial)
			}
		}
		if covered > 1+1e-9 {
			t.Fatalf("trial %d: covered mass %g exceeds 1", trial, covered)
		}
		if math.Abs((1-covered)-s.ResidualProb) > 1e-9 && s.ResidualProb != 0 {
			t.Fatalf("trial %d: residual %g want %g", trial, s.ResidualProb, 1-covered)
		}
		// First-emission probabilities are nonincreasing. Merged mass can
		// only ever ADD to an earlier (already larger) entry, so the emitted
		// order stays nonincreasing in first-discovery probability; verify
		// the weaker invariant that holds post-merge: no scenario exceeds
		// the one before it by more than its merged share — in practice,
		// with merge targets strictly earlier, Prob[i] <= Prob[i-1] + merges
		// and the raw sequence without groups is exactly sorted.
		if len(groups) == 0 {
			for i := 1; i < len(s.Scenarios); i++ {
				if s.Scenarios[i].Prob > s.Scenarios[i-1].Prob {
					t.Fatalf("trial %d: scenarios out of order at %d", trial, i)
				}
			}
		}
	}
}

// TestEnumerateCorrelatedTargetMass: enumeration stops as soon as covered
// mass reaches the target, and the emitted prefix is exactly the most
// probable scenarios of the unbounded enumeration.
func TestEnumerateCorrelatedTargetMass(t *testing.T) {
	probs := FailureProbabilities(30, DefaultShape, DefaultScale, 3)
	full := EnumerateCorrelated(probs, nil, EnumOptions{K: 3, Cutoff: 1e-9})
	// Target the mass covered by the first half of the unbounded emission:
	// the bounded run must stop exactly there.
	mid := len(full.Scenarios) / 2
	target := full.HealthyProb
	for _, sc := range full.Scenarios[:mid+1] {
		target += sc.Prob
	}
	capped := EnumerateCorrelated(probs, nil, EnumOptions{K: 3, Cutoff: 1e-9, TargetMass: target})
	if len(capped.Scenarios) != mid+1 {
		t.Fatalf("target mass kept %d scenarios, want %d", len(capped.Scenarios), mid+1)
	}
	covered := capped.HealthyProb
	for _, sc := range capped.Scenarios {
		covered += sc.Prob
	}
	if covered < target {
		t.Fatalf("covered %g below target %g", covered, target)
	}
	// Prefix property: the capped set is a prefix of the full emission.
	for i, sc := range capped.Scenarios {
		if !reflect.DeepEqual(sc.Cut, full.Scenarios[i].Cut) {
			t.Fatalf("capped scenario %d is %v, full has %v", i, sc.Cut, full.Scenarios[i].Cut)
		}
	}
}

// TestEnumerateCorrelatedMaxEnumerated: the cap bounds DISTINCT cut sets
// and the emitted prefix matches the unbounded order.
func TestEnumerateCorrelatedMaxEnumerated(t *testing.T) {
	probs := FailureProbabilities(25, DefaultShape, DefaultScale, 4)
	full := EnumerateCorrelated(probs, nil, EnumOptions{K: 3, Cutoff: 0})
	capped := EnumerateCorrelated(probs, nil, EnumOptions{K: 3, Cutoff: 0, MaxEnumerated: 50})
	if len(capped.Scenarios) != 50 {
		t.Fatalf("cap produced %d scenarios", len(capped.Scenarios))
	}
	for i, sc := range capped.Scenarios {
		if !reflect.DeepEqual(sc.Cut, full.Scenarios[i].Cut) {
			t.Fatalf("capped scenario %d diverges from unbounded order", i)
		}
	}
}

// TestEnumerateCorrelatedEdgeCases covers k=0, k>n, an empty element set
// and overlapping SRLGs (merged mass, no duplicate cut sets).
func TestEnumerateCorrelatedEdgeCases(t *testing.T) {
	probs := []float64{0.1, 0.05, 0.2}

	// k=0: no cut scenarios, residual is everything but healthy.
	s := EnumerateCorrelated(probs, nil, EnumOptions{K: 0})
	if len(s.Scenarios) != 0 {
		t.Fatalf("k=0 emitted %d scenarios", len(s.Scenarios))
	}
	if math.Abs(s.ResidualProb-(1-s.HealthyProb)) > 1e-15 {
		t.Fatalf("k=0 residual %g", s.ResidualProb)
	}

	// k > n: clamped to the element count; full lattice enumerated.
	s = EnumerateCorrelated(probs, nil, EnumOptions{K: 99, Cutoff: 0})
	if want := 7; len(s.Scenarios) != want { // 2^3 - 1 subsets
		t.Fatalf("k>n emitted %d scenarios, want %d", len(s.Scenarios), want)
	}
	total := s.HealthyProb
	for _, sc := range s.Scenarios {
		total += sc.Prob
	}
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("full lattice mass %g != 1", total)
	}
	if s.ResidualProb != 0 {
		t.Fatalf("full lattice residual %g", s.ResidualProb)
	}

	// No fibers at all.
	s = EnumerateCorrelated(nil, nil, EnumOptions{K: 2})
	if len(s.Scenarios) != 0 || s.HealthyProb != 1 {
		t.Fatal("empty element set mishandled")
	}

	// Overlapping SRLGs: group {0,1} overlaps group {1,2} and fiber 1.
	groups := []Group{
		{Name: "a", Fibers: []int{0, 1}, Prob: 0.01},
		{Name: "b", Fibers: []int{1, 2}, Prob: 0.02},
	}
	s = EnumerateCorrelated(probs, groups, EnumOptions{K: 2, Cutoff: 0})
	seen := map[string]bool{}
	var cut01 float64
	for _, sc := range s.Scenarios {
		key := fmt.Sprint(sc.Cut)
		if seen[key] {
			t.Fatalf("duplicate cut %v with overlapping groups", sc.Cut)
		}
		seen[key] = true
		if key == fmt.Sprint([]int{0, 1}) {
			cut01 = sc.Prob
		}
	}
	// Cut {0,1} collects every element subset of size <= 2 whose fiber
	// union is {0,1}: {group a}, {fiber0, fiber1}, {group a, fiber0} and
	// {group a, fiber1}.
	healthy := s.HealthyProb
	oddsA := 0.01 / 0.99
	odds0 := 0.1 / 0.9
	odds1 := 0.05 / 0.95
	want := healthy * (oddsA + odds0*odds1 + oddsA*odds0 + oddsA*odds1)
	if math.Abs(cut01-want) > 1e-12 {
		t.Fatalf("merged mass for {0,1}: %g want %g", cut01, want)
	}
}

// TestEnumerateCorrelatedCounters: scenario.enumerated counts emitted cut
// sets; scenario.pruned counts frontier states discarded by the cutoff.
func TestEnumerateCorrelatedCounters(t *testing.T) {
	probs := FailureProbabilities(20, DefaultShape, DefaultScale, 9)
	reg := obs.NewRegistry()
	s := EnumerateCorrelated(probs, nil, EnumOptions{K: 2, Cutoff: 1e-4, Recorder: reg})
	if got := reg.Counter("scenario.enumerated"); got != int64(len(s.Scenarios)) {
		t.Fatalf("scenario.enumerated = %d, want %d", got, len(s.Scenarios))
	}
	if reg.Counter("scenario.pruned") == 0 {
		t.Fatal("cutoff enumeration pruned nothing")
	}
	// Recorder on/off must not change the result.
	off := EnumerateCorrelated(probs, nil, EnumOptions{K: 2, Cutoff: 1e-4})
	if !reflect.DeepEqual(s, off) {
		t.Fatal("recorder changed the enumeration")
	}
}
