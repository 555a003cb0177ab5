package scenario

import (
	"math"
	"testing"
)

func TestFailureProbabilitiesDeterministic(t *testing.T) {
	a := FailureProbabilities(50, DefaultShape, DefaultScale, 1)
	b := FailureProbabilities(50, DefaultShape, DefaultScale, 1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different probabilities")
		}
		if a[i] < 0 || a[i] > 0.5 {
			t.Fatalf("probability %g out of range", a[i])
		}
	}
	c := FailureProbabilities(50, DefaultShape, DefaultScale, 2)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical probabilities")
	}
}

func TestEnumerateProbabilitiesConsistent(t *testing.T) {
	p := []float64{0.1, 0.05, 0.2}
	s := EnumerateCorrelated(p, nil, EnumOptions{K: 2})
	// With cutoff 0 we get all singles and pairs: 3 + 3 = 6 scenarios.
	if len(s.Scenarios) != 6 {
		t.Fatalf("%d scenarios", len(s.Scenarios))
	}
	// Healthy probability.
	wantHealthy := 0.9 * 0.95 * 0.8
	if math.Abs(s.HealthyProb-wantHealthy) > 1e-12 {
		t.Fatalf("healthy %g want %g", s.HealthyProb, wantHealthy)
	}
	// Check one exact scenario probability: only fiber 0 fails.
	var p0 float64
	for _, sc := range s.Scenarios {
		if len(sc.Cut) == 1 && sc.Cut[0] == 0 {
			p0 = sc.Prob
		}
	}
	want := 0.1 * 0.95 * 0.8
	if math.Abs(p0-want) > 1e-12 {
		t.Fatalf("P(only 0) = %g want %g", p0, want)
	}
	// Residual = 1 - healthy - enumerated = P(triple failure).
	wantResidual := 0.1 * 0.05 * 0.2
	if math.Abs(s.ResidualProb-wantResidual) > 1e-12 {
		t.Fatalf("residual %g want %g", s.ResidualProb, wantResidual)
	}
	// Sorted by descending probability.
	for i := 1; i < len(s.Scenarios); i++ {
		if s.Scenarios[i].Prob > s.Scenarios[i-1].Prob+1e-15 {
			t.Fatal("scenarios not sorted")
		}
	}
}

func TestEnumerateCutoffFilters(t *testing.T) {
	p := []float64{0.1, 0.001, 0.2}
	all := EnumerateCorrelated(p, nil, EnumOptions{K: 2})
	cut := EnumerateCorrelated(p, nil, EnumOptions{K: 2, Cutoff: 0.01})
	if len(cut.Scenarios) >= len(all.Scenarios) {
		t.Fatal("cutoff removed nothing")
	}
	for _, sc := range cut.Scenarios {
		if sc.Prob < 0.01 {
			t.Fatalf("scenario below cutoff: %+v", sc)
		}
	}
}
