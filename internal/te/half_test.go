package te

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestSharedHalfMatchesPerCall holds what a NewNetwork's solves read off
// its holder to a fresh crossOf and classifyResiduals: on every Scaled
// copy, for two lists of equal content in different slices (one entry), for
// a list whose content changed between calls (a new entry) and for
// TeaVaR's healthy-prepended list (one entry however many solves).
func TestSharedHalfMatchesPerCall(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lit, rscs := randomArrowInstance(rng)
		base := NewNetwork(lit.LinkCap, lit.Flows, lit.Tunnels)
		scs := make([]FailureScenario, len(rscs))
		for i := range rscs {
			scs[i] = rscs[i].FailureScenario
		}
		sameClasses := func(n *Network, scs []FailureScenario, withClass bool) *residualClasses {
			t.Helper()
			got := n.residuals(scs, withClass)
			if want := classifyResiduals(n, scs, withClass); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: shared classes %v, per call %v", seed, got, want)
			}
			return got
		}

		// Every Scaled copy reads the base's incidence and classes.
		cross, rc := base.incidence(), sameClasses(base, scs, false)
		for _, s := range []float64{1, 1.5, 2, 2.5, 3, 4, 5, 6, 7} {
			c := base.Scaled(s)
			if got := c.incidence(); !reflect.DeepEqual(got, crossOf(c)) || &got[0] != &cross[0] {
				t.Fatalf("seed %d scale %g: the copy's incidence is not the base's or differs from crossOf", seed, s)
			}
			if sameClasses(c, scs, false) != rc {
				t.Fatalf("seed %d scale %g: the copy classified the list again", seed, s)
			}
		}

		// Equal content in another slice is a hit.
		again := make([]FailureScenario, len(scs))
		for i, q := range scs {
			again[i] = FailureScenario{Prob: q.Prob / 2, FailedLinks: append([]int(nil), q.FailedLinks...)}
		}
		if sameClasses(base, again, false) != rc {
			t.Fatalf("seed %d: a list of equal content was classified again", seed)
		}

		// A buffer reused with other content is classified anew, however
		// the content changed: a longer list of links, then one link
		// changed in place.
		links := len(base.LinkCap)
		reused := append([]FailureScenario(nil), again...)
		reused[0].FailedLinks = append(reused[0].FailedLinks, links-1)
		for range 2 {
			before := len(base.half.classes)
			if sameClasses(base, reused, false); len(base.half.classes) != before+1 {
				t.Fatalf("seed %d: changed content hit an old entry", seed)
			}
			last := &reused[0].FailedLinks[len(reused[0].FailedLinks)-1]
			*last = (*last + 1) % links
		}

		// TeaVaR classifies its healthy-prepended list once per network.
		for _, s := range []float64{1, 3, 7} {
			m, _, err := teavarModel(base.Scaled(s), scs, 0.999)
			if err != nil {
				t.Fatal(err)
			}
			modelPool.Put(m)
		}
		var entries []*classEntry
		for _, e := range base.half.classes {
			if e.withClass {
				entries = append(entries, e)
			}
		}
		healthy := append([]FailureScenario{{}}, scs...)
		if len(entries) != 1 || !reflect.DeepEqual(entries[0].rc, classifyResiduals(base, healthy, true)) {
			t.Fatalf("seed %d: TeaVaR left %d classified lists, want 1 equal to a per-call classification", seed, len(entries))
		}
	}
}
