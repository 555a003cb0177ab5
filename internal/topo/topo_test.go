package topo

import (
	"testing"

	"github.com/arrow-te/arrow/internal/rwa"
	"github.com/arrow-te/arrow/internal/scenario"
	"github.com/arrow-te/arrow/internal/te"
)

func TestB4Inventory(t *testing.T) {
	tp, err := B4(1)
	if err != nil {
		t.Fatal(err)
	}
	s := tp.Stats()
	if s.Routers != 12 || s.ROADMs != 12 || s.Fibers != 19 {
		t.Fatalf("B4 inventory %+v", s)
	}
	// Table 4: 52 IP links. The generator targets that number but spectrum
	// can cap it; require within 20%.
	if s.IPLinks < 42 || s.IPLinks > 62 {
		t.Fatalf("B4 IP links %d, want ~52", s.IPLinks)
	}
	if s.TotalCapacityGbps <= 0 {
		t.Fatal("no capacity provisioned")
	}
}

func TestIBMInventory(t *testing.T) {
	tp, err := IBM(1)
	if err != nil {
		t.Fatal(err)
	}
	s := tp.Stats()
	if s.Routers != 17 || s.ROADMs != 17 || s.Fibers != 23 {
		t.Fatalf("IBM inventory %+v", s)
	}
	if s.IPLinks < 68 || s.IPLinks > 102 {
		t.Fatalf("IBM IP links %d, want ~85", s.IPLinks)
	}
}

func TestFacebookInventory(t *testing.T) {
	tp, err := Facebook(1)
	if err != nil {
		t.Fatal(err)
	}
	s := tp.Stats()
	if s.Routers != 34 || s.ROADMs != 84 || s.Fibers != 156 {
		t.Fatalf("Facebook inventory %+v", s)
	}
	if s.IPLinks < 200 || s.IPLinks > 290 {
		t.Fatalf("Facebook IP links %d, want ~262", s.IPLinks)
	}
	// Every IP link terminates on router sites.
	for _, l := range tp.Opt.IPLinks {
		if tp.RouterOf(l.Src) < 0 || tp.RouterOf(l.Dst) < 0 {
			t.Fatalf("IP link %d ends on pass-through ROADM", l.ID)
		}
	}
}

func TestTopologyDeterministicBySeed(t *testing.T) {
	a, err := B4(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := B4(7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("same seed different stats: %+v vs %+v", a.Stats(), b.Stats())
	}
	for i := range a.Opt.IPLinks {
		if a.Opt.IPLinks[i].CapacityGbps() != b.Opt.IPLinks[i].CapacityGbps() {
			t.Fatal("IP link capacities differ across identical seeds")
		}
	}
}

func TestTunnelsAreValidPaths(t *testing.T) {
	tp, err := B4(1)
	if err != nil {
		t.Fatal(err)
	}
	g := tp.IPGraph()
	_ = g
	for src := 0; src < tp.NumRouters(); src++ {
		for dst := 0; dst < tp.NumRouters(); dst++ {
			if src == dst {
				continue
			}
			tun := tp.Tunnels(src, dst, 8)
			if len(tun) == 0 {
				t.Fatalf("no tunnels %d->%d", src, dst)
			}
			seen := map[string]bool{}
			for _, tn := range tun {
				// Verify connectivity through IP links.
				at := src
				for _, lid := range tn.Links {
					l := tp.Opt.IPLinks[lid]
					a, b := tp.RouterOf(l.Src), tp.RouterOf(l.Dst)
					switch at {
					case a:
						at = b
					case b:
						at = a
					default:
						t.Fatalf("tunnel %v broken at link %d", tn.Links, lid)
					}
				}
				if at != dst {
					t.Fatalf("tunnel %v ends at %d, want %d", tn.Links, at, dst)
				}
				key := ""
				for _, l := range tn.Links {
					key += string(rune(l)) + ","
				}
				if seen[key] {
					t.Fatalf("duplicate tunnel %v", tn.Links)
				}
				seen[key] = true
			}
		}
	}
}

func TestTunnelsFiberDisjointFirst(t *testing.T) {
	tp, err := B4(1)
	if err != nil {
		t.Fatal(err)
	}
	lf := tp.LinkFibers()
	tun := tp.Tunnels(0, 11, 4)
	if len(tun) < 2 {
		t.Skipf("only %d tunnels", len(tun))
	}
	// The first two tunnels must be fiber-disjoint.
	used := map[int]bool{}
	for _, l := range tun[0].Links {
		for _, f := range lf[l] {
			used[f] = true
		}
	}
	for _, l := range tun[1].Links {
		for _, f := range lf[l] {
			if used[f] {
				t.Fatalf("tunnels 0 and 1 share fiber %d", f)
			}
		}
	}
}

func TestTENetworkBuilds(t *testing.T) {
	tp, err := B4(1)
	if err != nil {
		t.Fatal(err)
	}
	flows := []te.Flow{{Src: 0, Dst: 11, Demand: 100}, {Src: 3, Dst: 9, Demand: 50}}
	n, err := tp.TENetwork(flows, 8)
	if err != nil {
		t.Fatal(err)
	}
	al, err := te.MaxThroughput(n)
	if err != nil {
		t.Fatal(err)
	}
	if al.Objective <= 0 {
		t.Fatalf("objective %g", al.Objective)
	}
}

func TestScenarioProjection(t *testing.T) {
	tp, err := B4(1)
	if err != nil {
		t.Fatal(err)
	}
	// Every fiber cut must fail at least the adjacency IP link riding it.
	anyFailed := false
	for f := range tp.Opt.Fibers {
		failed := tp.Opt.FailedLinks([]int{f})
		if len(failed) > 0 {
			anyFailed = true
		}
	}
	if !anyFailed {
		t.Fatal("no fiber cut fails any IP link")
	}
	probs := scenario.FailureProbabilities(len(tp.Opt.Fibers), scenario.DefaultShape, scenario.DefaultScale, 1)
	set := scenario.EnumerateCorrelated(probs, nil, scenario.EnumOptions{K: 2, Cutoff: 0.001})
	if len(set.Scenarios) == 0 {
		t.Fatal("no scenarios above cutoff")
	}
}

func TestRestorationWorksOnB4(t *testing.T) {
	// End-to-end smoke: cut each fiber and run RWA; most cuts should be at
	// least partially restorable thanks to spare spectrum.
	tp, err := B4(1)
	if err != nil {
		t.Fatal(err)
	}
	partial, full, none := 0, 0, 0
	for f := range tp.Opt.Fibers {
		u, err := rwa.RestorationRatio(tp.Opt, f, 3, true, true)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case u >= 0.999:
			full++
		case u <= 0.001:
			none++
		default:
			partial++
		}
	}
	if full+partial == 0 {
		t.Fatalf("nothing restorable (full=%d partial=%d none=%d)", full, partial, none)
	}
	t.Logf("B4 restoration: %d full, %d partial, %d none", full, partial, none)
}

func TestSpectrumUtilizationShape(t *testing.T) {
	// Fig. 5 calibration: most fibers should be below 60% utilisation.
	tp, err := Facebook(1)
	if err != nil {
		t.Fatal(err)
	}
	under := 0
	utils := tp.Opt.SpectrumUtilizations()
	for _, u := range utils {
		if u < 0.6 {
			under++
		}
	}
	frac := float64(under) / float64(len(utils))
	if frac < 0.75 {
		t.Fatalf("only %.0f%% of fibers under 60%% utilisation, want most", frac*100)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"B4", "IBM"} {
		if _, err := ByName(name, 1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := ByName("nope", 1); err == nil {
		t.Fatal("unknown topology accepted")
	}
}
