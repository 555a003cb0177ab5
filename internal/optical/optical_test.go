package optical

import (
	"testing"

	"github.com/arrow-te/arrow/internal/spectrum"
)

// square builds the 4-node network of the paper's Fig. 2: ROADMs A=0, B=1,
// C=2, D=3 with fibers AB, BC, AD(=DA), DC and an extra AC passthrough link
// provisioned via D.
func square(t *testing.T) (*Network, *IPLink, *IPLink) {
	t.Helper()
	n := NewNetwork(4, 8)
	n.AddFiber(0, 1, 1000) // 0: A-B
	n.AddFiber(1, 2, 1000) // 1: B-C
	n.AddFiber(0, 3, 800)  // 2: A-D
	n.AddFiber(3, 2, 800)  // 3: D-C
	mod := spectrum.Table6[0]
	// IP1: A<->C via D (passthrough, two wavelengths).
	ip1, err := n.Provision(0, 2, []Lightpath{
		{Slot: 0, Modulation: mod, FiberPath: []int{2, 3}},
		{Slot: 1, Modulation: mod, FiberPath: []int{2, 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// IP2: D<->C direct.
	ip2, err := n.Provision(3, 2, []Lightpath{
		{Slot: 2, Modulation: mod, FiberPath: []int{3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	return n, ip1, ip2
}

func TestProvisionAndCapacity(t *testing.T) {
	n, ip1, ip2 := square(t)
	if got := ip1.CapacityGbps(); got != 200 {
		t.Fatalf("ip1 capacity %g", got)
	}
	if got := ip2.CapacityGbps(); got != 100 {
		t.Fatalf("ip2 capacity %g", got)
	}
	// Fiber DC (id 3) carries both links: 300 Gbps provisioned.
	if got := n.ProvisionedGbpsOnFiber(3); got != 300 {
		t.Fatalf("fiber DC provisioned %g", got)
	}
	if got := n.ProvisionedGbpsOnFiber(0); got != 0 {
		t.Fatalf("fiber AB provisioned %g", got)
	}
}

func TestProvisionCollisionRejected(t *testing.T) {
	n, _, _ := square(t)
	// Slot 0 on fiber 3 is taken by ip1.
	_, err := n.Provision(3, 2, []Lightpath{{Slot: 0, Modulation: spectrum.Table6[0], FiberPath: []int{3}}})
	if err == nil {
		t.Fatal("expected frequency collision error")
	}
}

func TestProvisionBadPathRejected(t *testing.T) {
	n, _, _ := square(t)
	// Path 0 (A-B) does not end at C.
	if _, err := n.Provision(0, 2, []Lightpath{{Slot: 5, Modulation: spectrum.Table6[0], FiberPath: []int{0}}}); err == nil {
		t.Fatal("expected disconnected-path error")
	}
	// Empty path.
	if _, err := n.Provision(0, 2, []Lightpath{{Slot: 5, Modulation: spectrum.Table6[0], FiberPath: nil}}); err == nil {
		t.Fatal("expected empty-path error")
	}
}

func TestFailedLinks(t *testing.T) {
	n, ip1, ip2 := square(t)
	// Cutting fiber DC (3) kills both links.
	failed := n.FailedLinks([]int{3})
	if len(failed) != 2 {
		t.Fatalf("failed %v", failed)
	}
	// Cutting fiber AD (2) kills only ip1.
	failed = n.FailedLinks([]int{2})
	if len(failed) != 1 || failed[0] != ip1.ID {
		t.Fatalf("failed %v", failed)
	}
	// Cutting fiber AB (0) kills nothing.
	if failed = n.FailedLinks([]int{0}); failed != nil {
		t.Fatalf("failed %v", failed)
	}
	_ = ip2
}

func TestSpectrumUnderCut(t *testing.T) {
	n, _, _ := square(t)
	spec := n.SpectrumUnderCut([]int{3})
	// Cut fiber has nothing available.
	if spec[3].Count() != 0 {
		t.Fatalf("cut fiber shows %d available slots", spec[3].Count())
	}
	// Fiber AD (2) carried ip1's two wavelengths; they are released, so all
	// 8 slots are available again.
	if spec[2].Count() != 8 {
		t.Fatalf("fiber AD has %d available slots, want 8", spec[2].Count())
	}
	// Fiber AB (0) was untouched: all 8 free.
	if spec[0].Count() != 8 {
		t.Fatalf("fiber AB has %d available slots, want 8", spec[0].Count())
	}
}

func TestSpectrumUnderCutKeepsWorkingWaves(t *testing.T) {
	n, _, _ := square(t)
	// Add a working link on fiber AB that must NOT be released.
	if _, err := n.Provision(0, 1, []Lightpath{{Slot: 7, Modulation: spectrum.Table6[0], FiberPath: []int{0}}}); err != nil {
		t.Fatal(err)
	}
	spec := n.SpectrumUnderCut([]int{3})
	if spec[0].Available(7) {
		t.Fatal("working wavelength slot was incorrectly released")
	}
	if spec[0].Count() != 7 {
		t.Fatalf("fiber AB available %d, want 7", spec[0].Count())
	}
}

func TestUtilization(t *testing.T) {
	n, _, _ := square(t)
	u := n.SpectrumUtilizations()
	// Fiber DC: slots 0,1,2 occupied of 8 -> 3/8.
	if u[3] != 3.0/8 {
		t.Fatalf("fiber DC utilization %g", u[3])
	}
	if u[0] != 0 {
		t.Fatalf("fiber AB utilization %g", u[0])
	}
}

func TestGraphConstruction(t *testing.T) {
	n, _, _ := square(t)
	g := n.Graph()
	if g.NumNodes() != 4 || g.NumEdges() != 8 {
		t.Fatalf("graph %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	// Shortest A->C is via D: 1600 km.
	p, ok := g.ShortestPath(0, 2, nil)
	if !ok || p.Weight != 1600 {
		t.Fatalf("A->C path %+v", p)
	}
	if n.PathLengthKm([]int{2, 3}) != 1600 {
		t.Fatal("PathLengthKm mismatch")
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	n, ip1, _ := square(t)
	// Corrupt: mark an occupied slot as free.
	n.Fibers[ip1.Waves[0].FiberPath[0]].Slots.Set(ip1.Waves[0].Slot, true)
	if err := n.Validate(); err == nil {
		t.Fatal("expected validation failure")
	}
}
