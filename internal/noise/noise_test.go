package noise

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/arrow-te/arrow/internal/optical"
	"github.com/arrow-te/arrow/internal/race"
	"github.com/arrow-te/arrow/internal/rwa"
	"github.com/arrow-te/arrow/internal/spectrum"
)

// triangle builds a 3-ROADM network: direct fiber 0-1 carrying one link
// (slot 5), detour via node 2 with slot 5 occupied so restoration must
// retune to another slot.
func triangle(t *testing.T, blockSlot bool) (*optical.Network, *rwa.Result, *rwa.Assignment) {
	t.Helper()
	n := optical.NewNetwork(3, 8)
	n.AddFiber(0, 1, 100) // 0 direct
	n.AddFiber(0, 2, 100) // 1
	n.AddFiber(2, 1, 100) // 2
	mod := spectrum.Table6[0]
	if _, err := n.Provision(0, 1, []optical.Lightpath{{Slot: 5, Modulation: mod, FiberPath: []int{0}}}); err != nil {
		t.Fatal(err)
	}
	if blockSlot {
		n.Fibers[1].Slots.Set(5, false)
	}
	res, err := rwa.Solve(&rwa.Request{Net: n, Cut: []int{0}, K: 2, AllowTuning: true, AllowModulationChange: true})
	if err != nil {
		t.Fatal(err)
	}
	asg, ok := rwa.AssignIntegral(res, []int{1})
	if !ok {
		t.Fatal("restoration should be feasible")
	}
	return n, res, asg
}

func TestBuildPlanRetuneDetection(t *testing.T) {
	// Without blocking, the restored wave keeps slot 5: no retune.
	_, res, asg := triangle(t, false)
	nNet := res.Net
	plan := BuildPlan(nNet, res, asg)
	if plan.Retunes != 0 {
		t.Fatalf("%d retunes, want 0", plan.Retunes)
	}
	if plan.RestoredGbps != 100 {
		t.Fatalf("restored %g", plan.RestoredGbps)
	}
	// Blocking slot 5 on the detour forces a retune.
	_, res2, asg2 := triangle(t, true)
	plan2 := BuildPlan(res2.Net, res2, asg2)
	if plan2.Retunes != 1 {
		t.Fatalf("%d retunes, want 1", plan2.Retunes)
	}
}

func TestBuildPlanWaves(t *testing.T) {
	_, res, asg := triangle(t, false)
	plan := BuildPlan(res.Net, res, asg)
	// Endpoints 0 and 1 add/drop; node 2 is intermediate.
	if plan.NumAddDropROADMs() != 2 {
		t.Fatalf("add/drop ROADMs %d, want 2", plan.NumAddDropROADMs())
	}
	if plan.NumIntermediateROADMs() != 1 {
		t.Fatalf("intermediate ROADMs %d, want 1", plan.NumIntermediateROADMs())
	}
	for _, op := range plan.IntermediateOps {
		if op.ROADM != 2 {
			t.Fatalf("intermediate op at ROADM %d", op.ROADM)
		}
	}
}

// BuildPlan sizes both op lists exactly in one backing array; growing the
// add/drop list must not run into the intermediate one.
func TestBuildPlanListsAreExactAndSeparate(t *testing.T) {
	_, res, asg := triangle(t, false)
	plan := BuildPlan(res.Net, res, asg)
	if len(plan.AddDropOps) != 2 || cap(plan.AddDropOps) != 2 || len(plan.IntermediateOps) != 1 || cap(plan.IntermediateOps) != 1 {
		t.Fatalf("op lists len/cap %d/%d and %d/%d, want 2/2 and 1/1",
			len(plan.AddDropOps), cap(plan.AddDropOps), len(plan.IntermediateOps), cap(plan.IntermediateOps))
	}
	inter := plan.IntermediateOps[0]
	_ = append(plan.AddDropOps, Op{ROADM: 7})
	if plan.IntermediateOps[0] != inter {
		t.Fatal("appending an add/drop op overwrote an intermediate one")
	}
}

// restoredLine builds a 4-ROADM line 0-1-2-3 with a bypass fiber 0-3
// carrying one IP link of waves wavelengths, cuts the bypass and assigns every
// wavelength on the line: two add/drop ops and two intermediate ops per wave.
func restoredLine(t *testing.T, waves int) (*rwa.Result, *rwa.Assignment) {
	t.Helper()
	n := optical.NewNetwork(4, 8)
	bypass := n.AddFiber(0, 3, 100).ID
	n.AddFiber(0, 1, 100)
	n.AddFiber(1, 2, 100)
	n.AddFiber(2, 3, 100)
	var ws []optical.Lightpath
	for w := 0; w < waves; w++ {
		ws = append(ws, optical.Lightpath{Slot: w, Modulation: spectrum.Table6[0], FiberPath: []int{bypass}})
	}
	if _, err := n.Provision(0, 3, ws); err != nil {
		t.Fatal(err)
	}
	res, err := rwa.Solve(&rwa.Request{Net: n, Cut: []int{bypass}, K: 1, AllowTuning: true, AllowModulationChange: true})
	if err != nil {
		t.Fatal(err)
	}
	asg, ok := rwa.AssignIntegral(res, []int{waves})
	if !ok {
		t.Fatalf("%d waves do not fit the line", waves)
	}
	return res, asg
}

// One plan reused for a larger assignment, then a smaller one, then the
// larger again is what BuildPlan makes of each, keeps its lists separate, and
// allocates nothing once it has grown.
func TestBuildPlanIntoReusesLists(t *testing.T) {
	bigRes, bigAsg := restoredLine(t, 3)
	_, smallRes, smallAsg := triangle(t, true)
	var dst Plan
	for _, c := range []struct {
		res *rwa.Result
		asg *rwa.Assignment
	}{{bigRes, bigAsg}, {smallRes, smallAsg}, {bigRes, bigAsg}} {
		BuildPlanInto(&dst, c.res.Net, c.res, c.asg)
		if want := BuildPlan(c.res.Net, c.res, c.asg); !reflect.DeepEqual(&dst, want) {
			t.Fatalf("reused plan %+v, fresh %+v", dst, *want)
		}
		inter := slices.Clone(dst.IntermediateOps)
		_ = append(dst.AddDropOps, Op{ROADM: 7})
		if !slices.Equal(dst.IntermediateOps, inter) {
			t.Fatal("appending an add/drop op overwrote an intermediate one")
		}
	}
	if len(dst.AddDropOps) != 6 || len(dst.IntermediateOps) != 6 {
		t.Fatalf("fixture: %d add/drop and %d intermediate ops, want 6 and 6", len(dst.AddDropOps), len(dst.IntermediateOps))
	}
	if race.Enabled {
		return
	}
	if got := testing.AllocsPerRun(20, func() {
		BuildPlanInto(&dst, smallRes.Net, smallRes, smallAsg)
		BuildPlanInto(&dst, bigRes.Net, bigRes, bigAsg)
	}); got != 0 {
		t.Errorf("%.0f allocations per pair of BuildPlanInto calls on a grown plan, want none", got)
	}
}

func TestAppendDistinctROADMsScansOnlyWhatItAppends(t *testing.T) {
	ops := []Op{{ROADM: 4}, {ROADM: 1}, {ROADM: 4}}
	if got := AppendDistinctROADMs([]int{1, 9}, ops); !slices.Equal(got, []int{1, 9, 4, 1}) {
		t.Fatalf("AppendDistinctROADMs = %v, want [1 9 4 1]", got)
	}
}

func TestDistinctROADMsKeepsFirstTouchOrder(t *testing.T) {
	ops := []Op{{ROADM: 4}, {ROADM: 1}, {ROADM: 4}, {ROADM: 9}, {ROADM: 1}}
	if got := DistinctROADMs(ops); !slices.Equal(got, []int{4, 1, 9}) {
		t.Fatalf("DistinctROADMs = %v, want [4 1 9]", got)
	}
	if got := DistinctROADMs(nil); got != nil {
		t.Fatalf("DistinctROADMs(nil) = %v, want nil", got)
	}
}

func TestBuildConfigDeterministicAndComplete(t *testing.T) {
	_, res, asg := triangle(t, false)
	plan := BuildPlan(res.Net, res, asg)
	c1 := BuildConfig("cut-fiber-0", plan)
	c2 := BuildConfig("cut-fiber-0", plan)
	j1, err := c1.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := c2.JSON()
	if string(j1) != string(j2) {
		t.Fatal("config serialisation not deterministic")
	}
	if len(c1.Entries) != len(plan.AddDropOps)+len(plan.IntermediateOps) {
		t.Fatalf("%d entries for %d+%d ops", len(c1.Entries), len(plan.AddDropOps), len(plan.IntermediateOps))
	}
	// Wave ordering: all add/drop rules before intermediates.
	lastWave := 0
	for _, e := range c1.Entries {
		if e.Wave < lastWave {
			t.Fatal("entries not ordered by wave")
		}
		lastWave = e.Wave
	}
	txt := c1.Render()
	for _, want := range []string{"wave 1 (parallel)", "wave 2 (parallel)", "add-drop", "intermediate", "100 Gbps"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("rendered config missing %q:\n%s", want, txt)
		}
	}
}
