package arrow

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/arrow-te/arrow/internal/race"
	"github.com/arrow-te/arrow/internal/stats"
	"github.com/arrow-te/arrow/internal/te"
	"github.com/arrow-te/arrow/internal/topo"
	"github.com/arrow-te/arrow/internal/traffic"
)

var updateTunnels = flag.Bool("update-tunnels", false, "rewrite testdata/tunnels.golden")

// routerPairs lists every ordered pair of distinct routers of tp.
func routerPairs(tp *topo.Topology) [][2]int {
	var out [][2]int
	for a := range tp.Routers {
		for b := range tp.Routers {
			if a != b {
				out = append(out, [2]int{a, b})
			}
		}
	}
	return out
}

// hashTunnels folds tunnel sets, one per pair in order, into an FNV-1a hash:
// each set's size, then each tunnel's length and links.
func hashTunnels(sets [][]te.Tunnel) uint64 {
	h := fnv.New64a()
	for _, ts := range sets {
		fmt.Fprintf(h, "%d:", len(ts))
		for _, tu := range ts {
			fmt.Fprintf(h, "%d%v;", len(tu.Links), tu.Links)
		}
	}
	return h.Sum64()
}

// TestTunnelSelectionGolden pins both tunnel rules over every router pair of
// B4, IBM and Facebook (seed 6) at 1 to 6 tunnels per flow: the Planner's
// (⌊k/2⌋ fiber-disjoint BFS paths, then the shortest unseen ones) and the
// evaluation's topo.Tunnels (fiber-disjoint shortest paths, then Yen's k
// shortest), with how many pairs the two give different ordered lists. Any
// change of either rule shows up here.
func TestTunnelSelectionGolden(t *testing.T) {
	if race.Enabled {
		t.Skip("one goroutine, nothing shared: 1.4 s, 14 s under the race detector")
	}
	const golden = "testdata/tunnels.golden"
	var got bytes.Buffer
	for _, in := range []struct {
		name string
		topo func(int64) (*topo.Topology, error)
	}{{"b4", topo.B4}, {"ibm", topo.IBM}, {"facebook", topo.Facebook}} {
		tp, err := in.topo(6)
		if err != nil {
			t.Fatal(err)
		}
		pairs := routerPairs(tp)
		demands := make([]Demand, len(pairs))
		for i, pr := range pairs {
			demands[i] = Demand{Src: int(tp.Routers[pr[0]]), Dst: int(tp.Routers[pr[1]]), Gbps: 1}
		}
		for k := 1; k <= 6; k++ {
			// A cutoff of 1 plans no scenario: only the tunnels are wanted.
			p, err := (&Network{opt: tp.Opt}).Plan(PlanOptions{Tickets: 1, Cutoff: 1, TunnelsPerFlow: k, Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			net, err := p.buildTENetwork(demands)
			if err != nil {
				t.Fatal(err)
			}
			eval := make([][]te.Tunnel, len(pairs))
			differ := 0
			for i, pr := range pairs {
				eval[i] = tp.Tunnels(pr[0], pr[1], k)
				if !slices.EqualFunc(net.Tunnels[i], eval[i], func(a, b te.Tunnel) bool { return slices.Equal(a.Links, b.Links) }) {
					differ++
				}
			}
			fmt.Fprintf(&got, "%s k=%d planner=%016x topo=%016x differ=%d/%d\n",
				in.name, k, hashTunnels(net.Tunnels), hashTunnels(eval), differ, len(pairs))
		}
	}
	if *updateTunnels {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("tunnel selection moved:\n--- got\n%s--- want (%s)\n%s", got.Bytes(), golden, want)
	}
}

// TestSolveConcurrent runs 8 goroutines, each solving 4 demand sets on one
// Planner, and wants every plan equal to the one a lone caller gets. The
// Planner's scenarios, tickets and tunnel table are read-only after planning,
// so this is clean under -race with no lock on Planner.
func TestSolveConcurrent(t *testing.T) {
	tp, p := reactionInstances[0].planner(t, 1)
	ms := traffic.Generate(traffic.Options{Sites: tp.NumRouters(), Count: 4, MaxFlows: 20, TotalGbps: 0.01 * stats.Sum(tp.LinkCaps()), Seed: 8})
	sets := make([][]Demand, len(ms))
	want := make([]*TrafficPlan, len(ms))
	for i, m := range ms {
		for _, f := range m.Flows {
			sets[i] = append(sets[i], Demand{Src: int(tp.Routers[f.Src]), Dst: int(tp.Routers[f.Dst]), Gbps: f.Demand})
		}
		var err error
		if want[i], err = p.Solve(sets[i], SolveOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range sets {
				i := (j + g) % len(sets)
				got, err := p.Solve(sets[i], SolveOptions{})
				if err != nil {
					t.Errorf("goroutine %d, set %d: %v", g, i, err)
					continue
				}
				if !reflect.DeepEqual(got.network, want[i].network) || !reflect.DeepEqual(got.alloc, want[i].alloc) {
					t.Errorf("goroutine %d, set %d: plan differs from a lone caller's", g, i)
				}
			}
		}()
	}
	wg.Wait()
}

// TestBuildTENetworkAllocsIndependentOfDemands: assembling the TE instance
// reads each demand's tunnels off the Planner's table, so it makes the same
// number of allocations for one demand as for every site pair of Facebook.
func TestBuildTENetworkAllocsIndependentOfDemands(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's shadow allocations distort the count")
	}
	tp, err := topo.Facebook(6)
	if err != nil {
		t.Fatal(err)
	}
	p, err := (&Network{opt: tp.Opt}).Plan(PlanOptions{Tickets: 1, Cutoff: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	var all []Demand
	for _, pr := range routerPairs(tp) {
		all = append(all, Demand{Src: int(tp.Routers[pr[0]]), Dst: int(tp.Routers[pr[1]]), Gbps: 1})
	}
	allocs := func(ds []Demand) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := p.buildTENetwork(ds); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, every := allocs(all[:1]), allocs(all)
	t.Logf("%v allocations for one demand, %v for %d", one, every, len(all))
	if one != every {
		t.Errorf("%v allocations for one demand but %v for %d: tunnels are searched or copied per demand", one, every, len(all))
	}
}
