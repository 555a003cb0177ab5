package graph

import (
	"container/heap"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"github.com/arrow-te/arrow/internal/race"
)

// The reference the masked, buffer-reusing search is tested against: the
// search as it was — container/heap, a fresh dist/prev per run, maps for
// Yen's bans, a stable sort of the candidates — run on a copy of the graph
// built without the avoided fibers.

type refPQ []pqItem

func (q refPQ) Len() int            { return len(q) }
func (q refPQ) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q refPQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refPQ) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *refPQ) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

func refShortestPath(g *Graph, src, dst Node, banned func(edgeID int) bool) (Path, bool) {
	dist := make([]float64, g.n)
	prev := make([]int, g.n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0
	q := &refPQ{{src, 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if it.dist > dist[it.node] {
			continue
		}
		if it.node == dst {
			break
		}
		for _, id := range g.out[it.node] {
			if banned != nil && banned(id) {
				continue
			}
			e := &g.edges[id]
			if nd := it.dist + e.Weight; nd < dist[e.To] {
				dist[e.To] = nd
				prev[e.To] = id
				heap.Push(q, pqItem{e.To, nd})
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return Path{}, false
	}
	var rev []int
	for at := dst; at != src; {
		id := prev[at]
		rev = append(rev, id)
		at = g.edges[id].From
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return Path{Edges: rev, Weight: dist[dst]}, true
}

func refKShortestPaths(g *Graph, src, dst Node, k int, maxWeight float64) []Path {
	if k <= 0 {
		return nil
	}
	within := func(p Path) bool { return maxWeight <= 0 || p.Weight <= maxWeight+1e-9 }
	first, ok := refShortestPath(g, src, dst, nil)
	if !ok || !within(first) {
		return nil
	}
	accepted := []Path{first}
	var candidates []Path
	for len(accepted) < k {
		prev := accepted[len(accepted)-1]
		prevNodes := prev.Nodes(g)
		for i := 0; i < len(prev.Edges); i++ {
			spurNode := prevNodes[i]
			rootEdges := prev.Edges[:i]
			rootWeight := 0.0
			for _, id := range rootEdges {
				rootWeight += g.edges[id].Weight
			}
			bannedEdges := map[int]bool{}
			bannedNodes := map[Node]bool{}
			for _, p := range accepted {
				if len(p.Edges) > i && equalInts(p.Edges[:i], rootEdges) {
					bannedEdges[p.Edges[i]] = true
				}
			}
			for _, n := range prevNodes[:i] {
				bannedNodes[n] = true
			}
			spur, ok := refShortestPath(g, spurNode, dst, func(id int) bool {
				return bannedEdges[id] || bannedNodes[g.edges[id].From] || bannedNodes[g.edges[id].To]
			})
			if !ok {
				continue
			}
			total := Path{
				Edges:  append(append([]int(nil), rootEdges...), spur.Edges...),
				Weight: rootWeight + spur.Weight,
			}
			if !within(total) {
				continue
			}
			dup := false
			for _, c := range candidates {
				if equalInts(c.Edges, total.Edges) {
					dup = true
					break
				}
			}
			for _, a := range accepted {
				if equalInts(a.Edges, total.Edges) {
					dup = true
					break
				}
			}
			if !dup {
				candidates = append(candidates, total)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.SliceStable(candidates, func(a, b int) bool { return candidates[a].Weight < candidates[b].Weight })
		accepted = append(accepted, candidates[0])
		candidates = candidates[1:]
	}
	return accepted
}

// filteredCopy is the per-failed-link graph the RWA used to build: every
// fiber of g that is not avoided and not a self-loop, added once in both
// directions.
func filteredCopy(g *Graph, avoid []bool) *Graph {
	fg := New(g.NumNodes())
	for _, e := range g.Edges() {
		if e.From < e.To && !(e.Label < len(avoid) && avoid[e.Label]) {
			fg.AddBiEdge(e.From, e.To, e.Weight, e.Label)
		}
	}
	return fg
}

// fiberGraph draws a multigraph the way optical.Network.Graph builds one: a
// pair of opposite edges per fiber, labelled with the fiber's index. Weights
// come from a handful of values so that equal-weight ties are the rule, and
// parallel fibers and self-loops are common.
func fiberGraph(rng *rand.Rand, nodes, fibers int) *Graph {
	g := New(nodes)
	for f := 0; f < fibers; f++ {
		a, b := Node(rng.Intn(nodes)), Node(rng.Intn(nodes))
		if rng.Intn(4) == 0 && f > 0 { // a fiber parallel to an earlier one
			e := g.Edge(2 * rng.Intn(f))
			a, b = e.From, e.To
		}
		g.AddBiEdge(a, b, float64(1+rng.Intn(3)), f)
	}
	return g
}

// byLabel rewrites paths from edge IDs to edge labels, the form in which a
// graph and its filtered copy can be compared.
func byLabel(g *Graph, ps []Path) []Path {
	out := make([]Path, len(ps))
	for i, p := range ps {
		out[i].Weight = p.Weight
		for _, id := range p.Edges {
			out[i].Edges = append(out[i].Edges, g.Edge(id).Label)
		}
	}
	return out
}

func TestMaskedSearchMatchesFilteredCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	checked, nonEmpty := 0, 0
	for trial := 0; trial < 300; trial++ {
		nodes := 3 + rng.Intn(8)
		fibers := nodes + rng.Intn(2*nodes)
		g := fiberGraph(rng, nodes, fibers)
		// A mask that is shorter or longer than the fiber list: labels
		// beyond it are kept, entries beyond the labels are ignored.
		avoid := make([]bool, rng.Intn(fibers+4))
		for i := range avoid {
			avoid[i] = rng.Intn(5) == 0
		}
		fg := filteredCopy(g, avoid)
		for q := 0; q < 6; q++ {
			src, dst := Node(rng.Intn(nodes)), Node(rng.Intn(nodes))
			k := 1 + rng.Intn(5)
			maxWeight := 0.0
			if rng.Intn(2) == 0 {
				maxWeight = float64(2 + rng.Intn(6))
			}
			want := byLabel(fg, refKShortestPaths(fg, src, dst, k, maxWeight))
			got := byLabel(g, g.KShortestPathsAvoiding(src, dst, k, maxWeight, avoid))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: %d->%d k=%d max=%g avoid=%v\n got %v\nwant %v", trial, src, dst, k, maxWeight, avoid, got, want)
			}
			checked++
			if len(got) > 1 {
				nonEmpty++
			}
		}
	}
	if nonEmpty < checked/4 {
		t.Fatalf("only %d of %d queries found more than one path: the graphs are too sparse to test ties", nonEmpty, checked)
	}
}

// Without a mask the search runs on the graph itself, so even the edge IDs
// must be the reference's; ShortestPath's banned callback likewise.
func TestSearchMatchesReferenceOnGeneralGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 200; trial++ {
		nodes := 2 + rng.Intn(9)
		g := New(nodes)
		for e, edges := 0, rng.Intn(4*nodes); e < edges; e++ {
			g.AddEdge(Node(rng.Intn(nodes)), Node(rng.Intn(nodes)), float64(rng.Intn(4)), rng.Intn(6))
		}
		src, dst := Node(rng.Intn(nodes)), Node(rng.Intn(nodes))
		k := 1 + rng.Intn(6)
		if got, want := g.KShortestPaths(src, dst, k, 0), refKShortestPaths(g, src, dst, k, 0); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: KShortestPaths(%d,%d,%d)\n got %v\nwant %v", trial, src, dst, k, got, want)
		}
		bannedLabel := rng.Intn(6)
		banned := func(id int) bool { return g.Edge(id).Label == bannedLabel }
		gotP, gotOK := g.ShortestPath(src, dst, banned)
		wantP, wantOK := refShortestPath(g, src, dst, banned)
		if gotOK != wantOK || !reflect.DeepEqual(gotP, wantP) {
			t.Fatalf("trial %d: ShortestPath(%d,%d) got %v %v, want %v %v", trial, src, dst, gotP, gotOK, wantP, wantOK)
		}
	}
}

// A self-loop is left out of the search the way the filtered copy left it
// out, whatever its weight: it must not even reach the negative-weight check.
func TestSearchIgnoresSelfLoops(t *testing.T) {
	g := New(3)
	g.AddBiEdge(0, 1, 1, 0)
	g.AddBiEdge(1, 1, -5, 1)
	g.AddBiEdge(1, 2, 1, 2)
	ps := g.KShortestPathsAvoiding(0, 2, 3, 0, nil)
	if len(ps) != 1 || ps[0].Weight != 2 || len(ps[0].Edges) != 2 {
		t.Fatalf("paths %v", ps)
	}
}

func searchFixture() (*Graph, []bool) {
	g := fiberGraph(rand.New(rand.NewSource(5)), 12, 40)
	avoid := make([]bool, 40)
	avoid[3], avoid[17] = true, true
	return g, avoid
}

func TestSearchAllocatesOnlyReturnedPaths(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	g, avoid := searchFixture()
	for _, k := range []int{1, 3, 6} {
		var paths []Path
		run := func() { paths = g.KShortestPathsAvoiding(0, 11, k, 0, avoid) }
		run() // size the pooled search
		if len(paths) != k {
			t.Fatalf("k=%d: fixture yields %d paths", k, len(paths))
		}
		// The result slice and one edge list per path.
		if got, want := testing.AllocsPerRun(50, run), float64(1+len(paths)); got > want {
			t.Errorf("k=%d: %.0f allocations per search, want at most %.0f", k, got, want)
		}
	}
	var p Path
	run := func() { p, _ = g.ShortestPath(0, 11, nil) }
	run()
	if got := testing.AllocsPerRun(50, run); got > 1 || len(p.Edges) == 0 {
		t.Errorf("ShortestPath: %.0f allocations, path %v", got, p)
	}
}

// Searches on one graph from several goroutines share nothing but the graph
// and the pool the searches come from (run under -race).
func TestSearchConcurrent(t *testing.T) {
	g, avoid := searchFixture()
	want := g.KShortestPathsAvoiding(0, 11, 4, 0, avoid)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got := g.KShortestPathsAvoiding(0, 11, 4, 0, avoid); !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent search returned %v, want %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

var benchPaths []Path

func BenchmarkKShortestMasked(b *testing.B) {
	g, avoid := searchFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPaths = g.KShortestPathsAvoiding(Node(i%12), Node((i+5)%12), 3, 0, avoid)
	}
}
