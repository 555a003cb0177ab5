package graph

import (
	"math"
	"math/rand"
	"testing"
)

// lineGraph builds 0-1-2-...-n-1 with unit weights, bidirectional.
func lineGraph(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddBiEdge(Node(i), Node(i+1), 1, i)
	}
	return g
}

func TestShortestPathLine(t *testing.T) {
	g := lineGraph(5)
	p, ok := g.ShortestPath(0, 4, nil)
	if !ok || p.Weight != 4 || len(p.Edges) != 4 {
		t.Fatalf("path %+v ok=%v", p, ok)
	}
	nodes := p.Nodes(g)
	for i, n := range nodes {
		if n != Node(i) {
			t.Fatalf("nodes %v", nodes)
		}
	}
}

func TestShortestPathPrefersLowWeight(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 2, 10, 0) // direct but heavy
	g.AddEdge(0, 1, 1, 1)
	g.AddEdge(1, 2, 1, 2)
	p, ok := g.ShortestPath(0, 2, nil)
	if !ok || p.Weight != 2 || len(p.Edges) != 2 {
		t.Fatalf("path %+v", p)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1, 0)
	if _, ok := g.ShortestPath(0, 3, nil); ok {
		t.Fatal("expected unreachable")
	}
}

func TestShortestPathBannedEdges(t *testing.T) {
	g := New(3)
	short := g.AddEdge(0, 2, 1, 0)
	g.AddEdge(0, 1, 2, 1)
	g.AddEdge(1, 2, 2, 2)
	p, ok := g.ShortestPath(0, 2, func(id int) bool { return id == short })
	if !ok || p.Weight != 4 {
		t.Fatalf("detour path %+v", p)
	}
}

func TestMultigraphParallelEdges(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 5, 0)
	cheap := g.AddEdge(0, 1, 2, 1)
	p, ok := g.ShortestPath(0, 1, nil)
	if !ok || p.Edges[0] != cheap {
		t.Fatalf("want parallel edge %d, got %+v", cheap, p)
	}
}

func TestKShortestPathsDiamond(t *testing.T) {
	// Diamond: 0->1->3 (w 2), 0->2->3 (w 3), 0->3 (w 4).
	g := New(4)
	g.AddEdge(0, 1, 1, 0)
	g.AddEdge(1, 3, 1, 1)
	g.AddEdge(0, 2, 1, 2)
	g.AddEdge(2, 3, 2, 3)
	g.AddEdge(0, 3, 4, 4)
	ps := g.KShortestPaths(0, 3, 5, 0)
	if len(ps) != 3 {
		t.Fatalf("got %d paths, want 3: %+v", len(ps), ps)
	}
	wantW := []float64{2, 3, 4}
	for i, p := range ps {
		if p.Weight != wantW[i] {
			t.Fatalf("path %d weight %g want %g", i, p.Weight, wantW[i])
		}
	}
}

func TestKShortestPathsMaxWeight(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1, 0)
	g.AddEdge(1, 3, 1, 1)
	g.AddEdge(0, 2, 1, 2)
	g.AddEdge(2, 3, 2, 3)
	g.AddEdge(0, 3, 4, 4)
	ps := g.KShortestPaths(0, 3, 5, 3)
	if len(ps) != 2 {
		t.Fatalf("got %d paths with reach bound 3, want 2", len(ps))
	}
}

func TestKShortestPathsLoopless(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := New(8)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if i != j && rng.Float64() < 0.4 {
				g.AddEdge(Node(i), Node(j), 1+rng.Float64()*4, i*8+j)
			}
		}
	}
	ps := g.KShortestPaths(0, 7, 12, 0)
	prevW := 0.0
	for pi, p := range ps {
		if p.Weight < prevW-1e-12 {
			t.Fatalf("paths not sorted: %v", ps)
		}
		prevW = p.Weight
		seen := map[Node]bool{}
		for _, n := range p.Nodes(g) {
			if seen[n] {
				t.Fatalf("path %d revisits node %d", pi, n)
			}
			seen[n] = true
		}
		// Check connectivity of the edge sequence.
		for i := 0; i+1 < len(p.Edges); i++ {
			if g.Edge(p.Edges[i]).To != g.Edge(p.Edges[i+1]).From {
				t.Fatalf("path %d not connected", pi)
			}
		}
	}
	// All paths distinct.
	for i := range ps {
		for j := i + 1; j < len(ps); j++ {
			if equalInts(ps[i].Edges, ps[j].Edges) {
				t.Fatalf("duplicate paths %d and %d", i, j)
			}
		}
	}
}

func TestKShortestAgainstBruteForce(t *testing.T) {
	// Enumerate all simple paths on a random small graph and compare the
	// sorted weights with Yen's output.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		n := 5
		g := New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < 0.5 {
					g.AddEdge(Node(i), Node(j), float64(1+rng.Intn(9)), 0)
				}
			}
		}
		var all []float64
		var dfs func(at Node, visited map[Node]bool, w float64)
		dfs = func(at Node, visited map[Node]bool, w float64) {
			if at == Node(n-1) {
				all = append(all, w)
				return
			}
			for _, id := range g.Out(at) {
				e := g.Edge(id)
				if !visited[e.To] {
					visited[e.To] = true
					dfs(e.To, visited, w+e.Weight)
					delete(visited, e.To)
				}
			}
		}
		dfs(0, map[Node]bool{0: true}, 0)
		if len(all) == 0 {
			continue
		}
		// sort ascending
		for i := range all {
			for j := i + 1; j < len(all); j++ {
				if all[j] < all[i] {
					all[i], all[j] = all[j], all[i]
				}
			}
		}
		k := len(all)
		ps := g.KShortestPaths(0, Node(n-1), k, 0)
		if len(ps) != k {
			t.Fatalf("trial %d: got %d paths, brute force found %d", trial, len(ps), k)
		}
		for i := range ps {
			if math.Abs(ps[i].Weight-all[i]) > 1e-9 {
				t.Fatalf("trial %d: path %d weight %g want %g", trial, i, ps[i].Weight, all[i])
			}
		}
	}
}
