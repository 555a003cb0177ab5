// Package graph provides the directed multigraph and path algorithms used by
// both layers of the ARROW reproduction: the optical-layer fiber graph
// (ROADMs and fibers, where surrogate restoration paths are routed) and the
// IP-layer topology (sites and IP links, where TE tunnels are routed).
//
// It implements Dijkstra shortest paths, Yen's k-shortest loopless paths
// (used for surrogate fiber paths and tunnel selection), and greedy
// edge-disjoint path extraction (used for fiber-disjoint tunnels).
package graph

import (
	"fmt"
	"math"

	"github.com/arrow-te/arrow/internal/pool"
)

// Node identifies a vertex.
type Node int

// Edge is one directed edge of a multigraph.
type Edge struct {
	ID     int // position in the graph's edge list
	From   Node
	To     Node
	Weight float64
	// Label carries the caller's identifier (e.g. fiber or IP-link index).
	Label int
}

// Graph is a directed multigraph. Add nodes implicitly by using them in
// AddEdge. Edges keep insertion order and stable IDs.
type Graph struct {
	n     int
	edges []Edge
	out   [][]int // node -> edge IDs
}

// New returns a graph with n nodes and no edges.
func New(n int) *Graph {
	return &Graph{n: n, out: make([][]int, n)}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edge returns edge metadata by ID.
func (g *Graph) Edge(id int) Edge { return g.edges[id] }

// Edges returns all edges in insertion order. The slice is shared; treat it
// as read-only.
func (g *Graph) Edges() []Edge { return g.edges }

// AddEdge inserts a directed edge and returns its ID.
func (g *Graph) AddEdge(from, to Node, weight float64, label int) int {
	if from < 0 || int(from) >= g.n || to < 0 || int(to) >= g.n {
		panic(fmt.Sprintf("graph: edge %d->%d outside node range [0,%d)", from, to, g.n))
	}
	id := len(g.edges)
	g.edges = append(g.edges, Edge{ID: id, From: from, To: to, Weight: weight, Label: label})
	g.out[from] = append(g.out[from], id)
	return id
}

// AddBiEdge inserts a pair of opposite directed edges with the same label
// and returns their IDs.
func (g *Graph) AddBiEdge(a, b Node, weight float64, label int) (int, int) {
	return g.AddEdge(a, b, weight, label), g.AddEdge(b, a, weight, label)
}

// Out returns the IDs of edges leaving n. Read-only.
func (g *Graph) Out(n Node) []int { return g.out[n] }

// Path is a sequence of edge IDs with its total weight.
type Path struct {
	Edges  []int
	Weight float64
}

// Nodes expands a path to its node sequence (length len(Edges)+1).
func (p Path) Nodes(g *Graph) []Node {
	if len(p.Edges) == 0 {
		return nil
	}
	return p.appendNodes(g, make([]Node, 0, len(p.Edges)+1))
}

// appendNodes appends the path's node sequence to out.
func (p Path) appendNodes(g *Graph, out []Node) []Node {
	if len(p.Edges) == 0 {
		return out
	}
	out = append(out, g.edges[p.Edges[0]].From)
	for _, id := range p.Edges {
		out = append(out, g.edges[id].To)
	}
	return out
}

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	node Node
	dist float64
}

// search is the reusable state of the path searches: Dijkstra's distance,
// predecessor and heap buffers, and the bans and candidate list of Yen's
// algorithm. A search sized once for a graph runs any number of searches on
// it without allocating; what a search returns is copied out of it.
type search struct {
	dist []float64
	prev []int // edge entering each node on its best known path
	heap []pqItem
	path []int // edges of the last path found; valid until the next run

	// Yen's per-spur bans. A slot is banned while it holds gen, so lifting
	// every ban is one increment.
	gen        uint32
	edgeBanned []uint32 // by edge ID
	nodeBanned []uint32 // by node

	nodes     []Node      // node sequence of the last accepted path
	cands     []candidate // pending candidates, oldest first
	candEdges []int       // their edges, back to back
}

// candidate is a pending k-shortest path: candEdges[lo:hi] and its weight.
type candidate struct {
	lo, hi int
	weight float64
}

// searchPool hands searches between callers, so a steady stream of searches
// on graphs of one size allocates only the paths it returns.
var searchPool pool.Free[search]

// begin sizes the buffers for g and lifts every ban.
func (s *search) begin(g *Graph) {
	if cap(s.dist) < g.n {
		s.dist = make([]float64, g.n)
		s.prev = make([]int, g.n)
		s.nodeBanned = make([]uint32, g.n)
	}
	s.dist, s.prev, s.nodeBanned = s.dist[:g.n], s.prev[:g.n], s.nodeBanned[:g.n]
	if cap(s.edgeBanned) < len(g.edges) {
		s.edgeBanned = make([]uint32, len(g.edges))
	}
	s.edgeBanned = s.edgeBanned[:len(g.edges)]
	s.liftBans()
}

// liftBans starts a new ban generation.
func (s *search) liftBans() {
	s.gen++
	if s.gen == 0 { // wrapped: stale stamps could match again
		clear(s.edgeBanned[:cap(s.edgeBanned)])
		clear(s.nodeBanned[:cap(s.nodeBanned)])
		s.gen = 1
	}
}

// push and pop are container/heap's Push and Pop on s.heap ordered by dist,
// sift for sift, so equal-distance entries leave in the order they always
// have.
func (s *search) push(it pqItem) {
	h := append(s.heap, it)
	j := len(h) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	s.heap = h
}

func (s *search) pop() pqItem {
	h := s.heap
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].dist < h[j1].dist {
			j = j2
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	s.heap = h[:n]
	return h[n]
}

// run is Dijkstra from src to dst on g without the edges that are banned,
// that enter a banned node, whose label is set in avoid, or for which skip
// (when non-nil) returns true. It leaves the path's edges in s.path and
// returns its weight; ok is false when dst is unreachable. Leaving an edge
// out this way visits the remaining edges in the order a copy of g built
// without it would, so ties break the same way.
func (s *search) run(g *Graph, src, dst Node, avoid []bool, skip func(edgeID int) bool) (weight float64, ok bool) {
	dist, prev := s.dist, s.prev
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0
	s.heap = append(s.heap[:0], pqItem{src, 0})
	for len(s.heap) > 0 {
		it := s.pop()
		if it.dist > dist[it.node] {
			continue
		}
		if it.node == dst {
			break
		}
		for _, id := range g.out[it.node] {
			e := &g.edges[id]
			if s.edgeBanned[id] == s.gen || s.nodeBanned[e.To] == s.gen {
				continue
			}
			if uint(e.Label) < uint(len(avoid)) && avoid[e.Label] {
				continue
			}
			if skip != nil && skip(id) {
				continue
			}
			if e.To == e.From {
				continue // a self-loop is on no shortest path
			}
			if e.Weight < 0 {
				panic("graph: negative edge weight")
			}
			if nd := it.dist + e.Weight; nd < dist[e.To] {
				dist[e.To] = nd
				prev[e.To] = id
				s.push(pqItem{e.To, nd})
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return 0, false
	}
	path := s.path[:0]
	for at := dst; at != src; {
		id := prev[at]
		path = append(path, id)
		at = g.edges[id].From
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	s.path = path
	return dist[dst], true
}

// ShortestPath returns the minimum-weight path from src to dst, skipping
// edges for which banned returns true (banned may be nil). ok is false when
// dst is unreachable.
func (g *Graph) ShortestPath(src, dst Node, banned func(edgeID int) bool) (Path, bool) {
	s := searchPool.Get()
	defer searchPool.Put(s)
	s.begin(g)
	w, ok := s.run(g, src, dst, nil, banned)
	if !ok {
		return Path{}, false
	}
	return Path{Edges: append([]int(nil), s.path...), Weight: w}, true
}

// KShortestPaths returns up to k loopless shortest paths from src to dst in
// ascending weight order (Yen's algorithm). maxWeight, if positive, prunes
// paths longer than it (used for modulation reach bounds).
func (g *Graph) KShortestPaths(src, dst Node, k int, maxWeight float64) []Path {
	return g.KShortestPathsAvoiding(src, dst, k, maxWeight, nil)
}

// KShortestPathsAvoiding is KShortestPaths on g without the edges whose
// label l has avoid[l] set (labels beyond avoid are kept): the paths, and
// their order among equal weights, are those of a copy of g built without
// those edges, found without building it. Only the returned paths are
// allocated.
func (g *Graph) KShortestPathsAvoiding(src, dst Node, k int, maxWeight float64, avoid []bool) []Path {
	if k <= 0 {
		return nil
	}
	s := searchPool.Get()
	defer searchPool.Put(s)
	s.begin(g)

	within := func(w float64) bool { return maxWeight <= 0 || w <= maxWeight+1e-9 }
	w, ok := s.run(g, src, dst, avoid, nil)
	if !ok || !within(w) {
		return nil
	}
	// A k far beyond the paths that exist must not size the result.
	accepted := append(make([]Path, 0, min(k, 8)), Path{Edges: append([]int(nil), s.path...), Weight: w})
	s.cands, s.candEdges = s.cands[:0], s.candEdges[:0]

	for len(accepted) < k {
		prev := accepted[len(accepted)-1]
		s.nodes = prev.appendNodes(g, s.nodes[:0])
		// Spur from each node of the previous path.
		for i := 0; i < len(prev.Edges); i++ {
			spurNode := s.nodes[i]
			rootEdges := prev.Edges[:i]
			rootWeight := 0.0
			for _, id := range rootEdges {
				rootWeight += g.edges[id].Weight
			}
			s.liftBans()
			// Ban edges that would recreate an accepted path with this root.
			for _, p := range accepted {
				if len(p.Edges) > i && equalInts(p.Edges[:i], rootEdges) {
					s.edgeBanned[p.Edges[i]] = s.gen
				}
			}
			// Ban root nodes to keep paths loopless.
			for _, n := range s.nodes[:i] {
				s.nodeBanned[n] = s.gen
			}
			spurWeight, ok := s.run(g, spurNode, dst, avoid, nil)
			if !ok {
				continue
			}
			total := rootWeight + spurWeight
			if !within(total) {
				continue
			}
			lo := len(s.candEdges)
			s.candEdges = append(append(s.candEdges, rootEdges...), s.path...)
			edges := s.candEdges[lo:]
			dup := false
			for _, c := range s.cands {
				if equalInts(s.candEdges[c.lo:c.hi], edges) {
					dup = true
					break
				}
			}
			for _, a := range accepted {
				if equalInts(a.Edges, edges) {
					dup = true
					break
				}
			}
			if dup {
				s.candEdges = s.candEdges[:lo]
				continue
			}
			s.cands = append(s.cands, candidate{lo: lo, hi: len(s.candEdges), weight: total})
		}
		if len(s.cands) == 0 {
			break
		}
		// The lightest candidate, the oldest among equals: the head of the
		// list were it kept stably sorted by weight.
		best := 0
		for c := range s.cands {
			if s.cands[c].weight < s.cands[best].weight {
				best = c
			}
		}
		c := s.cands[best]
		accepted = append(accepted, Path{Edges: append([]int(nil), s.candEdges[c.lo:c.hi]...), Weight: c.weight})
		s.cands = append(s.cands[:best], s.cands[best+1:]...)
	}
	return accepted
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
