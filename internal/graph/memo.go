package graph

import (
	"math"
	"sync"
)

// PathMemo answers KShortestPathsAvoiding for many masks on one graph from a
// single unmasked search per (src, dst, maxWeight): the k shortest paths that
// avoid a mask are the first k paths of the unmasked ranked list that avoid
// it. That holds exactly — the same edges, the same weight bits — only when
//
//   - every edge weight is an integer (and their sum is below 2^53), so a
//     path's weight is one float whatever order its edges are summed in, and
//     the masked search's root-plus-spur sum equals the ranked list's; and
//   - the first k+1 paths that avoid the mask have pairwise different
//     weights, so neither the set of k nor their order is left to the search's
//     tie-breaking.
//
// A query that fails either condition, or that reaches the end of a truncated
// list before it has seen k+1 avoiding paths, is answered by
// Graph.KShortestPathsAvoiding itself, after the list has been deepened up to
// maxRankDepth. The answer is therefore always the masked search's, in
// whatever order the queries arrive. A PathMemo is safe for concurrent use;
// the graph must not change while it is in use.
type PathMemo struct {
	g *Graph
	// exact is the first condition, checked once for the whole graph.
	exact bool

	mu    sync.Mutex
	lists map[rankKey]*rankedList
}

type rankKey struct {
	src, dst  Node
	maxWeight float64
}

// rankedList is the start of the unmasked k-shortest list. Once published it
// is never written again; a deeper list replaces it.
type rankedList struct {
	paths []Path
	// complete says the search ran out of paths: every loopless path within
	// maxWeight is listed.
	complete bool
}

// A list starts k+1 paths deep, enough for the first question about its
// endpoints when that question's cut spares the shortest paths; a question
// that needs more doubles the depth, up to maxRankDepth.
const maxRankDepth = 256

// NewPathMemo returns an empty memo over g.
func NewPathMemo(g *Graph) *PathMemo {
	m := &PathMemo{g: g, exact: true, lists: map[rankKey]*rankedList{}}
	total := 0.0
	for _, e := range g.edges {
		if e.From == e.To {
			continue // a self-loop is on no path
		}
		if e.Weight != math.Trunc(e.Weight) {
			m.exact = false
		}
		total += math.Abs(e.Weight)
	}
	if total >= 1<<53 {
		m.exact = false
	}
	return m
}

// KShortestPathsAvoiding appends to out the paths
// g.KShortestPathsAvoiding(src, dst, k, maxWeight, avoid) returns, and
// returns the extended slice. Paths answered from a ranked list share their
// Edges with the memo: treat them as read-only.
func (m *PathMemo) KShortestPathsAvoiding(out []Path, src, dst Node, k int, maxWeight float64, avoid []bool) []Path {
	if got, ok := m.lookup(out, src, dst, k, maxWeight, avoid); ok {
		return got
	}
	return append(out, m.g.KShortestPathsAvoiding(src, dst, k, maxWeight, avoid)...)
}

// lookup is KShortestPathsAvoiding from the ranked lists alone: ok is false
// when they cannot answer exactly, and out is then returned unextended.
func (m *PathMemo) lookup(out []Path, src, dst Node, k int, maxWeight float64, avoid []bool) ([]Path, bool) {
	if k <= 0 {
		return out, true
	}
	if !m.exact {
		return out, false
	}
	key := rankKey{src, dst, maxWeight}
	for depth := k + 1; ; {
		r := m.list(key, depth)
		got, ok, deeper := m.answer(r, out, k, avoid)
		if !deeper || len(r.paths) >= maxRankDepth {
			return got, ok
		}
		depth = 2 * len(r.paths)
	}
}

// list returns the ranked list for key, searching it anew when the one held
// is truncated above depth paths.
func (m *PathMemo) list(key rankKey, depth int) *rankedList {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.lists[key]
	if r == nil || (!r.complete && len(r.paths) < depth) {
		paths := m.g.KShortestPathsAvoiding(key.src, key.dst, depth, key.maxWeight, nil)
		r = &rankedList{paths: paths, complete: len(paths) < depth}
		m.lists[key] = r
	}
	return r
}

// answer appends to out the first k paths of r that avoid the mask. ok says
// they are the masked search's answer; deeper says r ended too soon to tell.
func (m *PathMemo) answer(r *rankedList, out []Path, k int, avoid []bool) (_ []Path, ok, deeper bool) {
	lo := len(out)
	for _, p := range r.paths {
		if m.crosses(p, avoid) {
			continue
		}
		if len(out) > lo && p.Weight == out[len(out)-1].Weight {
			return out[:lo], false, false // a tie the masked search breaks its own way
		}
		if len(out)-lo == k {
			return out, true, false
		}
		out = append(out, p)
	}
	if r.complete {
		return out, true, false
	}
	return out[:lo], false, true
}

// crosses reports whether p uses an edge whose label the mask sets.
func (m *PathMemo) crosses(p Path, avoid []bool) bool {
	for _, id := range p.Edges {
		if l := m.g.edges[id].Label; uint(l) < uint(len(avoid)) && avoid[l] {
			return true
		}
	}
	return false
}
