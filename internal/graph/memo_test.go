package graph

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// memoGraph draws a fiber multigraph like fiberGraph, with integer weights
// from [1, spread] — spread 1 makes every path of a hop count tie, a wide
// spread makes ties rare — or, when fractional is set, weights with a
// fractional part, on which the memo must never answer from its lists.
func memoGraph(rng *rand.Rand, nodes, fibers, spread int, fractional bool) *Graph {
	g := New(nodes)
	for f := 0; f < fibers; f++ {
		a, b := Node(rng.Intn(nodes)), Node(rng.Intn(nodes))
		if rng.Intn(4) == 0 && f > 0 {
			e := g.Edge(2 * rng.Intn(f))
			a, b = e.From, e.To
		}
		w := float64(1 + rng.Intn(spread))
		if fractional {
			w += 0.1 * float64(1+rng.Intn(9))
		}
		g.AddBiEdge(a, b, w, f)
	}
	return g
}

// sameAnswer compares two path lists edge for edge and weight bit for bit.
func sameAnswer(got, want []Path) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !reflect.DeepEqual(got[i].Edges, want[i].Edges) || math.Float64bits(got[i].Weight) != math.Float64bits(want[i].Weight) {
			return false
		}
	}
	return true
}

// checkMemo asks a memo over g a run of random masked questions and compares
// every answer with KShortestPathsAvoiding's. It returns how many the ranked
// lists answered.
func checkMemo(t *testing.T, rng *rand.Rand, g *Graph, queries int) (ranked int) {
	t.Helper()
	m := NewPathMemo(g)
	nodes, fibers := g.NumNodes(), g.NumEdges()/2
	for q := 0; q < queries; q++ {
		avoid := make([]bool, rng.Intn(fibers+3))
		for i := range avoid {
			avoid[i] = rng.Intn(4) == 0
		}
		src, dst := Node(rng.Intn(nodes)), Node(rng.Intn(nodes))
		k := rng.Intn(5)
		maxWeight := 0.0
		if rng.Intn(2) == 0 {
			maxWeight = float64(2 + rng.Intn(40))
		}
		want := g.KShortestPathsAvoiding(src, dst, k, maxWeight, avoid)
		prefix := []Path{{Weight: -1}} // the answer is appended after what is there
		got := m.KShortestPathsAvoiding(prefix, src, dst, k, maxWeight, avoid)
		if got[0].Weight != -1 || !sameAnswer(got[1:], want) {
			t.Fatalf("%d->%d k=%d max=%g avoid=%v\n memo %v\n want %v", src, dst, k, maxWeight, avoid, got[1:], want)
		}
		if _, ok := m.lookup(nil, src, dst, k, maxWeight, avoid); ok && k > 0 {
			ranked++
		}
	}
	return ranked
}

// FuzzPathMemo holds the memo to the masked search on small multigraphs with
// parallel fibers, self-loops, deliberate ties and random masks: the same
// edges and the same weight bits, whether the ranked list or the search
// answers. The seed corpus runs in every go test.
func FuzzPathMemo(f *testing.F) {
	for _, seed := range []struct {
		seed          int64
		nodes, fibers uint8
		spread        uint16
		fractional    bool
	}{
		{1, 5, 8, 1, false},      // every hop count ties
		{2, 8, 14, 3, false},     // ties are the rule
		{3, 10, 18, 1000, false}, // ties are rare: the lists answer
		{4, 12, 22, 50, false},
		{5, 6, 12, 20, true}, // fractional weights: the search answers
		{6, 3, 9, 2, false},  // dense in parallel fibers
	} {
		f.Add(seed.seed, seed.nodes, seed.fibers, seed.spread, seed.fractional)
	}
	f.Fuzz(func(t *testing.T, seed int64, nodes, fibers uint8, spread uint16, fractional bool) {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nodes)%14
		g := memoGraph(rng, n, 1+int(fibers)%(3*n), 1+int(spread)%2000, fractional)
		checkMemo(t, rng, g, 40)
	})
}

// The lists must carry the load where they can: with widely spread integer
// weights most questions are answered without a search, and with fractional
// weights none is.
func TestPathMemoAnswersFromRankedLists(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ranked, asked := 0, 0
	for trial := 0; trial < 40; trial++ {
		nodes := 5 + rng.Intn(8)
		g := memoGraph(rng, nodes, nodes+rng.Intn(2*nodes), 1000, false)
		ranked += checkMemo(t, rng, g, 50)
		asked += 50
		if got := checkMemo(t, rng, memoGraph(rng, nodes, 2*nodes, 1000, true), 20); got != 0 {
			t.Fatalf("trial %d: %d questions answered from lists on fractional weights", trial, got)
		}
	}
	if ranked < asked*3/4 {
		t.Errorf("the ranked lists answered %d of %d questions", ranked, asked)
	}
}
