// Package topo builds the evaluation topologies of the ARROW paper
// (Table 4): B4 and IBM as published optical-layer graphs, and a synthetic
// Facebook backbone matching the paper's inventory (34 routers, 84 ROADMs,
// 156 fibers, 262 IP links). IP-layer overlays are generated following the
// measured distributions of Appendix A.8 / Fig. 22 (IP links per fiber,
// wavelengths per IP link), and tunnels are selected with fiber-disjoint
// preference followed by k-shortest paths, as in §6.
package topo

import (
	"fmt"
	"math/rand"
	"slices"

	"github.com/arrow-te/arrow/internal/graph"
	"github.com/arrow-te/arrow/internal/optical"
	"github.com/arrow-te/arrow/internal/scenario"
	"github.com/arrow-te/arrow/internal/spectrum"
	"github.com/arrow-te/arrow/internal/te"
)

// SRLG is one shared-risk link group, in the scenario enumerator's own type
// so a topology's groups feed it without conversion.
type SRLG = scenario.Group

// Topology is one evaluation network: an optical layer with provisioned IP
// links, plus the router-site view used by the TE.
type Topology struct {
	Name string
	Opt  *optical.Network
	// Routers lists the ROADM sites that host routers (IP-layer nodes).
	// Router index r corresponds to IP node r.
	Routers []optical.ROADM
	// SRLGs lists the topology's shared-risk link groups (conduit
	// groupings). Empty on topologies without correlated-failure data;
	// consumers that do not opt into SRLG-aware enumeration ignore them.
	SRLGs []SRLG
	// routerOf maps ROADM -> router index (-1 for pass-through ROADMs).
	routerOf []int

	ipGraph *graph.Graph
}

// NumRouters returns the number of IP-layer nodes.
func (t *Topology) NumRouters() int { return len(t.Routers) }

// RouterOf returns the router index of a ROADM, or -1.
func (t *Topology) RouterOf(r optical.ROADM) int { return t.routerOf[r] }

// LinkCaps returns c_e for every IP link, in Gbps.
func (t *Topology) LinkCaps() []float64 {
	out := make([]float64, len(t.Opt.IPLinks))
	for i, l := range t.Opt.IPLinks {
		out[i] = l.CapacityGbps()
	}
	return out
}

// IPGraph returns (lazily building) the IP-layer graph: nodes are routers,
// one pair of directed edges per IP link (label = IP link ID, weight 1).
func (t *Topology) IPGraph() *graph.Graph {
	if t.ipGraph == nil {
		g := graph.New(len(t.Routers))
		for _, l := range t.Opt.IPLinks {
			a, b := t.routerOf[l.Src], t.routerOf[l.Dst]
			if a < 0 || b < 0 {
				panic(fmt.Sprintf("topo: IP link %d terminates on non-router ROADM", l.ID))
			}
			g.AddBiEdge(graph.Node(a), graph.Node(b), 1, l.ID)
		}
		t.ipGraph = g
	}
	return t.ipGraph
}

// LinkFibers returns the set of fiber IDs underlying each IP link, ascending.
func (t *Topology) LinkFibers() [][]int {
	out := make([][]int, len(t.Opt.IPLinks))
	for i, l := range t.Opt.IPLinks {
		for _, w := range l.Waves {
			out[i] = append(out[i], w.FiberPath...)
		}
		slices.Sort(out[i])
		out[i] = slices.Compact(out[i])
	}
	return out
}

// Stats summarises the topology for Table 4.
type Stats struct {
	Routers, ROADMs, Fibers, IPLinks, Wavelengths int
	TotalCapacityGbps                             float64
}

// Stats computes the Table 4 inventory row.
func (t *Topology) Stats() Stats {
	s := Stats{
		Routers: len(t.Routers),
		ROADMs:  t.Opt.NumROADMs,
		Fibers:  len(t.Opt.Fibers),
		IPLinks: len(t.Opt.IPLinks),
	}
	for _, l := range t.Opt.IPLinks {
		s.Wavelengths += len(l.Waves)
		s.TotalCapacityGbps += l.CapacityGbps()
	}
	return s
}

// Tunnels selects up to k tunnels for the flow between routers src and dst:
// first greedily fiber-disjoint shortest paths, then the remaining
// k-shortest loopless paths. Every returned tunnel is a distinct IP-link
// path.
func (t *Topology) Tunnels(src, dst, k int) []te.Tunnel {
	return t.tunnels(src, dst, k, t.LinkFibers(), make([]bool, len(t.Opt.Fibers)))
}

// tunnels is Tunnels over the links' fibers (LinkFibers) with a scratch
// marking used fibers, which it clears first.
func (t *Topology) tunnels(src, dst, k int, linkFibers [][]int, usedFiber []bool) []te.Tunnel {
	if src == dst {
		return nil
	}
	g := t.IPGraph()
	clear(usedFiber)
	var out []te.Tunnel
	// add appends p unless an earlier tunnel rides the same links.
	add := func(p graph.Path) bool {
		links := make([]int, len(p.Edges))
		for i, eid := range p.Edges {
			links[i] = g.Edge(eid).Label
		}
		for _, tu := range out {
			if slices.Equal(tu.Links, links) {
				return false
			}
		}
		out = append(out, te.Tunnel{Links: links})
		return true
	}
	onUsedFiber := func(eid int) bool {
		for _, f := range linkFibers[g.Edge(eid).Label] {
			if usedFiber[f] {
				return true
			}
		}
		return false
	}

	// Pass 1: fiber-disjoint paths.
	for len(out) < k {
		p, ok := g.ShortestPath(graph.Node(src), graph.Node(dst), onUsedFiber)
		if !ok || !add(p) {
			break
		}
		for _, eid := range p.Edges {
			for _, f := range linkFibers[g.Edge(eid).Label] {
				usedFiber[f] = true
			}
		}
	}
	// Pass 2: fill with k-shortest paths.
	if len(out) < k {
		for _, p := range g.KShortestPaths(graph.Node(src), graph.Node(dst), k+len(out), 0) {
			if len(out) >= k {
				break
			}
			add(p)
		}
	}
	return out
}

// TENetwork assembles the te.Network for the given flows, with the holder
// that lets its solves and its Scaled copies share their demand-independent
// half (te.NewNetwork).
func (t *Topology) TENetwork(flows []te.Flow, tunnelsPerFlow int) (*te.Network, error) {
	n := te.NewNetwork(t.LinkCaps(), flows, make([][]te.Tunnel, len(flows)))
	linkFibers, usedFiber := t.LinkFibers(), make([]bool, len(t.Opt.Fibers))
	for i, f := range flows {
		ts := t.tunnels(f.Src, f.Dst, tunnelsPerFlow, linkFibers, usedFiber)
		if len(ts) == 0 {
			return nil, fmt.Errorf("topo: no tunnel for flow %d->%d", f.Src, f.Dst)
		}
		n.Tunnels[i] = ts
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}

// overlaySpec drives IP-overlay generation for a named topology.
type overlaySpec struct {
	targetIPLinks int
	// waveChoices are the wavelength-count options per IP link with weights
	// shaped like Fig. 22(b).
	waveChoices []int
	waveWeights []float64
	// expressHops bounds the optical hop count of express IP links.
	expressHops int
	seed        int64
}

// provisionOverlay creates IP links on the optical network: one adjacency
// link per fiber span between router sites, then express links between
// random router pairs a few optical hops apart, until targetIPLinks links
// exist or spectrum runs out.
func provisionOverlay(topo *Topology, spec overlaySpec) error {
	rng := rand.New(rand.NewSource(spec.seed))
	opt := topo.Opt
	g := opt.Graph()

	isRouter := func(r optical.ROADM) bool { return topo.routerOf[r] >= 0 }

	// sampleWaves picks a wavelength count.
	sampleWaves := func() int {
		total := 0.0
		for _, w := range spec.waveWeights {
			total += w
		}
		x := rng.Float64() * total
		for i, w := range spec.waveWeights {
			x -= w
			if x <= 0 {
				return spec.waveChoices[i]
			}
		}
		return spec.waveChoices[len(spec.waveChoices)-1]
	}

	// provisionOn routes `waves` wavelengths on the given fiber path with
	// first-fit continuity slots; returns false if fewer than one fits.
	provisionOn := func(src, dst optical.ROADM, fibers []int, waves int) bool {
		lenKm := opt.PathLengthKm(fibers)
		mod, ok := spectrum.BestModulation(lenKm)
		if !ok {
			return false
		}
		ws := opt.FirstFit(fibers, mod, waves)
		if len(ws) == 0 {
			return false
		}
		_, err := opt.Provision(src, dst, ws)
		return err == nil
	}

	// Adjacency links: walk fiber chains between router sites. A "span" is
	// a maximal fiber path whose interior ROADMs are pass-through.
	type span struct {
		src, dst optical.ROADM
		fibers   []int
	}
	var spans []span
	visited := map[int]bool{}
	for _, f := range opt.Fibers {
		if visited[f.ID] {
			continue
		}
		// Extend from f in both directions through pass-through ROADMs of
		// degree 2.
		chain := []int{f.ID}
		visited[f.ID] = true
		ends := [2]optical.ROADM{f.A, f.B}
		for side := 0; side < 2; side++ {
			for !isRouter(ends[side]) {
				// Find the unique other fiber at this pass-through ROADM.
				var next *optical.Fiber
				cnt := 0
				for _, g2 := range opt.Fibers {
					if g2.ID == chain[0] || g2.ID == chain[len(chain)-1] {
						continue
					}
					if g2.A == ends[side] || g2.B == ends[side] {
						cnt++
						if !visited[g2.ID] {
							next = g2
						}
					}
				}
				if next == nil || cnt != 1 {
					break
				}
				visited[next.ID] = true
				if side == 0 {
					chain = append([]int{next.ID}, chain...)
				} else {
					chain = append(chain, next.ID)
				}
				if next.A == ends[side] {
					ends[side] = next.B
				} else {
					ends[side] = next.A
				}
			}
		}
		spans = append(spans, span{src: ends[0], dst: ends[1], fibers: chain})
	}
	for _, sp := range spans {
		if !isRouter(sp.src) || !isRouter(sp.dst) {
			continue
		}
		provisionOn(sp.src, sp.dst, sp.fibers, sampleWaves())
	}

	// Express links: random router pairs within expressHops optical hops.
	tries := 0
	for len(opt.IPLinks) < spec.targetIPLinks && tries < spec.targetIPLinks*60 {
		tries++
		a := topo.Routers[rng.Intn(len(topo.Routers))]
		b := topo.Routers[rng.Intn(len(topo.Routers))]
		if a == b {
			continue
		}
		paths := g.KShortestPaths(graph.Node(a), graph.Node(b), 2, 0)
		if len(paths) == 0 {
			continue
		}
		p := paths[rng.Intn(len(paths))]
		if len(p.Edges) > spec.expressHops {
			continue
		}
		var fibers []int
		for _, eid := range p.Edges {
			fibers = append(fibers, g.Edge(eid).Label)
		}
		provisionOn(a, b, fibers, sampleWaves())
	}
	if len(opt.IPLinks) < spec.targetIPLinks/2 {
		return fmt.Errorf("topo: only provisioned %d of %d IP links", len(opt.IPLinks), spec.targetIPLinks)
	}
	return nil
}
