package te

import (
	"slices"
	"sync"
)

// tunnelHalf is the demand-independent half of a network's solves, kept by
// a network built with NewNetwork and shared with every Scaled copy of it:
// the tunnel–link incidence and the base models' variable layout, each
// built once, and the residual classes of each scenario list a solve has
// classified. All are read-only once built, so any number of solves on the
// network and its copies read them at once. They live as long as the
// network; every distinct list (FFC-k's, TeaVaR's healthy-prepended one)
// adds one entry.
type tunnelHalf struct {
	crossOnce sync.Once
	cross     [][]tunnelRef

	layoutOnce sync.Once
	layout     varLayout

	mu      sync.Mutex
	classes []*classEntry
}

// classEntry is the residual classes of one scenario list, keyed by the
// list's content: every scenario's failed links, flattened with their ends,
// and withClass. A list is classified once however many solves ask for it at
// the same time; solves of other lists do not wait for it.
type classEntry struct {
	links     []int // the scenarios' FailedLinks, one after another
	ends      []int // ends[qi] is where scenario qi's links end in links
	withClass bool
	once      sync.Once
	rc        *residualClasses
}

// matches reports whether e was classified from a list of scs's content.
func (e *classEntry) matches(scs []FailureScenario, withClass bool) bool {
	if e.withClass != withClass || len(e.ends) != len(scs) {
		return false
	}
	start := 0
	for qi, q := range scs {
		if !slices.Equal(e.links[start:e.ends[qi]], q.FailedLinks) {
			return false
		}
		start = e.ends[qi]
	}
	return true
}

// NewNetwork returns the network over the given links, flows and tunnels
// with a holder for the demand-independent half of its solves, which its
// Scaled copies share. Build a network this way when it is solved more than
// once (a demand sweep, several schemes); a Network written as a struct
// literal builds that half on every solve.
func NewNetwork(linkCap []float64, flows []Flow, tunnels [][]Tunnel) *Network {
	return &Network{LinkCap: linkCap, Flows: flows, Tunnels: tunnels, half: new(tunnelHalf)}
}

// incidence returns n's tunnel-link incidence (baseModel.cross): the
// holder's, built on first use, or a fresh one when n has no holder.
func (n *Network) incidence() [][]tunnelRef {
	h := n.half
	if h == nil {
		return crossOf(n)
	}
	h.crossOnce.Do(func() { h.cross = crossOf(n) })
	return h.cross
}

// layout returns n's base-model variable layout: the holder's, made on first
// use, or a fresh one when n has no holder.
func (n *Network) layout() varLayout {
	h := n.half
	if h == nil {
		var l varLayout
		l.number(n)
		return l
	}
	h.layoutOnce.Do(func() { h.layout.number(n) })
	return h.layout
}

// residuals returns the residual classes of scs on n: the holder's entry
// for a list of scs's content, classified on first use, or a fresh
// classification when n has no holder. The result is read-only.
func (n *Network) residuals(scs []FailureScenario, withClass bool) *residualClasses {
	h := n.half
	if h == nil {
		return classifyResiduals(n, scs, withClass)
	}
	h.mu.Lock()
	i := slices.IndexFunc(h.classes, func(e *classEntry) bool { return e.matches(scs, withClass) })
	if i < 0 {
		e := &classEntry{ends: make([]int, len(scs)), withClass: withClass}
		for qi, q := range scs {
			e.links = append(e.links, q.FailedLinks...)
			e.ends[qi] = len(e.links)
		}
		i = len(h.classes)
		h.classes = append(h.classes, e)
	}
	e := h.classes[i]
	h.mu.Unlock()
	e.once.Do(func() { e.rc = classifyResiduals(n, scs, withClass) })
	return e.rc
}
