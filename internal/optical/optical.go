// Package optical models the optical layer of a WAN as described in §2 of
// the ARROW paper: ROADM sites connected by fibers, each fiber carrying
// DWDM wavelengths on a slotted spectrum, and IP links (port-channels)
// provisioned as bundles of wavelengths riding fiber paths.
//
// The model supports the cross-layer queries ARROW needs: which IP links
// fail when a fiber is cut, what spectrum is usable on surviving fibers
// (accounting for slots released by the failed wavelengths themselves), and
// the restoration ratio U_phi of §2.3.
package optical

import (
	"fmt"
	"slices"
	"sync"

	"github.com/arrow-te/arrow/internal/graph"
	"github.com/arrow-te/arrow/internal/spectrum"
)

// ROADM identifies an optical site.
type ROADM int

// Fiber is one optical fiber link between two ROADMs.
type Fiber struct {
	ID       int
	A, B     ROADM
	LengthKm float64
	// Slots tracks spectrum availability: set bit = free slot.
	Slots *spectrum.Bitmap
}

// Lightpath is one provisioned wavelength of an IP link: a spectrum slot
// carried over a sequence of fibers entirely in the optical domain.
type Lightpath struct {
	Slot       int
	Modulation spectrum.Modulation
	FiberPath  []int // fiber IDs
}

// IPLink is a port-channel between two sites, realised by one or more
// wavelengths (Fig. 1 of the paper).
type IPLink struct {
	ID       int
	Src, Dst ROADM
	Waves    []Lightpath
}

// CapacityGbps is the healthy-state provisioned capacity W_phi contribution
// of this link: the sum of its wavelengths' data rates.
func (l *IPLink) CapacityGbps() float64 {
	c := 0.0
	for _, w := range l.Waves {
		c += w.Modulation.GbpsPerWavelength
	}
	return c
}

// Network is an optical-layer topology with its provisioned IP links.
type Network struct {
	NumROADMs int
	Fibers    []*Fiber
	IPLinks   []*IPLink
	SlotCount int

	// gMu guards the lazily-built g and linksOn: concurrent per-scenario RWA
	// solves (the parallel offline stage) all read them off the shared
	// network.
	gMu sync.Mutex
	g   *graph.Graph // ROADM graph; edge label = fiber ID, weight = km
	// linksOn[f] lists, ascending, the IP links with a wavelength on fiber f.
	// AddFiber and Provision drop it; linksOnFibers rebuilds it.
	linksOn [][]int
}

// NewNetwork creates an empty network with n ROADM sites and the given
// number of spectrum slots per fiber.
func NewNetwork(nROADMs, slotCount int) *Network {
	return &Network{NumROADMs: nROADMs, SlotCount: slotCount}
}

// AddFiber adds a fiber between two ROADMs with all slots initially free.
func (n *Network) AddFiber(a, b ROADM, lengthKm float64) *Fiber {
	f := &Fiber{ID: len(n.Fibers), A: a, B: b, LengthKm: lengthKm, Slots: spectrum.AllAvailable(n.SlotCount)}
	n.Fibers = append(n.Fibers, f)
	n.gMu.Lock()
	n.g, n.linksOn = nil, nil
	n.gMu.Unlock()
	return f
}

// Graph returns (building lazily) the optical graph over ROADMs: one pair of
// directed edges per fiber, labelled with the fiber ID and weighted by km.
// Safe for concurrent use once the topology is no longer being mutated.
func (n *Network) Graph() *graph.Graph {
	n.gMu.Lock()
	defer n.gMu.Unlock()
	if n.g == nil {
		g := graph.New(n.NumROADMs)
		for _, f := range n.Fibers {
			g.AddBiEdge(graph.Node(f.A), graph.Node(f.B), f.LengthKm, f.ID)
		}
		n.g = g
	}
	return n.g
}

// PathLengthKm sums the lengths of the fibers in path.
func (n *Network) PathLengthKm(path []int) float64 {
	km := 0.0
	for _, id := range path {
		km += n.Fibers[id].LengthKm
	}
	return km
}

// Provision creates an IP link between src and dst with the given
// wavelengths. Each lightpath's slot is claimed on every fiber of its path;
// it is an error if a slot is already occupied (frequency collision) or a
// path is disconnected.
func (n *Network) Provision(src, dst ROADM, waves []Lightpath) (*IPLink, error) {
	for wi, w := range waves {
		if err := n.CheckPath(src, dst, w.FiberPath); err != nil {
			return nil, fmt.Errorf("wavelength %d: %w", wi, err)
		}
		for _, fid := range w.FiberPath {
			if !n.Fibers[fid].Slots.Available(w.Slot) {
				return nil, fmt.Errorf("wavelength %d: slot %d already occupied on fiber %d", wi, w.Slot, fid)
			}
		}
	}
	for _, w := range waves {
		for _, fid := range w.FiberPath {
			n.Fibers[fid].Slots.Set(w.Slot, false)
		}
	}
	l := &IPLink{ID: len(n.IPLinks), Src: src, Dst: dst, Waves: waves}
	n.IPLinks = append(n.IPLinks, l)
	n.dropLinksOn()
	return l, nil
}

// FirstFit returns up to waves lightpaths at mod on the lowest slots free
// on every fiber of the non-empty path (wavelength continuity).
func (n *Network) FirstFit(path []int, mod spectrum.Modulation, waves int) []Lightpath {
	bms := make([]*spectrum.Bitmap, len(path))
	for i, f := range path {
		bms[i] = n.Fibers[f].Slots
	}
	common := spectrum.PathSpectrum(bms)
	var ws []Lightpath
	for s := 0; s < common.Len() && len(ws) < waves; s++ {
		if common.Available(s) {
			ws = append(ws, Lightpath{Slot: s, Modulation: mod, FiberPath: path})
		}
	}
	return ws
}

// CheckPath validates that path is a connected fiber walk from src to dst.
func (n *Network) CheckPath(src, dst ROADM, path []int) error {
	if len(path) == 0 {
		return fmt.Errorf("empty fiber path")
	}
	at := src
	for _, fid := range path {
		if fid < 0 || fid >= len(n.Fibers) {
			return fmt.Errorf("fiber %d outside [0,%d)", fid, len(n.Fibers))
		}
		f := n.Fibers[fid]
		switch at {
		case f.A:
			at = f.B
		case f.B:
			at = f.A
		default:
			return fmt.Errorf("fiber %d does not touch ROADM %d", fid, at)
		}
	}
	if at != dst {
		return fmt.Errorf("path ends at ROADM %d, not %d", at, dst)
	}
	return nil
}

func (n *Network) dropLinksOn() {
	n.gMu.Lock()
	n.linksOn = nil
	n.gMu.Unlock()
}

// linksOnFibers returns (building lazily) the fiber -> IP links incidence
// index. Read-only; safe for concurrent use once the topology is no longer
// being mutated.
func (n *Network) linksOnFibers() [][]int {
	n.gMu.Lock()
	defer n.gMu.Unlock()
	if n.linksOn == nil {
		on := make([][]int, len(n.Fibers))
		for _, l := range n.IPLinks {
			for _, w := range l.Waves {
				for _, fid := range w.FiberPath {
					// Links arrive in ID order, so a repeat is the last entry.
					if k := len(on[fid]); k == 0 || on[fid][k-1] != l.ID {
						on[fid] = append(on[fid], l.ID)
					}
				}
			}
		}
		n.linksOn = on
	}
	return n.linksOn
}

// FailedLinks returns the IDs of IP links that lose at least one wavelength
// when the given fibers are cut, in ascending order. Per §6 ("when a fiber
// fails, all IP links on this fiber fail simultaneously"), a link that
// traverses any cut fiber is considered failed. Fiber IDs the network does
// not have, and repeats, add nothing.
func (n *Network) FailedLinks(cut []int) []int {
	on := n.linksOnFibers()
	total := 0
	for _, f := range cut {
		if f >= 0 && f < len(on) {
			total += len(on[f])
		}
	}
	if total == 0 {
		return nil
	}
	return n.AppendFailedLinks(make([]int, 0, total), cut)
}

// AppendFailedLinks appends FailedLinks(cut) to dst.
func (n *Network) AppendFailedLinks(dst, cut []int) []int {
	on := n.linksOnFibers()
	lo := len(dst)
	for _, f := range cut {
		if f >= 0 && f < len(on) {
			dst = append(dst, on[f]...)
		}
	}
	if len(cut) > 1 {
		slices.Sort(dst[lo:])
		dst = dst[:lo+len(slices.Compact(dst[lo:]))]
	}
	return dst
}

// CutMask returns dst resized to one entry per fiber, set for the fibers in
// cut. Fiber IDs the network does not have are ignored.
func (n *Network) CutMask(dst []bool, cut []int) []bool {
	if cap(dst) < len(n.Fibers) {
		dst = make([]bool, len(n.Fibers))
	}
	dst = dst[:len(n.Fibers)]
	clear(dst)
	for _, id := range cut {
		if id >= 0 && id < len(dst) {
			dst[id] = true
		}
	}
	return dst
}

// SpectrumUnderCut returns, for every fiber, the spectrum available for
// restoration when the given fibers are cut: the healthy availability plus
// the slots released by wavelengths of failed IP links (those wavelengths
// are being torn down, so their slots on surviving fibers become usable).
// Cut fibers themselves are returned with no availability.
func (n *Network) SpectrumUnderCut(cut []int) []*spectrum.Bitmap {
	return n.SpectrumUnderCutInto(nil, n.CutMask(nil, cut), n.FailedLinks(cut))
}

// SpectrumUnderCutInto is SpectrumUnderCut for a caller that already holds
// the cut as a CutMask and its FailedLinks, written into dst's bitmaps when
// dst came from an earlier call on a network of this shape (anything else is
// replaced). It returns the filled slice.
func (n *Network) SpectrumUnderCutInto(dst []*spectrum.Bitmap, cutMask []bool, failed []int) []*spectrum.Bitmap {
	if len(dst) != len(n.Fibers) || (len(dst) > 0 && dst[0].Len() != n.SlotCount) {
		dst = make([]*spectrum.Bitmap, len(n.Fibers))
		for i := range dst {
			dst[i] = spectrum.NewBitmap(n.SlotCount)
		}
	}
	for i, f := range n.Fibers {
		if cutMask[i] {
			dst[i].Clear() // all unavailable
		} else {
			dst[i].CopyFrom(f.Slots)
		}
	}
	for _, lid := range failed {
		for _, w := range n.IPLinks[lid].Waves {
			for _, fid := range w.FiberPath {
				if !cutMask[fid] {
					dst[fid].Set(w.Slot, true)
				}
			}
		}
	}
	return dst
}

// ProvisionedGbpsOnFiber returns W_phi: the total bandwidth of wavelengths
// that traverse fiber id.
func (n *Network) ProvisionedGbpsOnFiber(id int) float64 {
	total := 0.0
	for _, l := range n.IPLinks {
		for _, w := range l.Waves {
			for _, fid := range w.FiberPath {
				if fid == id {
					total += w.Modulation.GbpsPerWavelength
					break
				}
			}
		}
	}
	return total
}

// LinkByID returns the IP link with the given ID.
func (n *Network) LinkByID(id int) *IPLink { return n.IPLinks[id] }

// SpectrumUtilizations returns each fiber's spectrum utilisation (Fig. 5a).
func (n *Network) SpectrumUtilizations() []float64 {
	out := make([]float64, len(n.Fibers))
	for i, f := range n.Fibers {
		out[i] = f.Slots.Utilization()
	}
	return out
}

// Validate checks internal consistency: every provisioned wavelength's slot
// is marked occupied on every fiber it traverses, and no two lightpaths
// share a slot on a fiber.
func (n *Network) Validate() error {
	type claim struct{ link, wave int }
	claims := make(map[[2]int]claim) // (fiber, slot) -> claimant
	for _, l := range n.IPLinks {
		for wi, w := range l.Waves {
			if err := n.CheckPath(l.Src, l.Dst, w.FiberPath); err != nil {
				return fmt.Errorf("link %d wavelength %d: %w", l.ID, wi, err)
			}
			for _, fid := range w.FiberPath {
				key := [2]int{fid, w.Slot}
				if prev, ok := claims[key]; ok {
					return fmt.Errorf("fiber %d slot %d claimed by links %d and %d", fid, w.Slot, prev.link, l.ID)
				}
				claims[key] = claim{l.ID, wi}
				if n.Fibers[fid].Slots.Available(w.Slot) {
					return fmt.Errorf("fiber %d slot %d carries link %d but is marked free", fid, w.Slot, l.ID)
				}
			}
		}
	}
	return nil
}
