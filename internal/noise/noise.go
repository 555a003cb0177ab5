// Package noise plans ARROW's ROADM reconfiguration under optical noise
// loading (§4, Appendix A.6).
//
// With ASE noise sources, every unused wavelength slot on every fiber
// carries noise, so amplifiers always see a fully populated spectrum:
// replacing noise with data (or vice versa) is local to the ROADMs and
// bypasses amplifier gain reconfiguration entirely. This package compiles a
// restoration assignment into the two parallel ROADM reconfiguration waves
// the paper describes: add/drop ROADMs first, then intermediate ROADMs.
// What the waves cost in time, with and without noise loading, is the
// emulator's (internal/emu).
package noise

import (
	"slices"

	"github.com/arrow-te/arrow/internal/optical"
	"github.com/arrow-te/arrow/internal/rwa"
)

// OpKind distinguishes the two ROADM reconfiguration waves (Appendix A.6).
type OpKind uint8

// Reconfiguration operation kinds.
const (
	AddDrop      OpKind = iota // source/destination ROADM: data <-> noise swap
	Intermediate               // pass-through ROADM: steer the wavelength
)

// Op is one ROADM reconfiguration operation.
type Op struct {
	ROADM optical.ROADM
	Kind  OpKind
	Fiber int // fiber whose slot changes at this ROADM (entry fiber)
	Slot  int
}

// Plan is a compiled restoration plan: the ROADM operations grouped into
// the two parallel execution waves, plus the transponder-side adjustments.
type Plan struct {
	AddDropOps      []Op
	IntermediateOps []Op
	// Retunes counts wavelengths whose restored slot differs from their
	// original slot (transponder frequency tuning, §5).
	Retunes int
	// ModChanges counts wavelengths whose surrogate path requires a lower
	// modulation than the original (Appendix A.1).
	ModChanges int
	// RestoredGbps is the plan's total revived IP capacity.
	RestoredGbps float64
	// ReusedPorts counts the idle router ports / transponders the plan puts
	// back to work (two per restored wavelength): ARROW's §1 answer to
	// pre-allocating failover hardware.
	ReusedPorts int
}

// NumAddDropROADMs returns the number of distinct add/drop ROADMs touched.
func (p *Plan) NumAddDropROADMs() int { return len(DistinctROADMs(p.AddDropOps)) }

// NumIntermediateROADMs returns the number of distinct intermediate ROADMs.
func (p *Plan) NumIntermediateROADMs() int { return len(DistinctROADMs(p.IntermediateOps)) }

// DistinctROADMs lists the ROADMs ops touch, each once, in first-touch order:
// nil when ops is empty.
func DistinctROADMs(ops []Op) []int { return AppendDistinctROADMs(nil, ops) }

// AppendDistinctROADMs appends to dst the ROADMs ops touch, each once, in
// first-touch order. A wave touches a few dozen ROADMs at most: a scan of
// what it appended needs no set.
func AppendDistinctROADMs(dst []int, ops []Op) []int {
	base := len(dst)
	for _, op := range ops {
		if !slices.Contains(dst[base:], int(op.ROADM)) {
			dst = append(dst, int(op.ROADM))
		}
	}
	return dst
}

// BuildPlan compiles an integral restoration assignment into ROADM
// operations. For each restored wavelength of failed link e routed on
// surrogate path P: the link's source and destination ROADMs perform
// add/drop swaps (replace noise with data on the first/last fiber), and
// every interior ROADM of P performs an intermediate steer. Both op lists
// are cut from one array of exactly their lengths.
func BuildPlan(net *optical.Network, res *rwa.Result, asg *rwa.Assignment) *Plan {
	p := new(Plan)
	BuildPlanInto(p, net, res, asg)
	return p
}

// BuildPlanInto is BuildPlan into dst: it overwrites dst, reusing each op
// list where it has room. When one lacks room, both are cut anew from one
// array, each as long as the larger of its old capacity and its new length,
// so a plan that serves a sequence of cuts stops allocating once it has
// grown to the largest. The add/drop list's capacity ends where the
// intermediate one starts: appending to it never overwrites an intermediate
// op.
func BuildPlanInto(dst *Plan, net *optical.Network, res *rwa.Result, asg *rwa.Assignment) {
	nAD, nI := 0, 0
	for li := range res.Failed {
		for _, pick := range asg.PerLink[li] {
			nAD, nI = nAD+2, nI+len(res.Options[li][pick[0]].Fibers)-1
		}
	}
	ad, im := dst.AddDropOps[:0], dst.IntermediateOps[:0]
	if cap(ad) < nAD || cap(im) < nI {
		nAD, nI = max(nAD, cap(ad)), max(nI, cap(im))
		ops := make([]Op, nAD+nI)
		ad, im = ops[:0:nAD], ops[nAD:nAD]
	}
	*dst = Plan{AddDropOps: ad, IntermediateOps: im}
	for li, linkID := range res.Failed {
		link := net.LinkByID(linkID)
		origMod := 0.0
		if len(link.Waves) > 0 {
			origMod = link.Waves[0].Modulation.GbpsPerWavelength
		}
		for _, pick := range asg.PerLink[li] {
			opt := &res.Options[li][pick[0]]
			slot := pick[1]
			if !slices.ContainsFunc(link.Waves, func(w optical.Lightpath) bool { return w.Slot == slot }) {
				dst.Retunes++
			}
			if opt.Modulation.GbpsPerWavelength < origMod {
				dst.ModChanges++
			}
			dst.RestoredGbps += opt.Modulation.GbpsPerWavelength
			dst.ReusedPorts += 2

			// Add/drop at the endpoints.
			dst.AddDropOps = append(dst.AddDropOps,
				Op{ROADM: link.Src, Kind: AddDrop, Fiber: opt.Fibers[0], Slot: slot},
				Op{ROADM: link.Dst, Kind: AddDrop, Fiber: opt.Fibers[len(opt.Fibers)-1], Slot: slot},
			)
			// Intermediates: interior ROADMs along the path.
			at := link.Src
			for i, fid := range opt.Fibers {
				f := net.Fibers[fid]
				next := f.B
				if at == f.B {
					next = f.A
				}
				if i < len(opt.Fibers)-1 {
					dst.IntermediateOps = append(dst.IntermediateOps,
						Op{ROADM: next, Kind: Intermediate, Fiber: fid, Slot: slot})
				}
				at = next
			}
		}
	}
}
