package topo

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/arrow-te/arrow/internal/optical"
	"github.com/arrow-te/arrow/internal/spectrum"
)

// Parse reads a topology from the plain-text exchange format:
//
//	# comments and blank lines are ignored
//	sites <numROADMs> [slotsPerFiber]
//	router <roadm>                 # marks a ROADM as a router site
//	fiber <a> <b> <lengthKm>       # fiber IDs assigned in file order
//	srlg <name> <prob> <fiber>[,<fiber>...]   # shared-risk conduit group
//	link <src> <dst> <waves> <gbps> <fiber>[,<fiber>...]
//
// If no `router` lines appear, every ROADM is a router. Link endpoints must
// be router sites. `srlg` lines must follow the fibers they reference and
// declare a conduit-cut probability in [0, 0.5) (see internal/scenario's
// correlated-failure model). The format is round-trippable via Encode.
func Parse(r io.Reader) (*Topology, error) {
	sc := bufio.NewScanner(r)
	var t *Topology
	var routers []int
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		fail := func(format string, args ...interface{}) error {
			return fmt.Errorf("topo: line %d: %s", lineNo, fmt.Sprintf(format, args...))
		}
		switch fields[0] {
		case "sites":
			if t != nil {
				return nil, fail("duplicate sites directive")
			}
			if len(fields) < 2 {
				return nil, fail("sites needs a count")
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n <= 0 {
				return nil, fail("bad site count %q", fields[1])
			}
			slots := spectrum.DefaultSlots
			if len(fields) >= 3 {
				if slots, err = strconv.Atoi(fields[2]); err != nil || slots <= 0 {
					return nil, fail("bad slot count %q", fields[2])
				}
			}
			t = &Topology{Name: "custom", Opt: optical.NewNetwork(n, slots), routerOf: make([]int, n)}
			for i := range t.routerOf {
				t.routerOf[i] = -1
			}
		case "router":
			if t == nil {
				return nil, fail("router before sites")
			}
			for _, f := range fields[1:] {
				v, err := strconv.Atoi(f)
				if err != nil || v < 0 || v >= t.Opt.NumROADMs {
					return nil, fail("bad router id %q", f)
				}
				routers = append(routers, v)
			}
		case "fiber":
			if t == nil {
				return nil, fail("fiber before sites")
			}
			if len(fields) != 4 {
				return nil, fail("fiber needs: a b lengthKm")
			}
			a, err1 := strconv.Atoi(fields[1])
			b, err2 := strconv.Atoi(fields[2])
			km, err3 := strconv.ParseFloat(fields[3], 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fail("bad fiber fields")
			}
			if a < 0 || a >= t.Opt.NumROADMs || b < 0 || b >= t.Opt.NumROADMs {
				return nil, fail("fiber endpoint out of range")
			}
			t.Opt.AddFiber(optical.ROADM(a), optical.ROADM(b), km)
		case "srlg":
			if t == nil {
				return nil, fail("srlg before sites")
			}
			if len(fields) != 4 {
				return nil, fail("srlg needs: name prob fibers")
			}
			prob, err := strconv.ParseFloat(fields[2], 64)
			if err != nil || prob < 0 || prob >= 0.5 {
				return nil, fail("bad srlg probability %q (want [0, 0.5))", fields[2])
			}
			var fibers []int
			for _, f := range strings.Split(fields[3], ",") {
				id, err := strconv.Atoi(f)
				if err != nil || id < 0 || id >= len(t.Opt.Fibers) {
					return nil, fail("bad srlg fiber id %q", f)
				}
				fibers = append(fibers, id)
			}
			t.SRLGs = append(t.SRLGs, SRLG{Name: fields[1], Fibers: fibers, Prob: prob})
		case "link":
			if t == nil {
				return nil, fail("link before sites")
			}
			if len(fields) != 6 {
				return nil, fail("link needs: src dst waves gbps fibers")
			}
			src, err1 := strconv.Atoi(fields[1])
			dst, err2 := strconv.Atoi(fields[2])
			waves, err3 := strconv.Atoi(fields[3])
			gbps, err4 := strconv.ParseFloat(fields[4], 64)
			if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
				return nil, fail("bad link fields")
			}
			mod, ok := spectrum.ModulationByRate(gbps)
			if !ok {
				return nil, fail("unknown modulation rate %g", gbps)
			}
			var fibers []int
			for _, f := range strings.Split(fields[5], ",") {
				id, err := strconv.Atoi(f)
				if err != nil || id < 0 || id >= len(t.Opt.Fibers) {
					return nil, fail("bad fiber id %q", f)
				}
				fibers = append(fibers, id)
			}
			ws := t.Opt.FirstFit(fibers, mod, waves)
			if len(ws) < waves {
				return nil, fail("only %d of %d wavelengths fit", len(ws), waves)
			}
			if _, err := t.Opt.Provision(optical.ROADM(src), optical.ROADM(dst), ws); err != nil {
				return nil, fail("%v", err)
			}
		default:
			return nil, fail("unknown directive %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if t == nil {
		return nil, fmt.Errorf("topo: empty topology file")
	}
	if len(routers) == 0 {
		for i := 0; i < t.Opt.NumROADMs; i++ {
			routers = append(routers, i)
		}
	}
	for idx, r := range routers {
		if t.routerOf[r] >= 0 {
			return nil, fmt.Errorf("topo: router %d declared twice", r)
		}
		t.routerOf[r] = idx
		t.Routers = append(t.Routers, optical.ROADM(r))
	}
	for _, l := range t.Opt.IPLinks {
		if t.routerOf[l.Src] < 0 || t.routerOf[l.Dst] < 0 {
			return nil, fmt.Errorf("topo: IP link %d terminates on non-router ROADM", l.ID)
		}
	}
	if err := t.Opt.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Encode writes the topology in the Parse format. Wavelength bundles are
// written per IP link using the link's first wavelength's modulation and
// fiber path (the generators provision homogeneous bundles).
func Encode(w io.Writer, t *Topology) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# topology %s\n", t.Name)
	fmt.Fprintf(bw, "sites %d %d\n", t.Opt.NumROADMs, t.Opt.SlotCount)
	for _, r := range t.Routers {
		fmt.Fprintf(bw, "router %d\n", int(r))
	}
	for _, f := range t.Opt.Fibers {
		fmt.Fprintf(bw, "fiber %d %d %g\n", int(f.A), int(f.B), f.LengthKm)
	}
	for _, g := range t.SRLGs {
		ids := make([]string, len(g.Fibers))
		for i, fid := range g.Fibers {
			ids[i] = strconv.Itoa(fid)
		}
		fmt.Fprintf(bw, "srlg %s %g %s\n", g.Name, g.Prob, strings.Join(ids, ","))
	}
	for _, l := range t.Opt.IPLinks {
		if len(l.Waves) == 0 {
			continue
		}
		w0 := l.Waves[0]
		path := make([]string, len(w0.FiberPath))
		for i, fid := range w0.FiberPath {
			path[i] = strconv.Itoa(fid)
		}
		fmt.Fprintf(bw, "link %d %d %d %g %s\n",
			int(l.Src), int(l.Dst), len(l.Waves), w0.Modulation.GbpsPerWavelength, strings.Join(path, ","))
	}
	return bw.Flush()
}
