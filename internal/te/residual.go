package te

import "github.com/arrow-te/arrow/internal/lp"

// tunnelSet is a bitset over one flow's tunnel indices, one bit per tunnel
// however many the flow has. Its bytes are an exact map key.
type tunnelSet []byte

func (s tunnelSet) has(ti int) bool { return s[ti>>3]&(1<<(ti&7)) != 0 }
func (s tunnelSet) add(ti int)      { s[ti>>3] |= 1 << (ti & 7) }
func (s tunnelSet) remove(ti int)   { s[ti>>3] &^= 1 << (ti & 7) }

// sumOf appends to dst the sum of the set's tunnels' variables, a being the
// flow's a_{f,t} in tunnel order.
func (s tunnelSet) sumOf(dst lp.Expr, a []lp.Var) lp.Expr {
	for ti, v := range a {
		if s.has(ti) {
			dst = dst.Plus(1, v)
		}
	}
	return dst
}

func (s tunnelSet) empty() bool {
	for _, b := range s {
		if b != 0 {
			return false
		}
	}
	return true
}

// subsetOf reports whether every tunnel of s is in o (same flow).
func (s tunnelSet) subsetOf(o tunnelSet) bool {
	for i, b := range s {
		if b&^o[i] != 0 {
			return false
		}
	}
	return true
}

// residualClasses groups failure scenarios by what they leave of each flow:
// two scenarios are in one class of flow f when they leave it the same
// residual tunnel set T_f^q. The FFC and TeaVaR builders emit rows and
// variables per class, not per scenario, because everything they say about
// (f, q) is a function of T_f^q alone.
type residualClasses struct {
	// sets[f] are flow f's distinct residual sets in first-seen scenario
	// order, after sets[f][0], which is always the full tunnel set (what
	// the healthy state and every scenario that cuts no tunnel of f leave).
	sets [][]tunnelSet
	// class[f][qi] indexes sets[f] with scenario qi's residual set; only
	// TeaVaR reads it, so only TeaVaR has it filled.
	class [][]int
}

// classifyResiduals computes every scenario's failed-link mask, in one
// buffer, and files each (flow, scenario) under its residual set.
func classifyResiduals(n *Network, scs []FailureScenario, withClass bool) *residualClasses {
	rc := &residualClasses{sets: make([][]tunnelSet, len(n.Flows))}
	if withClass {
		rc.class = make([][]int, len(n.Flows))
	}
	index := make([]map[string]int, len(n.Flows))
	for f := range n.Flows {
		full := make(tunnelSet, (len(n.Tunnels[f])+7)/8)
		for ti := range n.Tunnels[f] {
			full.add(ti)
		}
		rc.sets[f] = []tunnelSet{full}
		if withClass {
			rc.class[f] = make([]int, len(scs))
		}
		index[f] = map[string]int{string(full): 0}
	}
	// One scratch set serves every lookup (residualTunnels would allocate
	// per flow and scenario, and FFC-2's list runs to thousands of scenarios);
	// only a set seen for the first time is copied.
	var set tunnelSet
	var failed []bool
	for qi, q := range scs {
		failed = failedInto(failed, n, q.FailedLinks)
		for f := range n.Flows {
			set = append(set[:0], rc.sets[f][0]...)
			for ti, t := range n.Tunnels[f] {
				for _, e := range t.Links {
					if failed[e] {
						set.remove(ti)
						break
					}
				}
			}
			c, ok := index[f][string(set)]
			if !ok {
				c = len(rc.sets[f])
				rc.sets[f] = append(rc.sets[f], append(tunnelSet(nil), set...))
				index[f][string(set)] = c
			}
			if withClass {
				rc.class[f][qi] = c
			}
		}
	}
	return rc
}
