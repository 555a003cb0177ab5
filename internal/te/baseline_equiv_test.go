package te

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/arrow-te/arrow/internal/lp"
)

// randomBaselineInstance draws a small network (1-5 flows, 1-70 tunnels
// each) and a scenario list with everything the residual-set classifier has
// to get right: nested and overlapping cuts, cuts that disconnect a flow,
// cuts that touch no tunnel, and repeats with the links permuted.
func randomBaselineInstance(rng *rand.Rand) (*Network, []FailureScenario) {
	links := 4 + rng.Intn(20)
	n := &Network{LinkCap: make([]float64, links+2)} // the last two links carry no tunnel
	for e := range n.LinkCap {
		n.LinkCap[e] = 50 + 450*rng.Float64()
	}
	for f, flows := 0, 1+rng.Intn(5); f < flows; f++ {
		n.Flows = append(n.Flows, Flow{Src: f, Dst: f + 1, Demand: 50 + 350*rng.Float64()})
		tunnels := 1 + rng.Intn(8)
		if rng.Intn(3) == 0 { // around the byte and word boundaries of the set key
			tunnels = []int{9, 16, 17, 63, 64, 65, 70}[rng.Intn(7)]
		}
		var ts []Tunnel
		for len(ts) < tunnels {
			ts = append(ts, Tunnel{Links: rng.Perm(links)[:1+rng.Intn(3)]})
		}
		n.Tunnels = append(n.Tunnels, ts)
	}

	var scs []FailureScenario
	for q, cuts := 0, 1+rng.Intn(12); q < cuts; q++ {
		var failed []int
		switch kind := rng.Intn(6); {
		case kind == 0 && q > 0: // repeat, permuted
			prev := scs[rng.Intn(q)].FailedLinks
			for _, i := range rng.Perm(len(prev)) {
				failed = append(failed, prev[i])
			}
		case kind == 1 && q > 0: // superset of an earlier cut
			failed = append(append(failed, scs[rng.Intn(q)].FailedLinks...), rng.Intn(links))
		case kind == 2: // every tunnel of one flow
			for _, t := range n.Tunnels[rng.Intn(len(n.Flows))] {
				failed = append(failed, t.Links...)
			}
		case kind == 3: // no tunnel at all, one link outside the network
			failed = []int{links, links + 1, links + 7}
		default:
			failed = rng.Perm(links)[:1+rng.Intn(3)]
		}
		p := 0.0
		if rng.Intn(4) > 0 {
			p = 0.05 * rng.Float64()
		}
		scs = append(scs, FailureScenario{Prob: p, FailedLinks: failed})
	}
	return n, scs
}

func relDiff(a, b float64) float64 { return math.Abs(a-b) / (1 + math.Abs(a)) }

// pointIn lays an allocation out as a point of a model with the given a and
// b variable handles (b may be nil).
func pointIn(m *lp.Model, a [][]lp.Var, b []lp.Var, al *Allocation) []float64 {
	x := make([]float64, m.NumVars())
	for f := range a {
		for ti, v := range a[f] {
			x[v] = al.A[f][ti]
		}
		if b != nil {
			x[b[f]] = al.B[f]
		}
	}
	return x
}

const evalTol = 1e-7

func TestFFCMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		n, scs := randomBaselineInstance(rand.New(rand.NewSource(seed)))
		al, err := FFC(n, scs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ref := newBaseModel("ffc-ref", n)
		refAddResidualGuarantees(ref, n, scs)
		refAl, err := ref.solve(n, nil)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		if d := relDiff(refAl.Objective, al.Objective); d > 1e-9 {
			t.Errorf("seed %d: objective %.12g, reference %.12g", seed, al.Objective, refAl.Objective)
		}
		for _, c := range []*lp.Certificate{al.Cert, refAl.Cert} {
			if err := lp.CheckCertificate(c, 0); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
		}
		if al.Stats.Phase2Rows > refAl.Stats.Phase2Rows {
			t.Errorf("seed %d: %d rows, reference %d", seed, al.Stats.Phase2Rows, refAl.Stats.Phase2Rows)
		}

		// FFC's promise, read off the allocation: every scenario leaves
		// every flow it does not disconnect at least b_f of reservation.
		for qi, q := range scs {
			failed := failedSet(n, q.FailedLinks)
			for f := range n.Flows {
				res := residualTunnels(n, f, failed)
				if len(res) == 0 {
					continue
				}
				sum := 0.0
				for _, ti := range res {
					sum += al.A[f][ti]
				}
				if sum < al.B[f]-evalTol {
					t.Errorf("seed %d: scenario %d leaves flow %d %.9g of b=%.9g", seed, qi, f, sum, al.B[f])
				}
			}
		}
		// The lift: the variables are the reference's own, so the optimum
		// must be feasible there, dominated rows included.
		x := pointIn(ref.m, ref.a, ref.b, al)
		if v := ref.m.MaxViolation(x); v > evalTol {
			t.Errorf("seed %d: optimum violates the reference model by %g", seed, v)
		}
		if d := relDiff(ref.m.ObjValue(x), al.Objective); d > 1e-9 {
			t.Errorf("seed %d: lifted objective %.12g vs %.12g", seed, ref.m.ObjValue(x), al.Objective)
		}
	}
}

// teavarValue evaluates TeaVaR's objective at tunnel reservations A with
// the remaining variables at their best: s_f^q = min(d_f, residual
// reservation), theta at the breakpoint of the piecewise-linear CVaR that
// minimises it, u_q = max(0, loss_q - theta). It returns them laid out as
// s[q][f] and u[q] with the healthy scenario at q = 0.
func teavarValue(n *Network, scs []FailureScenario, A [][]float64, beta, tie float64) (obj, theta float64, s [][]float64, u []float64) {
	D := n.TotalDemand()
	healthy := 1.0
	for _, q := range scs {
		healthy -= q.Prob
	}
	scens := append([]FailureScenario{{Prob: math.Max(healthy, 0)}}, scs...)
	totalP := 0.0
	for _, q := range scens {
		totalP += q.Prob
	}
	loss := make([]float64, len(scens))
	s = make([][]float64, len(scens))
	for qi, q := range scens {
		failed := failedSet(n, q.FailedLinks)
		sat := 0.0
		for f := range n.Flows {
			sum := 0.0
			for _, ti := range residualTunnels(n, f, failed) {
				sum += A[f][ti]
			}
			s[qi] = append(s[qi], math.Min(n.Flows[f].Demand, sum))
			sat += s[qi][f] / D
		}
		loss[qi] = 1 - sat
	}
	cvar := func(th float64) float64 {
		v := th
		for qi, q := range scens {
			v += q.Prob / totalP / (1 - beta) * math.Max(0, loss[qi]-th)
		}
		return v
	}
	theta = loss[0]
	for _, l := range loss {
		if cvar(l) < cvar(theta) {
			theta = l
		}
	}
	for qi := range scens {
		u = append(u, math.Max(0, loss[qi]-theta))
	}
	return cvar(theta) - tie*(1-loss[0]), theta, s, u
}

func TestTeaVaRMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, scs := randomBaselineInstance(rng)
		beta := []float64{0.9, 0.99, 0.999}[rng.Intn(3)]
		al, err := TeaVaR(n, scs, &TeaVaROptions{Beta: beta})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ref, refA, refTheta, refS, refU, err := refTeavarModel(n, scs, beta, teavarTieBreak)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		refSol, err := lp.Solve(ref, nil)
		if err != nil || refSol.Status != lp.StatusOptimal {
			t.Fatalf("seed %d: reference: %v %v", seed, err, refSol.Status)
		}
		for _, c := range []*lp.Certificate{al.Cert, refSol.Cert} {
			if err := lp.CheckCertificate(c, 0); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		if d := relDiff(refSol.Objective, al.Cert.Primal); d > 1e-9 {
			t.Errorf("seed %d: objective %.12g, reference %.12g", seed, al.Cert.Primal, refSol.Objective)
		}
		if al.Stats.Phase2Rows > ref.NumConstrs() || al.Stats.Phase2Vars > ref.NumVars() || al.Stats.Phase2Iters == 0 {
			t.Errorf("seed %d: stats %+v, reference %d x %d", seed, al.Stats, ref.NumConstrs(), ref.NumVars())
		}

		// TeaVaR's promise, read off the allocation: the CVaR of the
		// scenario losses under A (with the healthy-throughput bonus) is
		// the LP's optimum.
		obj, theta, s, u := teavarValue(n, scs, al.A, beta, teavarTieBreak)
		if d := relDiff(obj, al.Cert.Primal); d > evalTol {
			t.Errorf("seed %d: CVaR of the allocation %.12g, LP objective %.12g", seed, obj, al.Cert.Primal)
		}
		// The lift: expanded to one s per (flow, scenario), the optimum is
		// feasible in the reference model at the same objective.
		x := pointIn(ref, refA, nil, al)
		x[refTheta] = theta
		for qi := range u {
			x[refU[qi]] = u[qi]
			for f := range n.Flows {
				x[refS[qi][f]] = s[qi][f]
			}
		}
		if v := ref.MaxViolation(x); v > evalTol {
			t.Errorf("seed %d: lifted optimum violates the reference model by %g", seed, v)
		}
		if d := relDiff(ref.ObjValue(x), al.Cert.Primal); d > evalTol {
			t.Errorf("seed %d: lifted objective %.12g vs %.12g", seed, ref.ObjValue(x), al.Cert.Primal)
		}
	}
}

// rowFingerprints values every row's left-hand side at one fixed random
// point and sorts the values: equal row sets give equal slices, and rows
// that differ in any coefficient give different ones.
func rowFingerprints(m *lp.Model) []float64 {
	rng := rand.New(rand.NewSource(99))
	x := make([]float64, m.NumVars())
	for i := range x {
		x[i] = rng.Float64()
	}
	out := make([]float64, m.NumConstrs())
	for c := range out {
		out[c] = m.EvalExpr(lp.Constr(c), x)
	}
	sort.Float64s(out)
	return out
}

// TestFFCRowSetIgnoresScenarioOrder: permuting the scenario list, repeating
// scenarios in it and adding ones that cut no tunnel leave the emitted rows
// the same set.
func TestFFCRowSetIgnoresScenarioOrder(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, scs := randomBaselineInstance(rng)
		bm := newBaseModel("ffc", n)
		addResidualGuarantees(bm, n, scs)

		var shuffled []FailureScenario
		for _, i := range rng.Perm(len(scs)) {
			shuffled = append(shuffled, scs[i])
		}
		shuffled = append(shuffled, scs...)
		shuffled = append(shuffled, FailureScenario{}, FailureScenario{FailedLinks: []int{len(n.LinkCap) - 1}})
		other := newBaseModel("ffc", n)
		addResidualGuarantees(other, n, shuffled)

		got, want := rowFingerprints(other.m), rowFingerprints(bm.m)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d rows, %d after shuffling and repeating", seed, len(want), len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: row sets differ", seed)
			}
		}
	}
}

// wideFlow is one flow over 70 single-link tunnels of 10 Gbps each, except
// tunnel 65, which has 100.
func wideFlow() *Network {
	n := &Network{Flows: []Flow{{Src: 0, Dst: 1, Demand: 1000}}, Tunnels: [][]Tunnel{nil}}
	for e := 0; e < 70; e++ {
		n.LinkCap = append(n.LinkCap, 10)
		n.Tunnels[0] = append(n.Tunnels[0], Tunnel{Links: []int{e}})
	}
	n.LinkCap[65] = 100
	return n
}

// TestResidualSetsExactPast64Tunnels: two scenarios that differ only in
// tunnels past the 64th are different residual sets, and neither is the
// full set.
func TestResidualSetsExactPast64Tunnels(t *testing.T) {
	n := wideFlow()
	scs := []FailureScenario{{Prob: 0.01, FailedLinks: []int{65}}, {Prob: 0.01, FailedLinks: []int{66}}}
	free, err := MaxThroughput(n)
	if err != nil {
		t.Fatal(err)
	}
	ffc, err := FFC(n, scs)
	if err != nil {
		t.Fatal(err)
	}
	if got := ffc.Stats.Phase2Rows - free.Stats.Phase2Rows; got != 2 {
		t.Errorf("FFC added %d rows for two distinct cuts, want 2", got)
	}
	// Losing tunnel 65 leaves 69 x 10 Gbps.
	if math.Abs(ffc.Objective-690) > 1e-6 || math.Abs(free.Objective-790) > 1e-6 {
		t.Errorf("FFC admits %g (want 690), unprotected %g (want 790)", ffc.Objective, free.Objective)
	}
	tv, err := TeaVaR(n, scs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 70 a + theta + 3 u + one s per class: full, without 65, without 66.
	if tv.Stats.Phase2Vars != 70+1+3+3 {
		t.Errorf("TeaVaR has %d variables, want %d", tv.Stats.Phase2Vars, 70+1+3+3)
	}
}

// TestScenariosThatAddNothing: a scenario already in the list (links in
// another order) or one that cuts no tunnel adds nothing to FFC, and to
// TeaVaR only its own u_q and cvar_q. A scenario that disconnects a flow
// adds no FFC row either, and no s variable: the flow's s is 0 there.
func TestScenariosThatAddNothing(t *testing.T) {
	n := &Network{
		LinkCap: []float64{100, 100, 100, 100, 100, 100},
		Flows:   []Flow{{Src: 0, Dst: 1, Demand: 150}, {Src: 1, Dst: 2, Demand: 50}},
		Tunnels: [][]Tunnel{
			{{Links: []int{0}}, {Links: []int{1, 2}}, {Links: []int{2, 3}}},
			{{Links: []int{4}}},
		},
	}
	scs := []FailureScenario{{Prob: 0.01, FailedLinks: []int{0, 1}}, {Prob: 0.02, FailedLinks: []int{2}}}
	more := append(append([]FailureScenario(nil), scs...),
		FailureScenario{Prob: 0.01, FailedLinks: []int{1, 0}},    // repeat, permuted
		FailureScenario{Prob: 0.01, FailedLinks: []int{5}},       // cuts no tunnel
		FailureScenario{Prob: 0.01, FailedLinks: []int{0, 1, 4}}, // disconnects flow 1, and is {0,1} to flow 0
	)

	ffc, err := FFC(n, scs)
	if err != nil {
		t.Fatal(err)
	}
	ffcMore, err := FFC(n, more)
	if err != nil {
		t.Fatal(err)
	}
	if ffc.Stats != ffcMore.Stats || ffc.Objective != ffcMore.Objective {
		t.Errorf("FFC changed: %+v obj %g, then %+v obj %g", ffc.Stats, ffc.Objective, ffcMore.Stats, ffcMore.Objective)
	}
	// Flow 0's sets {t2} and {t0} are both minimal; flow 1 loses nothing
	// until it loses everything.
	if free, _ := MaxThroughput(n); ffc.Stats.Phase2Rows-free.Stats.Phase2Rows != 2 {
		t.Errorf("FFC added %d rows, want 2", ffc.Stats.Phase2Rows-free.Stats.Phase2Rows)
	}

	tv, err := TeaVaR(n, scs, nil)
	if err != nil {
		t.Fatal(err)
	}
	tvMore, err := TeaVaR(n, more, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dr, dv := tvMore.Stats.Phase2Rows-tv.Stats.Phase2Rows, tvMore.Stats.Phase2Vars-tv.Stats.Phase2Vars; dr != 3 || dv != 3 {
		t.Errorf("three scenarios with no new residual set added %d rows and %d variables to TeaVaR, want 3 and 3", dr, dv)
	}
	obj, _, _, _ := teavarValue(n, more, tvMore.A, 0.999, 1e-3)
	if relDiff(obj, tvMore.Cert.Primal) > evalTol {
		t.Errorf("TeaVaR objective %.12g, CVaR of its allocation %.12g", tvMore.Cert.Primal, obj)
	}
}

func TestTeaVaRRejectsBadProbability(t *testing.T) {
	n := parallelLinks()
	for _, p := range []float64{-0.01, math.NaN(), math.Inf(1)} {
		_, err := TeaVaR(n, []FailureScenario{{Prob: 0.01, FailedLinks: []int{0}}, {Prob: p, FailedLinks: []int{1}}}, nil)
		if err == nil || !strings.Contains(err.Error(), "scenario 1") {
			t.Errorf("Prob %g: error %v, want one naming scenario 1", p, err)
		}
	}
}
