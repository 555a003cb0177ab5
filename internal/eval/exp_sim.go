package eval

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"github.com/arrow-te/arrow/internal/availability"
	"github.com/arrow-te/arrow/internal/par"
	"github.com/arrow-te/arrow/internal/te"
	"github.com/arrow-te/arrow/internal/topo"
	"github.com/arrow-te/arrow/internal/traffic"
)

func init() {
	register(Experiment{
		ID:         "fig13",
		Title:      "Availability vs demand scale for all TE schemes",
		PaperClaim: "ARROW sustains 2.0x-2.4x more demand than FFC/TeaVaR/ECMP at 99.99% availability",
		Run:        runFig13,
	})
	register(Experiment{
		ID:         "table5",
		Title:      "ARROW's demand gain at availability levels (B4)",
		PaperClaim: "gains of 1.5x-2.4x over Arrow-Naive, FFC-1/2, TeaVaR, ECMP across 99%..99.999%",
		Run:        runTable5,
	})
	register(Experiment{
		ID:         "fig14",
		Title:      "Impact of the number of LotteryTickets on throughput (B4)",
		PaperClaim: "throughput fluctuates at small |Z|, rises, then plateaus",
		Run:        runFig14,
	})
	register(Experiment{
		ID:         "fig15",
		Title:      "ARROW optimization runtime vs number of LotteryTickets",
		PaperClaim: "runtime grows with |Z|; Facebook with 120 tickets solves in 104 s, within the 5-minute TE deadline",
		Run:        runFig15,
	})
	register(Experiment{
		ID:         "fig16",
		Title:      "Router ports required at equal availability-guaranteed throughput",
		PaperClaim: "ARROW needs ~1.5x the fully-restorable minimum; TeaVaR 4.1x, FFC-1 5.2x, FFC-2 311x",
		Run:        runFig16,
	})
}

// simParams are the per-topology evaluation parameters (§6), with fast-mode
// reductions that preserve the comparison structure.
type simParams struct {
	cutoff       float64
	tickets      int
	tunnels      int
	maxFlows     int
	matrices     int
	maxScenarios int
}

func paramsFor(name string, fast bool) simParams {
	full := map[string]simParams{
		"B4":       {0.001, 40, 8, 132, 3, 40},
		"IBM":      {0.001, 40, 12, 120, 2, 40},
		"Facebook": {0.0002, 40, 16, 120, 1, 32},
	}
	p := full[name]
	if fast {
		p.tickets = 12
		p.matrices = 1
		p.maxFlows = 40
		p.maxScenarios = 16
		if name == "Facebook" {
			p.maxFlows = 60
			p.maxScenarios = 12
		}
	}
	return p
}

// sweepData is a memoised availability-vs-scale sweep for one topology.
type sweepData struct {
	scales []float64
	avail  map[Scheme][]float64
}

// sweepEntry memoises one sweep computation; the sync.Once collapses
// concurrent requests for the same key (fig13 and table5 fan out together
// under -parallelism) into a single computation.
type sweepEntry struct {
	once sync.Once
	d    *sweepData
	err  error
}

// sweepKey identifies a memoised sweep: the topology plus every Config
// field, with the ones that cannot change the result zeroed.
type sweepKey struct {
	name string
	cfg  Config
}

var (
	sweepMu    sync.Mutex
	sweepCache = map[sweepKey]*sweepEntry{}
)

// ResetSweepCache drops the memoised availability sweeps. The repository
// benchmark (benchmark/) calls it so repeated fig13 runs measure the
// computation rather than the cache hit.
func ResetSweepCache() {
	sweepMu.Lock()
	defer sweepMu.Unlock()
	sweepCache = map[sweepKey]*sweepEntry{}
}

func availabilitySweep(cfg Config, name string) (*sweepData, error) {
	// Parallelism, Recorder and HealthEvery, what cfg.ctx() attaches, are
	// absent from the key: the sweep is bit-identical for every worker count,
	// and recorders and probes only read solver state, so all settings share
	// one entry. Every other field decides the pipeline or the solves —
	// NoWarm and the scenario Space included — and a field added to Config
	// later is part of the key until it is zeroed here.
	key := sweepKey{name: name, cfg: cfg}
	key.cfg.Parallelism, key.cfg.Recorder, key.cfg.HealthEvery = 0, nil, 0
	sweepMu.Lock()
	e, ok := sweepCache[key]
	if !ok {
		e = &sweepEntry{}
		sweepCache[key] = e
	}
	sweepMu.Unlock()
	e.once.Do(func() { e.d, e.err = computeSweep(cfg, name) })
	return e.d, e.err
}

// sweepGrid is one availability sweep's instance: the pipeline, one base
// network per traffic matrix, the demand scales, the (matrix, scale, scheme)
// cells and the tasks that solve them. Every cell of a matrix is solved on a
// Scaled copy of its base network, so all of them share the base's
// demand-independent half (te.NewNetwork).
type sweepGrid struct {
	name   string
	pl     *Pipeline
	bases  []*te.Network
	scales []float64
	cells  []sweepCell
	// tasks is the fan-out: first each matrix's TeaVaR, FFC-1 and FFC-2
	// cells, one chain along the scales each (si < 0;
	// Pipeline.SolveScales), the longest tasks, then one ARROW task per
	// (matrix, scale) that also yields its ARROW-Naive cell
	// (te.ArrowAndNaive), then every ECMP cell on its own.
	tasks []sweepCell
}

// sweepCell indexes the grid's bases, scales and AllSchemes().
type sweepCell struct{ mi, si, zi int }

func newSweepGrid(cfg Config, name string) (*sweepGrid, error) {
	p := paramsFor(name, cfg.Fast)
	tp, err := topo.ByName(name, cfg.Seed+5)
	if err != nil {
		return nil, err
	}
	pl, err := cfg.pipeline(tp, PipelineOptions{
		Cutoff: p.cutoff, NumTickets: p.tickets, Seed: cfg.Seed, MaxScenarios: p.maxScenarios,
	})
	if err != nil {
		return nil, err
	}
	ms := traffic.Generate(traffic.Options{
		Sites: tp.NumRouters(), Count: p.matrices, MaxFlows: p.maxFlows,
		TotalGbps: 1, Seed: cfg.Seed + 7,
	})
	g := &sweepGrid{name: name, pl: pl, bases: make([]*te.Network, len(ms)), scales: []float64{1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 7.0}}
	if !cfg.Fast {
		g.scales = []float64{1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0, 7.0}
	}
	for mi, m := range ms {
		if g.bases[mi], err = pl.BaseNetwork(m, p.tunnels); err != nil {
			return nil, err
		}
		for si := range g.scales {
			for zi := range AllSchemes() {
				g.cells = append(g.cells, sweepCell{mi, si, zi})
			}
		}
	}
	schemes := AllSchemes()
	chained := []Scheme{SchemeTeaVaR, SchemeFFC1, SchemeFFC2}
	for mi := range g.bases {
		for _, s := range chained {
			g.tasks = append(g.tasks, sweepCell{mi, -1, slices.Index(schemes, s)})
		}
	}
	// ARROW's cells, which solve ARROW-Naive's too, then every other one.
	for _, arrow := range []bool{true, false} {
		for _, c := range g.cells {
			if s := schemes[c.zi]; (s == SchemeArrow) == arrow && s != SchemeArrowNaive && !slices.Contains(chained, s) {
				g.tasks = append(g.tasks, c)
			}
		}
	}
	return g, nil
}

// solveTask solves task j of g's fan-out and hands visit each cell it
// solved: its index in g.cells, its network and its allocation, whose
// winning tickets (ARROW's schemes) restore what it is evaluated with.
func (g *sweepGrid) solveTask(j int, visit func(ci int, n *te.Network, al *te.Allocation)) error {
	schemes := AllSchemes()
	t := g.tasks[j]
	base := g.bases[t.mi]
	cell := func(si, zi int) int { return (t.mi*len(g.scales)+si)*len(schemes) + zi }
	fail := func(err error) error {
		if t.si < 0 {
			return fmt.Errorf("%s matrix %d: %s along scales %v: %w", g.name, t.mi, schemes[t.zi], g.scales, err)
		}
		return fmt.Errorf("%s matrix %d: %s at scale %g: %w", g.name, t.mi, schemes[t.zi], g.scales[t.si], err)
	}
	if t.si < 0 {
		als, err := g.pl.SolveScales(schemes[t.zi], base, g.scales)
		if err != nil {
			return fail(err)
		}
		for si, al := range als {
			visit(cell(si, t.zi), base.Scaled(g.scales[si]), al)
		}
		return nil
	}
	n := base.Scaled(g.scales[t.si])
	if schemes[t.zi] == SchemeArrow {
		// Both allocations are SolveScheme's, bit for bit.
		arrow, naive, err := te.ArrowAndNaive(n, g.pl.Scenarios, g.pl.arrowOptions())
		if err != nil {
			return fail(err)
		}
		visit(cell(t.si, t.zi), n, arrow)
		visit(cell(t.si, slices.Index(schemes, SchemeArrowNaive)), n, naive)
		return nil
	}
	al, _, err := g.pl.SolveScheme(schemes[t.zi], n)
	if err != nil {
		return fail(err)
	}
	visit(cell(t.si, t.zi), n, al)
	return nil
}

func computeSweep(cfg Config, name string) (*sweepData, error) {
	g, err := newSweepGrid(cfg, name)
	if err != nil {
		return nil, err
	}
	d := &sweepData{scales: g.scales, avail: map[Scheme][]float64{}}
	schemes := AllSchemes()
	for _, s := range schemes {
		d.avail[s] = make([]float64, len(g.scales))
	}

	// The grid's tasks are independent TE solves: fan them out, each writing
	// its cells' availabilities, then reduce in the sequential path's exact
	// iteration order so the floating-point sums are bit-identical to
	// Parallelism 1.
	avails := make([]float64, len(g.cells))
	err = par.ForEach(cfg.ctx(), cfg.Parallelism, len(g.tasks), func(_ context.Context, j int) error {
		return g.solveTask(j, func(ci int, n *te.Network, al *te.Allocation) {
			avails[ci] = g.pl.cellAvailability(schemes[g.cells[ci].zi], n, al)
		})
	})
	if err != nil {
		return nil, err
	}
	for j, c := range g.cells {
		d.avail[schemes[c.zi]][c.si] += avails[j] / float64(len(g.bases))
	}
	return d, nil
}

// maxScaleAt returns the largest demand scale at which the scheme's
// availability stays >= target (linear interpolation between grid points).
func (d *sweepData) maxScaleAt(s Scheme, target float64) float64 {
	av := d.avail[s]
	best := 0.0
	for i := range d.scales {
		if av[i] >= target {
			best = d.scales[i]
			// Interpolate into the next segment if it dips below there.
			if i+1 < len(d.scales) && av[i+1] < target {
				frac := (av[i] - target) / (av[i] - av[i+1])
				best = d.scales[i] + float64(frac*(d.scales[i+1]-d.scales[i]))
			}
		}
	}
	return best
}

func runFig13(cfg Config) (*Result, error) {
	names := []string{"B4"}
	if !cfg.Fast {
		names = []string{"B4", "IBM", "Facebook"}
	}
	// The topologies' sweeps are independent and each fans out on its own:
	// solving them together keeps the workers busy while one of them
	// finishes its longest task (full mode: Facebook's FFC-2 chain, about
	// 3 s of its 3.4 s of solves).
	sweeps, err := par.Map(cfg.ctx(), cfg.Parallelism, len(names), func(_ context.Context, i int) (*sweepData, error) {
		return availabilitySweep(cfg, names[i])
	})
	if err != nil {
		return nil, err
	}
	r := &Result{ID: "fig13", Title: "Availability vs demand scale",
		Header: append([]string{"topology", "scale"}, schemeNames()...)}
	for i, name := range names {
		d := sweeps[i]
		for si, scale := range d.scales {
			row := []string{name, f2(scale)}
			for _, s := range AllSchemes() {
				row = append(row, fmt.Sprintf("%.5f", d.avail[s][si]))
			}
			r.Rows = append(r.Rows, row)
		}
		a99 := d.maxScaleAt(SchemeArrow, 0.9999)
		for _, s := range []Scheme{SchemeFFC1, SchemeTeaVaR, SchemeECMP} {
			o := d.maxScaleAt(s, 0.9999)
			if o > 0 {
				r.AddNote("%s: ARROW sustains %.2fx demand at 99.99%%; %s sustains %.2fx (gain %.1fx)",
					name, a99, s, o, a99/o)
			}
		}
	}
	r.AddNote("paper (Fig. 13): ARROW maintains higher availability at every demand scale; 2.0x-2.4x gains at 99.99%%")
	return r, nil
}

func schemeNames() []string {
	var out []string
	for _, s := range AllSchemes() {
		out = append(out, string(s))
	}
	return out
}

func runTable5(cfg Config) (*Result, error) {
	d, err := availabilitySweep(cfg, "B4")
	if err != nil {
		return nil, err
	}
	r := &Result{ID: "table5", Title: "ARROW gain in satisfied demand (B4)",
		Header: []string{"availability", "vs Arrow-Naive", "vs FFC-1", "vs FFC-2", "vs TeaVaR", "vs ECMP"}}
	ceiling := 0.0
	for _, a := range d.avail[SchemeArrow] {
		if a > ceiling {
			ceiling = a
		}
	}
	for _, target := range []float64{0.99999, 0.9999, 0.999, 0.99} {
		a := d.maxScaleAt(SchemeArrow, target)
		row := []string{fmt.Sprintf("%.3f%%", 100*target)}
		for _, s := range []Scheme{SchemeArrowNaive, SchemeFFC1, SchemeFFC2, SchemeTeaVaR, SchemeECMP} {
			o := d.maxScaleAt(s, target)
			switch {
			case a <= 0:
				row = append(row, "n/a") // target above ARROW's own ceiling
			case o <= 0:
				row = append(row, "inf") // baseline never reaches the target
			default:
				row = append(row, fmt.Sprintf("%.1fx", a/o))
			}
		}
		r.Rows = append(r.Rows, row)
	}
	r.AddNote("paper (Table 5): 1.6x-2.4x over Arrow-Naive, 1.5x-2.4x over FFC/TeaVaR/ECMP")
	r.AddNote("measured ARROW availability ceiling on this synthetic instance: %.5f — targets above it read n/a; 'inf' means the baseline never reaches the target at any scale", ceiling)
	return r, nil
}

func runFig14(cfg Config) (*Result, error) {
	p := paramsFor("B4", cfg.Fast)
	tp, err := topo.B4(cfg.Seed + 5)
	if err != nil {
		return nil, err
	}
	ms := traffic.Generate(traffic.Options{Sites: tp.NumRouters(), Count: 1, MaxFlows: p.maxFlows, TotalGbps: 1, Seed: cfg.Seed + 7})
	ticketCounts := []int{1, 2, 5, 10, 20, 40}
	if !cfg.Fast {
		ticketCounts = []int{1, 2, 5, 10, 20, 40, 80, 120}
	}
	scale := 4.2
	r := &Result{ID: "fig14", Title: fmt.Sprintf("Throughput vs |Z| (B4, %.1fx demand)", scale),
		Header: []string{"tickets |Z|", "throughput"}}
	var series []float64
	for _, tc := range ticketCounts {
		pl, err := cfg.pipeline(tp, PipelineOptions{Cutoff: p.cutoff, NumTickets: tc, Seed: cfg.Seed, MaxScenarios: p.maxScenarios})
		if err != nil {
			return nil, err
		}
		base, err := pl.BaseNetwork(ms[0], p.tunnels)
		if err != nil {
			return nil, err
		}
		n := base.Scaled(scale)
		al, err := te.Arrow(n, pl.Scenarios, pl.arrowOptions())
		if err != nil {
			return nil, err
		}
		thr := al.Throughput(n)
		series = append(series, thr)
		r.AddRow(fi(tc), f4(thr))
	}
	if len(series) > 1 {
		r.AddNote("%s", fig14Shape(ticketCounts, series))
	}
	return r, nil
}

// fig14Shape is fig14's note: the shape the measured throughput takes along
// |Z| — whether it ever falls, and its peak (the smallest |Z| reaching it) —
// where the paper's shape is the experiment's PaperClaim. A fall or a new
// peak counts only beyond fig14Tol relative: two solves of one plan may
// differ in the last bits.
func fig14Shape(tickets []int, thr []float64) string {
	beyond := func(a, b float64) bool { return a > b+float64(fig14Tol*math.Abs(b)) }
	shape, peak := "never falls", 0
	for i, v := range thr {
		if beyond(v, thr[peak]) {
			peak = i
		}
		if i > 0 && beyond(thr[i-1], v) {
			shape = "falls somewhere"
		}
	}
	return fmt.Sprintf("|Z|=1 equals Arrow-Naive; measured (to %g relative), throughput %s as |Z| grows and peaks at |Z|=%d with %.4f: first %.4f -> last %.4f",
		fig14Tol, shape, tickets[peak], thr[peak], thr[0], thr[len(thr)-1])
}

// fig14Tol is the relative tolerance of fig14Shape's comparisons.
const fig14Tol = 1e-9

func runFig15(cfg Config) (*Result, error) {
	p := paramsFor("B4", cfg.Fast)
	tp, err := topo.B4(cfg.Seed + 5)
	if err != nil {
		return nil, err
	}
	ms := traffic.Generate(traffic.Options{Sites: tp.NumRouters(), Count: 1, MaxFlows: p.maxFlows, TotalGbps: 1, Seed: cfg.Seed + 7})
	ticketCounts := []int{1, 5, 10, 20}
	if !cfg.Fast {
		ticketCounts = []int{1, 5, 10, 20, 40, 80, 120}
	}
	r := &Result{ID: "fig15", Title: "ARROW TE solve time vs |Z| (B4, this machine)",
		Header: []string{"tickets |Z|", "phase I+II solve (s)", "phase I rows", "simplex iters"}}
	for _, tc := range ticketCounts {
		pl, err := cfg.pipeline(tp, PipelineOptions{Cutoff: p.cutoff, NumTickets: tc, Seed: cfg.Seed, MaxScenarios: p.maxScenarios})
		if err != nil {
			return nil, err
		}
		base, err := pl.BaseNetwork(ms[0], p.tunnels)
		if err != nil {
			return nil, err
		}
		n := base.Scaled(2.5)
		start := time.Now()
		al, err := te.Arrow(n, pl.Scenarios, pl.arrowOptions())
		if err != nil {
			return nil, err
		}
		r.AddRow(fi(tc), fmt.Sprintf("%.3f", time.Since(start).Seconds()),
			fi(al.Stats.Phase1Rows), fi(al.Stats.Phase1Iters+al.Stats.Phase2Iters))
	}
	r.AddNote("paper (Fig. 15, Gurobi on 32-core EPYC): Facebook/120 tickets = 104 s, within the 5-minute deadline; this is a pure-Go simplex on one core, so absolute times differ but growth with |Z| holds")
	return r, nil
}

func runFig16(cfg Config) (*Result, error) {
	name := "B4"
	d := paramsFor(name, cfg.Fast)
	tp, err := topo.ByName(name, cfg.Seed+5)
	if err != nil {
		return nil, err
	}
	pl, err := cfg.pipeline(tp, PipelineOptions{Cutoff: d.cutoff, NumTickets: d.tickets, Seed: cfg.Seed, MaxScenarios: d.maxScenarios})
	if err != nil {
		return nil, err
	}
	ms := traffic.Generate(traffic.Options{Sites: tp.NumRouters(), Count: 1, MaxFlows: d.maxFlows, TotalGbps: 1, Seed: cfg.Seed + 7})
	base, err := pl.BaseNetwork(ms[0], d.tunnels)
	if err != nil {
		return nil, err
	}
	n := base.Scaled(2.0)
	const beta = 0.999
	r := &Result{ID: "fig16", Title: "Normalized router ports at equal 99.9%-guaranteed throughput (B4)",
		Header: []string{"scheme", "CAP/guaranteed", "vs fully restorable"}}
	schemes := append([]Scheme{SchemeFullyRest}, AllSchemes()...)
	baseline := 0.0
	for _, s := range schemes {
		al, restored, err := pl.SolveScheme(s, n)
		if err != nil {
			return nil, err
		}
		ev := &availability.Evaluator{Net: n, Alloc: al, ECMPRebalance: s == SchemeECMP}
		scs := pl.EvalScenarios(restored)
		if s == SchemeFullyRest {
			// Hypothetical: every failure fully restored -> evaluate against
			// no failures at all.
			scs = nil
		}
		capn := ev.RequiredCapacity(scs, beta)
		if s == SchemeFullyRest {
			baseline = capn
		}
		rel := "1.0x"
		if baseline > 0 && s != SchemeFullyRest {
			rel = fmt.Sprintf("%.1fx", capn/baseline)
		}
		r.AddRow(string(s), f1(capn), rel)
	}
	r.AddNote("paper (Fig. 16): ARROW 1.5x the fully-restorable minimum; TeaVaR 4.1x, FFC-1 5.2x, FFC-2 311x (Facebook topology); shape = ARROW needs far less over-provisioning")
	return r, nil
}
