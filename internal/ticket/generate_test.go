package ticket

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/optical"
	"github.com/arrow-te/arrow/internal/race"
	"github.com/arrow-te/arrow/internal/rwa"
	"github.com/arrow-te/arrow/internal/spectrum"
)

// refGenerate is Generate as it was, for the options the offline stage
// uses: a generator built per batch, a new pair of vectors per attempt, the
// feasibility filter through the full assignment, keys through fmt.
func refGenerate(res *rwa.Result, opts Options) []Ticket {
	rng := rand.New(rand.NewSource(opts.Seed))
	n := len(res.Failed)
	var out []Ticket
	seen := map[string]bool{}
	for z := 0; z < opts.Count; z++ {
		tk := Ticket{Waves: make([]int, n), Gbps: make([]float64, n)}
		for e := 0; e < n; e++ {
			tk.Waves[e] = roundOnce(rng, res.FracWaves[e], res.OrigWaves[e], opts.stride())
			tk.Gbps[e] = float64(tk.Waves[e]) * res.GbpsPerWave[e]
		}
		if opts.CheckFeasibility {
			if _, ok := rwa.AssignIntegral(res, tk.Waves); !ok {
				continue
			}
		}
		if opts.Dedup {
			if k := fmt.Sprint(tk.Waves); seen[k] {
				continue
			} else {
				seen[k] = true
			}
		}
		out = append(out, tk)
	}
	return out
}

// A pooled, re-seeded generator and recycled attempt vectors yield the
// batches a generator built per batch yields — whatever batch ran before.
func TestGenerateMatchesPerBatchGenerator(t *testing.T) {
	res := fig7Result(t)
	kept, dropped := 0, 0
	for seed := int64(0); seed < 60; seed++ {
		opts := Options{Count: 5 + int(seed%20), Stride: 1 + int(seed%3), Seed: seed * 977, CheckFeasibility: seed%2 == 0, Dedup: seed%3 != 0}
		got, want := Generate(res, opts), refGenerate(res, opts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: %+v, reference %+v", opts.Seed, got, want)
		}
		kept, dropped = kept+len(got), dropped+opts.Count-len(got)
	}
	if kept < 200 || dropped < 200 {
		t.Fatalf("%d tickets kept, %d dropped: one side of the filter is barely exercised", kept, dropped)
	}
}

// handBuiltResult draws a Result no Solve produced: links over a chain of
// fibers, options over arbitrary fiber sets with slots in any order (some
// repeated), and a fractional point anywhere in [0, orig+1]. The roundings
// then overshoot a link's slot capacity, clash on the spectrum, or fit.
func handBuiltResult(rng *rand.Rand) *rwa.Result {
	fibers, slots := 2+rng.Intn(5), 4+rng.Intn(8)
	n := optical.NewNetwork(fibers+1, slots)
	for f := 0; f < fibers; f++ {
		n.AddFiber(optical.ROADM(f), optical.ROADM(f+1), 100)
	}
	res := &rwa.Result{Net: n, AllowTuning: rng.Intn(2) == 0}
	for links := 1 + rng.Intn(4); links > 0; links-- {
		f := rng.Intn(fibers)
		var ws []optical.Lightpath
		for s := 0; s < slots; s++ {
			if n.Fibers[f].Slots.Available(s) && rng.Intn(3) == 0 {
				ws = append(ws, optical.Lightpath{Slot: s, Modulation: spectrum.Table6[0], FiberPath: []int{f}})
			}
		}
		if len(ws) == 0 {
			continue
		}
		l, err := n.Provision(optical.ROADM(f), optical.ROADM(f+1), ws)
		if err != nil {
			panic(err)
		}
		var opts []rwa.PathOption
		for o := rng.Intn(3); o > 0; o-- {
			opt := rwa.PathOption{LinkID: l.ID, Fibers: rng.Perm(fibers)[:1+rng.Intn(fibers)], Slots: rng.Perm(slots)[:rng.Intn(slots/2+1)]}
			if len(opt.Slots) > 1 && rng.Intn(4) == 0 {
				opt.Slots = append(opt.Slots, opt.Slots[0])
			}
			opts = append(opts, opt)
		}
		res.Failed = append(res.Failed, l.ID)
		res.OrigWaves = append(res.OrigWaves, len(ws))
		res.FracWaves = append(res.FracWaves, rng.Float64()*float64(len(ws)+1))
		res.GbpsPerWave = append(res.GbpsPerWave, 100)
		res.Options = append(res.Options, opts)
	}
	// Like Solve's, the Objective bounds every integral assignment: here by
	// the links' slot capacities.
	for li := range res.Failed {
		res.Objective += float64(min(res.OrigWaves[li], rwa.SlotCapacity(res, li)))
	}
	return res
}

// refRecorded is Generate's filter as it was: the greedy asked first, the
// reason worked out after a rejection.
func refRecorded(res *rwa.Result, opts Options) []Ticket {
	rng := rand.New(rand.NewSource(opts.Seed))
	n := len(res.Failed)
	var out []Ticket
	seen := map[string]bool{}
	infeasible, duplicates := 0, 0
	for z := 0; z < opts.Count; z++ {
		tk := Ticket{Waves: make([]int, n), Gbps: make([]float64, n)}
		for e := 0; e < n; e++ {
			tk.Waves[e] = roundOnce(rng, res.FracWaves[e], res.OrigWaves[e], opts.stride())
			tk.Gbps[e] = float64(tk.Waves[e]) * res.GbpsPerWave[e]
		}
		if !rwa.Feasible(res, tk.Waves) {
			infeasible++
			reason := ledger.RejectSpectrumClash
			for li, w := range tk.Waves {
				if min(w, res.OrigWaves[li]) > rwa.SlotCapacity(res, li) {
					reason = ledger.RejectRounding
					break
				}
			}
			opts.Ledger.Emit(ledger.Event{Kind: ledger.KindTicketRejected, Scenario: opts.Scenario, Ticket: z, Reason: reason, Gbps: tk.TotalGbps()})
			continue
		}
		if seen[tk.Key()] {
			duplicates++
			opts.Ledger.Emit(ledger.Event{Kind: ledger.KindTicketRejected, Scenario: opts.Scenario, Ticket: z, Reason: ledger.RejectDuplicate, Gbps: tk.TotalGbps()})
			continue
		}
		seen[tk.Key()] = true
		opts.Ledger.Emit(ledger.Event{Kind: ledger.KindTicketGenerated, Scenario: opts.Scenario, Ticket: z, Gbps: tk.TotalGbps()})
		out = append(out, tk)
	}
	r := opts.Recorder
	r.Add("ticket.rounding_attempts", int64(opts.Count))
	r.Add("ticket.infeasible", int64(infeasible))
	r.Add("ticket.duplicates", int64(duplicates))
	r.Add("ticket.generated", int64(len(out)))
	r.Observe("ticket.yield_per_batch", float64(len(out)))
	return out
}

// Rejecting a rounding above some link's slot capacity before the greedy
// runs keeps the tickets, the ledger events and the ticket counters of the
// filter that asked the greedy first.
func TestCapacityCheckMatchesGreedyFirstFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	reasons := map[ledger.RejectReason]int{}
	for trial := 0; trial < 400; trial++ {
		res := handBuiltResult(rng)
		opts := Options{Count: 1 + rng.Intn(16), Stride: 1 + rng.Intn(3), Seed: int64(trial), CheckFeasibility: true, Dedup: true, Scenario: trial}
		got, want := opts, opts
		gotReg, wantReg := obs.NewRegistry(), obs.NewRegistry()
		got.Recorder, got.Ledger = gotReg, ledger.New()
		want.Recorder, want.Ledger = wantReg, ledger.New()
		if g, w := Generate(res, got), refRecorded(res, want); !reflect.DeepEqual(g, w) {
			t.Fatalf("trial %d: tickets %v, reference %v", trial, g, w)
		}
		gotEv, wantEv := got.Ledger.Events(), want.Ledger.Events()
		if !reflect.DeepEqual(gotEv, wantEv) {
			t.Fatalf("trial %d: events %+v, reference %+v", trial, gotEv, wantEv)
		}
		for _, ev := range gotEv {
			reasons[ev.Reason]++
		}
		if g, w := gotReg.Snapshot(), wantReg.Snapshot(); !reflect.DeepEqual(g.Counters, w.Counters) || !reflect.DeepEqual(g.Histograms, w.Histograms) {
			t.Fatalf("trial %d: counters %v, reference %v", trial, g.Counters, w.Counters)
		}
	}
	for _, r := range []ledger.RejectReason{ledger.RejectRounding, ledger.RejectSpectrumClash, ledger.RejectDuplicate, ""} {
		if reasons[r] < 20 {
			t.Errorf("%d events with reason %q: %v is too thin a mix", reasons[r], r, reasons)
		}
	}
}

// keyDedup is the dedup rule as a map of string keys applied it: a ticket
// is dropped when one kept before it has the same Key.
func keyDedup(tks []Ticket) []Ticket {
	seen := map[string]bool{}
	var out []Ticket
	for _, tk := range tks {
		if k := tk.Key(); !seen[k] {
			seen[k] = true
			out = append(out, tk)
		}
	}
	return out
}

// sameTickets is reflect.DeepEqual with no ticket on either side, nil or
// empty, counting as equal.
func sameTickets(a, b []Ticket) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}

// Dedup by scanning the tickets kept keeps what the map of string keys
// kept, in the same order, on hand-built results with fractional and with
// integral LP points (the latter repeat a rounding far more often): drawing
// never reads the dedup, so the batch drawn without it, filtered through
// the map, is the reference. AppendGenerated onto tickets of another batch,
// drawing into their spare vectors, appends the same tickets, compares
// none with the ones it was handed and leaves those as they were.
func TestDedupScanMatchesKeyMap(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	duplicates := [2]int{}
	var buf []Ticket // its spare tickets carry vectors of earlier trials
	for trial := 0; trial < 600; trial++ {
		res := handBuiltResult(rng)
		integral := trial%2 == 1
		if integral {
			for i, x := range res.FracWaves {
				res.FracWaves[i] = float64(int(x))
			}
		}
		opts := Options{Count: 1 + rng.Intn(24), Stride: 1 + rng.Intn(3), Seed: int64(trial), CheckFeasibility: rng.Intn(2) == 0}
		drawn := Generate(res, opts)
		want := keyDedup(drawn)
		opts.Dedup = true
		if got := Generate(res, opts); !sameTickets(got, want) {
			t.Fatalf("trial %d: scan kept %v, key map %v", trial, got, want)
		}
		if integral {
			duplicates[1] += len(drawn) - len(want)
		} else {
			duplicates[0] += len(drawn) - len(want)
		}

		prefix := Clone(want[:min(1, len(want))])
		buf = append(buf[:0], Clone(prefix)...)
		buf = AppendGenerated(buf, res, opts)
		if p := len(prefix); !sameTickets(buf[:p], prefix) || !sameTickets(buf[p:], want) {
			t.Fatalf("trial %d: appended after %v: %v, want %v", trial, prefix, buf, want)
		}
	}
	if duplicates[0] < 50 || duplicates[1] < 50 {
		t.Fatalf("%d duplicates on fractional points, %d on integral ones: a side of the rule is barely exercised", duplicates[0], duplicates[1])
	}
}

// Clone copies tickets into a slice of their exact number whose vectors
// are capped at their own length and share nothing with the originals.
func TestCloneIsExactAndSeparate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	if Clone(nil) != nil {
		t.Fatal("Clone(nil) is not nil")
	}
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(6)
		tks := make([]Ticket, 1+rng.Intn(8), 16)
		for i := range tks {
			tks[i] = Ticket{Waves: make([]int, n, n+2), Gbps: make([]float64, n, n+2)}
			for e := 0; e < n; e++ {
				tks[i].Waves[e], tks[i].Gbps[e] = rng.Intn(9), rng.Float64()
			}
		}
		out := Clone(tks)
		if !reflect.DeepEqual(out, tks) || cap(out) != len(tks) {
			t.Fatalf("trial %d: clone %v (cap %d) of %v", trial, out, cap(out), tks)
		}
		for i := range out {
			if cap(out[i].Waves) != n || cap(out[i].Gbps) != n {
				t.Fatalf("trial %d: ticket %d's vectors reach past their end", trial, i)
			}
			if n > 0 {
				tks[i].Waves[0]++
				if out[i].Waves[0] == tks[i].Waves[0] {
					t.Fatalf("trial %d: ticket %d shares its waves with the original", trial, i)
				}
			}
		}
	}
}

func TestKeyPrintsLikeFmt(t *testing.T) {
	for _, waves := range [][]int{nil, {}, {0}, {12, 0, 3}, {-1, 100000}} {
		tk := Ticket{Waves: waves}
		if got, want := tk.Key(), fmt.Sprint(waves); got != want {
			t.Errorf("Key() of %v is %q, fmt prints %q", waves, got, want)
		}
	}
}

func TestGenerateAllocatesOnlyTickets(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	res := fig7Result(t)
	opts := Options{Count: 12, Seed: 5, CheckFeasibility: true, Dedup: true}
	var out []Ticket
	run := func() { out = Generate(res, opts) }
	run()
	if len(out) < 2 || len(out) == opts.Count {
		t.Fatalf("fixture: %d of %d tickets kept", len(out), opts.Count)
	}
	// Per kept ticket its two vectors, the vectors of the rejected attempt in
	// flight at the end, and the result slice as it grows (1, 2, 4, 8, 16):
	// dedup scans the kept tickets, so no key and no map; nothing per
	// attempt, nothing sized by the spectrum.
	budget := float64(2*len(out) + 2 + 5)
	if got := testing.AllocsPerRun(50, run); got > budget {
		t.Errorf("%.0f allocations for %d kept tickets, budget %.0f", got, len(out), budget)
	}
}
