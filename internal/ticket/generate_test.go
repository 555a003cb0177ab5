package ticket

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/arrow-te/arrow/internal/race"
	"github.com/arrow-te/arrow/internal/rwa"
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
	// Per kept ticket its two vectors and its dedup key, the vectors of the
	// rejected attempt in flight at the end, the result slice as it grows
	// (1, 2, 4, 8, 16) and the dedup map with its growth: nothing per
	// attempt, nothing sized by the spectrum.
	budget := float64(3*len(out) + 2 + 5 + 6)
	if got := testing.AllocsPerRun(50, run); got > budget {
		t.Errorf("%.0f allocations for %d kept tickets, budget %.0f", got, len(out), budget)
	}
}
