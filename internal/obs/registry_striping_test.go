package obs

import (
	"fmt"
	"sync"
	"testing"
)

// TestLateHistogramRegistrationSurfaced is the regression test for the
// silently-ignored late RegisterHistogram: custom bounds that arrive after
// the first Observe cannot take effect (rebucketing is impossible), but the
// mistake must be visible in obs.late_hist_registrations rather than lost.
func TestLateHistogramRegistrationSurfaced(t *testing.T) {
	reg := NewRegistry()

	// Early registration: custom bounds apply.
	reg.RegisterHistogram("early", []float64{1, 10})
	reg.Observe("early", 5)
	if got := reg.Counter("obs.late_hist_registrations"); got != 0 {
		t.Fatalf("early registration counted as late: %d", got)
	}

	// Late registration: histogram already live, bounds keep their shape.
	reg.Observe("late", 5)
	reg.RegisterHistogram("late", []float64{1, 10})
	reg.Observe("late", 5)

	snap := reg.Snapshot()
	if got := snap.Counters["obs.late_hist_registrations"]; got != 1 {
		t.Errorf("obs.late_hist_registrations = %d, want 1", got)
	}
	if got := len(snap.Histograms["early"].Bounds); got != 2 {
		t.Errorf("early histogram has %d bounds, want the 2 custom ones", got)
	}
	if got := len(snap.Histograms["late"].Bounds); got == 2 {
		t.Error("late registration rebucketed a live histogram")
	}
	if snap.Histograms["late"].Count != 2 {
		t.Errorf("late histogram lost samples: count %d", snap.Histograms["late"].Count)
	}

	// Registering twice before any Observe: second wins, still not late.
	reg.RegisterHistogram("re", []float64{1})
	reg.RegisterHistogram("re", []float64{1, 2, 3})
	reg.Observe("re", 2)
	snap = reg.Snapshot()
	if got := len(snap.Histograms["re"].Bounds); got != 3 {
		t.Errorf("re-registration before first Observe: %d bounds, want 3", got)
	}
	if got := snap.Counters["obs.late_hist_registrations"]; got != 1 {
		t.Errorf("pre-Observe re-registration counted as late: %d", got)
	}
}

// TestStripedCountersConcurrent checks the sharded Add path loses no
// increments and that Snapshot/Counter agree, under the worker count the
// pipeline actually runs at.
func TestStripedCountersConcurrent(t *testing.T) {
	reg := NewRegistry()
	const workers = 8
	const perWorker = 2000
	// A mix of core keys (pre-seeded) and dynamic keys across shards.
	keys := []string{
		"lp.pivots", "lp.solves", "mip.nodes", "ticket.generated",
		"dyn.a", "dyn.b", "dyn.c", "dyn.d",
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				reg.Add(keys[i%len(keys)], 1)
			}
		}()
	}
	wg.Wait()

	snap := reg.Snapshot()
	var total int64
	for _, k := range keys {
		v := snap.Counters[k]
		total += v
		if got := reg.Counter(k); got != v {
			t.Errorf("Counter(%q)=%d disagrees with snapshot %d", k, got, v)
		}
	}
	if want := int64(workers * perWorker); total != want {
		t.Errorf("lost increments: total %d, want %d", total, want)
	}
	if snap.Counters["lp.warm_starts"] != 0 {
		t.Error("untouched core counter drifted")
	}
}

// TestShardIndexStable pins the shard function's range; the distribution
// itself is not load-bearing, only that every name maps into [0, shards).
func TestShardIndexStable(t *testing.T) {
	for _, d := range CounterDocs() {
		name := d.Name
		i := shardIndex(name)
		if i < 0 || i >= counterShards {
			t.Fatalf("shardIndex(%q) = %d out of range", name, i)
		}
		if j := shardIndex(name); j != i {
			t.Fatalf("shardIndex(%q) unstable: %d vs %d", name, i, j)
		}
	}
}

// singleLockCounters is the pre-striping design: one mutex guarding one
// map. It exists only as the benchmark baseline so the striping win stays
// measurable in-tree.
type singleLockCounters struct {
	mu sync.Mutex
	m  map[string]int64
}

func (c *singleLockCounters) Add(name string, delta int64) {
	c.mu.Lock()
	c.m[name] += delta
	c.mu.Unlock()
}

// BenchmarkRegistryContention measures the hot Add path under the parallel
// pipeline's worker fan-out (run with -cpu 8 for the headline number):
//
//	go test ./internal/obs -bench RegistryContention -cpu 8
//
// The striped registry is compared against the single-mutex baseline it
// replaced.
func BenchmarkRegistryContention(b *testing.B) {
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("lp.bench.counter%02d", i)
	}
	b.Run("striped", func(b *testing.B) {
		reg := NewRegistry()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				reg.Add(keys[i&15], 1)
				i++
			}
		})
	})
	b.Run("single-mutex", func(b *testing.B) {
		base := &singleLockCounters{m: map[string]int64{}}
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				base.Add(keys[i&15], 1)
				i++
			}
		})
	})
}
