package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.NumCPU() {
		t.Fatalf("Workers(0) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := Workers(-3); got != runtime.NumCPU() {
		t.Fatalf("Workers(-3) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := Workers(5); got != 5 {
		t.Fatalf("Workers(5) = %d", got)
	}
}

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		const n = 57
		var hits [n]atomic.Int32
		err := ForEach(context.Background(), workers, n, func(_ context.Context, i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if c := hits[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(context.Background(), 4, 0, func(context.Context, int) error {
		t.Fatal("fn called for n=0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestMapOrdersResults(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		got, err := Map(context.Background(), workers, 40, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestForEachLowestIndexError(t *testing.T) {
	errAt := func(i int) error { return fmt.Errorf("index %d failed", i) }
	for _, workers := range []int{1, 4} {
		err := ForEach(context.Background(), workers, 32, func(_ context.Context, i int) error {
			if i == 7 || i == 23 {
				return errAt(i)
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
		}
		// Index 7 is dispatched before 23 and must be the reported error
		// (sequential mode stops there; parallel mode keeps the lowest).
		if err.Error() != "index 7 failed" {
			t.Fatalf("workers=%d: got %q, want index 7's error", workers, err)
		}
	}
}

// TestForEachLowestIndexErrorUnderRaces fails every index, so each failure
// races the draws of the other workers: a worker that drew index 0 must still
// run it after another index's failure cancelled the pool, or the reported
// error would name a higher index.
func TestForEachLowestIndexErrorUnderRaces(t *testing.T) {
	for run := 0; run < 20000; run++ {
		err := ForEach(context.Background(), 8, 64, func(_ context.Context, i int) error {
			return fmt.Errorf("index %d failed", i)
		})
		if err == nil || err.Error() != "index 0 failed" {
			t.Fatalf("run %d: got %v, want index 0's error", run, err)
		}
	}
}

func TestForEachErrorStopsDispatch(t *testing.T) {
	boom := errors.New("boom")
	var after atomic.Int32
	err := ForEach(context.Background(), 2, 1000, func(_ context.Context, i int) error {
		if i == 0 {
			return boom
		}
		after.Add(1)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	// With 2 workers and cancellation on the very first index, only a
	// handful of in-flight indices may still run — never anything close to
	// the full range.
	if c := after.Load(); c > 100 {
		t.Fatalf("%d indices ran after the failing one; dispatch did not stop", c)
	}
}

func TestForEachContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	done := make(chan error, 1)
	go func() {
		done <- ForEach(ctx, 4, 10000, func(ctx context.Context, i int) error {
			started.Add(1)
			select {
			case <-ctx.Done():
			case <-time.After(5 * time.Millisecond):
			}
			return nil
		})
	}()
	for started.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ForEach did not return promptly after cancellation")
	}
}

// TestForEachNoGoroutineLeak pins the pool-teardown guarantee: after
// ForEach returns (success, error, or cancellation), no worker goroutines
// remain.
func TestForEachNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	for round := 0; round < 10; round++ {
		_ = ForEach(context.Background(), 8, 200, func(_ context.Context, i int) error {
			if i == 13 {
				return errors.New("fail")
			}
			return nil
		})
	}
	// Allow the runtime a moment to retire exiting goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", base, runtime.NumGoroutine())
}

func TestMapSequentialMatchesParallel(t *testing.T) {
	slow, err := Map(context.Background(), 1, 100, func(_ context.Context, i int) (float64, error) {
		return float64(i) * 1.5, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Map(context.Background(), 16, 100, func(_ context.Context, i int) (float64, error) {
		return float64(i) * 1.5, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range slow {
		if slow[i] != fast[i] {
			t.Fatalf("index %d: sequential %v != parallel %v", i, slow[i], fast[i])
		}
	}
}
