// Package par is the shared parallel-execution layer for the offline
// stage's embarrassingly parallel loops (per-scenario RWA + LotteryTicket
// generation, per-scenario TE evaluation, independent experiment runs).
//
// The paper notes the offline optimization "can be parallelized per
// scenario" (§6.3): every unit of work is independent, already owns a
// deterministic per-index RNG seed, and writes into an index-addressed
// slot. This package supplies the one concurrency pattern all of those
// call sites share — a bounded worker pool over the index range [0, n)
// with ordered result collection, context cancellation, and first-error
// propagation — so the call sites stay free of goroutine plumbing and the
// results stay byte-identical to the sequential path.
//
// Determinism contract: fn(i) must depend only on i (plus read-only
// captured state). ForEach/Map make no ordering guarantees between
// indices, but Map returns results in index order and ForEach reports the
// error of the lowest failed index, so output never depends on the worker
// count or goroutine schedule.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/arrow-te/arrow/internal/obs"
)

// Workers normalises a parallelism request: values <= 0 select
// runtime.NumCPU() (the default everywhere in this repo); 1 means fully
// sequential execution on the caller's goroutine.
func Workers(n int) int {
	if n <= 0 {
		return runtime.NumCPU()
	}
	return n
}

type workersKey struct{}

// WithWorkers attaches the worker budget of the fan-outs under ctx. Results
// are identical for every budget. n <= 0 returns ctx unchanged.
func WithWorkers(ctx context.Context, n int) context.Context {
	if n <= 0 {
		return ctx
	}
	return context.WithValue(ctx, workersKey{}, n)
}

// WorkersFrom returns the budget attached to ctx, or 0, which ForEach and
// Map read as NumCPU and te's pricing as serial.
func WorkersFrom(ctx context.Context) int {
	n, _ := ctx.Value(workersKey{}).(int)
	return n
}

// ForEach invokes fn(ctx, i) for every i in [0, n), distributing indices
// over at most workers goroutines (workers <= 0 selects NumCPU; workers
// is additionally capped at n). It returns when every started call has
// finished — no goroutines outlive the call.
//
// On the first error, the pool's context is cancelled and no new indices
// are drawn; a worker runs the index it has drawn (under the cancelled
// context), and in-flight calls run to completion. Since indices are drawn
// in order, every index below a failed one has run, and the returned error
// is the one recorded at the lowest index: the error a sequential loop
// returns, whatever the worker count or schedule, when fn's errors depend
// on i alone. If the parent context is cancelled before all indices
// complete, ctx.Err() is returned.
//
// workers == 1 runs fn sequentially in index order on the calling
// goroutine, restoring exactly the pre-parallel behaviour.
// Observability: when a Recorder travels in ctx (obs.WithRecorder), the
// pool counts dispatches (par.pools, par.tasks), times every task as a
// "par.task" span on a per-worker track, and accounts aggregate busy/idle
// time (par.busy_ns, par.idle_ns). Instrumentation only reads the clock —
// dispatch order, worker count and fn results are unaffected, and with no
// recorder in ctx the pool runs the exact pre-instrumentation code path.
func ForEach(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	rec := obs.FromContext(ctx)
	var poolStart time.Time
	if rec != nil {
		rec.Add("par.pools", 1)
		rec.Add("par.tasks", int64(n))
		poolStart = time.Now()
	}
	if workers == 1 {
		var busy time.Duration
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if rec == nil {
				if err := fn(ctx, i); err != nil {
					return err
				}
				continue
			}
			t0 := time.Now()
			err := fn(ctx, i)
			d := time.Since(t0)
			busy += d
			rec.SpanDone("par.task", obs.TrackFrom(ctx), t0, d)
			if err != nil {
				return err
			}
		}
		if rec != nil {
			rec.Add("par.busy_ns", int64(busy))
			rec.Observe("par.worker_busy_seconds", busy.Seconds())
		}
		return nil
	}

	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var failed atomic.Bool
	var next atomic.Int64
	var busyNS atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var track int64
			var workerBusy time.Duration
			if rec != nil {
				track = obs.NextTrack()
			}
			// The context is checked before a draw, never after it: a drawn
			// index always runs, which is what the lowest-index error needs.
			for pctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					break
				}
				var err error
				if rec == nil {
					err = fn(pctx, i)
				} else {
					t0 := time.Now()
					rec.Observe("par.queue_wait_seconds", t0.Sub(poolStart).Seconds())
					err = fn(obs.WithTrack(pctx, track), i)
					d := time.Since(t0)
					workerBusy += d
					rec.SpanDone("par.task", track, t0, d)
				}
				if err != nil {
					errs[i] = err
					failed.Store(true)
					cancel()
				}
			}
			if rec != nil {
				busyNS.Add(int64(workerBusy))
				rec.Observe("par.worker_busy_seconds", workerBusy.Seconds())
			}
		}()
	}
	wg.Wait()
	if rec != nil {
		busy := busyNS.Load()
		idle := int64(workers)*int64(time.Since(poolStart)) - busy
		if idle < 0 {
			idle = 0
		}
		rec.Add("par.busy_ns", busy)
		rec.Add("par.idle_ns", idle)
	}
	if failed.Load() {
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	return ctx.Err()
}

// Map runs fn for every index in [0, n) on the bounded pool and collects
// the results in index order. On error the partial results are discarded
// and the lowest-index error is returned (same contract as ForEach).
func Map[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(ctx, workers, n, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
