// Package parallel provides the small worker-pool helper the experiment
// sweeps use to exploit multiple cores. Every simulation in this
// repository is deterministic and cell-independent, so grid sweeps
// parallelize without affecting results; MapCtx preserves input order
// and fails fast on the first error.
//
// With observability enabled (internal/obs), each pool reports item
// success/failure counts, a queue-wait histogram (time a worker spends
// between finishing one item and starting the next, i.e. claim
// contention plus drain), and a worker-utilization gauge
// (Σ busy time / (workers × wall time)). Disabled, the instrumentation
// costs one atomic load per pool and nothing per item.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// PanicError is a worker panic converted into a per-item error: the item
// index, the recovered value, and the goroutine stack at the panic site.
// A panicking cell no longer kills the whole process — it fails like any
// other erroring item. Test with errors.As.
type PanicError struct {
	Item  int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: item %d panicked: %v\n%s", e.Item, e.Value, e.Stack)
}

// call invokes f with panic recovery.
func call[T any](ctx context.Context, i int, f func(ctx context.Context, i int) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Item: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return f(ctx, i)
}

// pool telemetry; pointers cached once, values recorded only while
// obs is enabled.
var (
	poolItemsOK     = obs.GetCounter("parallel.items.ok")
	poolItemsFailed = obs.GetCounter("parallel.items.failed")
	poolQueueWait   = obs.GetHistogram("parallel.queue.wait")
	poolUtilization = obs.GetGauge("parallel.worker.utilization")
	poolRuns        = obs.GetCounter("parallel.pools")
)

// MapCtx applies f to every item index in [0, n), using up to workers
// goroutines (0 = GOMAXPROCS), and collects the results in input order.
// The first error stops the pool from claiming further items and is
// returned once in-flight calls finish; a panicking call is recovered
// into a *PanicError and fails the same way. Once ctx is done, workers
// stop claiming new items (in-flight calls finish) and the context error
// is returned unless an item error occurred first. The per-item function
// receives a context derived from ctx, canceled by the first item error,
// so long-running items can also abort mid-call; the first item error is
// the one returned, never a sibling's resulting cancellation.
func MapCtx[T any](ctx context.Context, n, workers int, f func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("parallel: negative item count %d", n)
	}
	out := make([]T, n)
	itemCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var firstErr error
	run(itemCtx, n, workers, f, func(i int, v T, err error) {
		if err != nil {
			// Only the first failure is reported: items that fail later,
			// typically with the cancellation this one triggers, are
			// just settled.
			if firstErr == nil {
				firstErr = fmt.Errorf("parallel: item %d: %w", i, err)
				cancel()
			}
			return
		}
		out[i] = v
	})
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// run is the worker loop behind MapCtx. It calls f on the indexes
// [0, n) in order of claim from up to workers goroutines (0 =
// GOMAXPROCS; with one worker the loop runs inline and spawns nothing)
// and hands every outcome to settle. Claims and settle calls
// are serialized under one lock, so settle needs no locking of its own,
// and once ctx is done no further index is claimed; a caller that wants
// fail-fast cancels ctx from settle. run returns once every claimed call
// has settled.
func run[T any](ctx context.Context, n, workers int, f func(ctx context.Context, i int) (T, error), settle func(i int, v T, err error)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if n == 0 {
		return
	}
	instrumented := obs.Enabled()
	var (
		poolStart time.Time
		busyNs    atomic.Int64
	)
	if instrumented {
		poolRuns.Inc()
		poolStart = time.Now()
	}
	var (
		mu   sync.Mutex
		next int
	)
	worker := func() {
		idleSince := poolStart
		for {
			mu.Lock()
			if next >= n || ctx.Err() != nil {
				mu.Unlock()
				return
			}
			i := next
			next++
			mu.Unlock()
			var itemStart time.Time
			if instrumented {
				itemStart = time.Now()
				poolQueueWait.Observe(itemStart.Sub(idleSince))
			}
			v, err := call(ctx, i, f)
			if instrumented {
				idleSince = time.Now()
				busyNs.Add(int64(idleSince.Sub(itemStart)))
				if err != nil {
					poolItemsFailed.Inc()
				} else {
					poolItemsOK.Inc()
				}
			}
			mu.Lock()
			settle(i, v, err)
			mu.Unlock()
		}
	}
	if workers <= 1 {
		worker()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				worker()
			}()
		}
		wg.Wait()
	}
	if instrumented {
		if wall := time.Since(poolStart); wall > 0 {
			poolUtilization.Set(float64(busyNs.Load()) / (float64(workers) * float64(wall.Nanoseconds())))
		}
	}
}
