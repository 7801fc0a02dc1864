package engine

import (
	"context"
	"errors"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"repro/internal/fluid"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/retry"
)

// cellRetryPolicy is the backoff schedule between reseeded cell
// attempts: the historical 5ms→320ms doubling ladder, now with ±50%
// deterministic jitter (seeded by the cell seed, so grids stay
// reproducible) to decorrelate the retries of neighboring cells that
// failed together — e.g. when a shared store briefly stalled every
// worker at once. The shared helper is the same one axiomd uses for
// shard respawns.
var cellRetryPolicy = retry.Policy{
	Base:       5 * time.Millisecond,
	Max:        320 * time.Millisecond,
	Multiplier: 2,
	Jitter:     0.5,
}

// SweepConfig controls the grid orchestrator.
type SweepConfig struct {
	// Workers caps concurrent cells (0 = GOMAXPROCS, 1 = serial).
	Workers int
	// BaseSeed feeds the deterministic per-cell seed derivation; cells
	// receive CellSeed(BaseSeed, i) regardless of scheduling order, so a
	// sweep's results are identical at any worker count.
	BaseSeed uint64
	// Progress, when non-nil, is called after each completed cell —
	// whether the cell succeeded or returned an error — with the number
	// done so far and the total. Calls are serialized; completion order
	// is nondeterministic under parallelism but done increments by one
	// each call. On a fail-fast abort the remaining (never-started) cells
	// produce no calls, so done may stop short of total.
	Progress func(done, total int)

	// CellTimeout bounds each cell attempt; an attempt whose context
	// deadline expires counts as a transient failure. 0 means no
	// per-cell deadline (the process-wide default from SetHardening
	// applies when set).
	CellTimeout time.Duration
	// Retries is the number of extra attempts granted to a cell whose
	// failure looks transient (timeouts and unclassified errors — not
	// divergence, panics, or parent-context cancellation). Retry k runs
	// with the reseeded CellSeed(cellSeed, k) after a short deterministic
	// backoff.
	Retries int
}

// CellSeed derives the deterministic seed for cell i from base by
// feeding base + φ·(i+1) through the SplitMix64 finalizer (Steele, Lea
// & Flood, OOPSLA 2014 — the same mixer JDK's SplittableRandom and
// xoshiro's seeding use). φ = 0x9e3779b97f4a7c15 is 2⁶⁴/golden-ratio,
// the Weyl-sequence increment: it is odd, so i ↦ base + φ·(i+1) is a
// bijection on uint64 and no two cells of one sweep can share a
// finalizer input; the finalizer itself is also bijective and avalanches
// (each input bit flips each output bit with probability ≈ ½), so
// neighboring cells — and sweeps whose small integer bases differ by
// 1 — still get statistically independent streams. Collisions within a
// base are therefore impossible by construction, not just unlikely; see
// TestCellSeedNoCollisions1e5 for the empirical sanity check.
func CellSeed(base uint64, i int) uint64 {
	z := base + 0x9e3779b97f4a7c15*uint64(i+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// sweep telemetry, recorded only while obs is enabled. Cached pointers:
// the registry preserves metric identity across Reset.
var (
	sweepCellsCompleted = obs.GetCounter("engine.sweep.cells.completed")
	sweepCellsFailed    = obs.GetCounter("engine.sweep.cells.failed")
	sweepCellsPanicked  = obs.GetCounter("engine.sweep.cells.panicked")
	sweepCellsRetried   = obs.GetCounter("engine.sweep.cells.retried")
	sweepCellDuration   = obs.GetHistogram("engine.sweep.cell.duration")
	sweepGrids          = obs.GetCounter("engine.sweep.grids")
)

// Sweep evaluates cell for every index in [0, n) across a worker pool,
// collecting results in input order. The first cell error cancels the
// sweep (fail fast: no new cells are claimed; in-flight cells finish) and
// is returned; likewise ctx cancellation stops claiming and returns
// ctx.Err(). A panicking cell is recovered into a per-cell
// *parallel.PanicError instead of killing the process.
//
// Per-cell deadlines and bounded retries are governed by the SweepConfig
// hardening fields (process-wide defaults via SetHardening /
// RegisterSweepFlags).
//
// With observability enabled, every cell's latency lands in the
// engine.sweep.cell.duration histogram with completed/failed counters
// alongside, and a globally installed progress sink (obs.SetSweepProgress
// — the -progress flag of the cmd/* tools) is chained in front of
// cfg.Progress.
func Sweep[T any](ctx context.Context, n int, cfg SweepConfig, cell func(ctx context.Context, i int, seed uint64) (T, error)) ([]T, error) {
	capNestedWorkers(ctx, &cfg)
	routeWorkers(n, &cfg)
	ctx, sp := obs.StartSpan(ctx, "engine.sweep")
	sp.SetDetail(strconv.Itoa(n) + " cells")
	defer sp.End()
	h := newHarness[T](n, &cfg)
	wrapped := h.wrap(cell)
	// Cells get the sweep's context, not the pool's per-item one, which
	// a sibling's failure cancels.
	return parallel.MapCtx(ctx, n, cfg.Workers, func(_ context.Context, i int) (T, error) {
		return wrapped(ctx, i)
	})
}

// SweepSettled is Sweep without fail-fast: every cell runs to completion
// and failures — panics, timeouts, divergence — are reported per cell in
// the second return value (nil for successes) while the other cells'
// results stay valid. The third value is ctx.Err() when cancellation
// stopped cells from being claimed; those cells carry the context error.
func SweepSettled[T any](ctx context.Context, n int, cfg SweepConfig, cell func(ctx context.Context, i int, seed uint64) (T, error)) ([]T, []error, error) {
	capNestedWorkers(ctx, &cfg)
	routeWorkers(n, &cfg)
	ctx, sp := obs.StartSpan(ctx, "engine.sweep")
	sp.SetDetail(strconv.Itoa(n) + " cells")
	defer sp.End()
	h := newHarness[T](n, &cfg)
	return parallel.MapSettled(ctx, n, cfg.Workers, h.wrap(cell))
}

// nestedSweepKey marks contexts handed to sweep cells, so a sweep started
// from inside a cell can tell it is nested.
type nestedSweepKey struct{}

// InSweepCell reports whether ctx descends from a sweep cell's context.
func InSweepCell(ctx context.Context) bool {
	return ctx != nil && ctx.Value(nestedSweepKey{}) != nil
}

// capNestedWorkers defaults an unset worker count to serial when the
// sweep is launched from inside another sweep's cell: the outer grid
// already owns the cores, and a nested GOMAXPROCS-wide pool would
// oversubscribe them quadratically. An explicit cfg.Workers is honored —
// the caller has claimed responsibility for the budget.
func capNestedWorkers(ctx context.Context, cfg *SweepConfig) {
	if cfg.Workers == 0 && InSweepCell(ctx) {
		cfg.Workers = 1
	}
}

// routeWorkers resolves an unset worker count to the cheapest execution
// shape for an n-cell grid: serial for degenerate grids (n ≤ 1 — the
// pool then runs inline, spawning no goroutines), and min(GOMAXPROCS, n)
// workers otherwise, so a small grid never pays for idle workers. An
// explicit cfg.Workers is an override and is honored as-is. This
// makes the routing decision explicit and testable instead of a side
// effect of the worker pool's internal capping.
func routeWorkers(n int, cfg *SweepConfig) {
	if cfg.Workers != 0 {
		return
	}
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	cfg.Workers = w
}

// harness carries the per-sweep state shared by Sweep and SweepSettled:
// the chained progress sink and the instrumentation flag.
type harness[T any] struct {
	cfg          *SweepConfig
	n            int
	instrumented bool
	progress     func(done, total int)
	mu           sync.Mutex
	done         int
}

func newHarness[T any](n int, cfg *SweepConfig) *harness[T] {
	applyHardening(cfg)
	h := &harness[T]{cfg: cfg, n: n, instrumented: obs.Enabled(), progress: cfg.Progress}
	if sink := obs.SweepProgressFunc(); sink != nil {
		if inner := h.progress; inner != nil {
			h.progress = func(done, total int) {
				sink(done, total)
				inner(done, total)
			}
		} else {
			h.progress = sink
		}
	}
	if h.instrumented {
		sweepGrids.Inc()
		obs.AddCells(n)
		// Mirror progress into the exposition endpoint's atomics so a
		// /snapshot scrape mid-sweep shows done/total without -progress.
		if inner := h.progress; inner != nil {
			h.progress = func(done, total int) {
				obs.ReportProgress(done, total)
				inner(done, total)
			}
		} else {
			h.progress = obs.ReportProgress
		}
	}
	return h
}

// tick advances the serialized progress callback.
func (h *harness[T]) tick() {
	if h.progress == nil {
		return
	}
	h.mu.Lock()
	h.done++
	h.progress(h.done, h.n)
	h.mu.Unlock()
}

// wrap builds the per-item function the worker pool runs: the
// deadline+retry attempt loop, instrumentation, and progress.
func (h *harness[T]) wrap(cell func(ctx context.Context, i int, seed uint64) (T, error)) func(ctx context.Context, i int) (T, error) {
	return func(ctx context.Context, i int) (T, error) {
		// Mark the cell's context so nested sweeps default to serial
		// (see capNestedWorkers).
		ctx = context.WithValue(ctx, nestedSweepKey{}, true)
		seed := CellSeed(h.cfg.BaseSeed, i)
		var start time.Time
		var csp *obs.Span
		if h.instrumented {
			start = time.Now()
			ctx, csp = obs.StartSpan(ctx, "engine.sweep.cell")
			csp.SetDetail("cell " + strconv.Itoa(i))
		}
		v, err := runCellAttempts(ctx, h.cfg, i, seed, cell)
		if h.instrumented {
			csp.End()
			sweepCellDuration.Observe(time.Since(start))
			if err != nil {
				sweepCellsFailed.Inc()
			} else {
				sweepCellsCompleted.Inc()
			}
		}
		// Completions count toward progress whether or not the cell
		// errored: on a failing grid the bar keeps moving while in-flight
		// cells drain instead of silently undercounting.
		h.tick()
		return v, err
	}
}

// runCellAttempts executes one cell under the configured deadline and
// retry budget. Attempt k > 0 runs with the reseeded CellSeed(seed, k)
// after a short deterministic backoff. Panics (recovered per attempt),
// divergence, and parent-context cancellation are permanent; deadline
// expiry and unclassified errors are transient.
func runCellAttempts[T any](ctx context.Context, cfg *SweepConfig, i int, seed uint64, cell func(ctx context.Context, i int, seed uint64) (T, error)) (T, error) {
	var zero T
	for attempt := 0; ; attempt++ {
		s := seed
		if attempt > 0 {
			s = CellSeed(seed, attempt)
		}
		actx, cancel := ctx, func() {}
		if cfg.CellTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, cfg.CellTimeout)
		}
		v, err := runAttempt(actx, i, s, cell)
		cancel()
		if err == nil {
			return v, nil
		}
		var pe *parallel.PanicError
		if errors.As(err, &pe) {
			if obs.Enabled() {
				sweepCellsPanicked.Inc()
				// A recovered cell panic is the flight recorder's reason to
				// exist: dump the ring (what every worker just did) to
				// stderr and attach it to the run record as evidence.
				obs.NoteEvent("panic", "engine.sweep.cell", "cell "+strconv.Itoa(i))
				obs.DumpFlight(os.Stderr)
				obs.AttachFlightToRecord()
			}
			return zero, err
		}
		if errors.Is(err, fluid.ErrDiverged) {
			return zero, err // deterministic blow-up: a retry replays it
		}
		if ctx.Err() != nil {
			return zero, err // the whole sweep is being torn down
		}
		if obs.Enabled() && errors.Is(actx.Err(), context.DeadlineExceeded) {
			obs.NoteEvent("deadline", "engine.sweep.cell",
				"cell "+strconv.Itoa(i)+" attempt "+strconv.Itoa(attempt)+" hit "+cfg.CellTimeout.String())
			obs.DumpFlight(os.Stderr)
			obs.AttachFlightToRecord()
		}
		if attempt >= cfg.Retries {
			return zero, err
		}
		if obs.Enabled() {
			sweepCellsRetried.Inc()
			obs.NoteEvent("retry", "engine.sweep.cell",
				"cell "+strconv.Itoa(i)+" attempt "+strconv.Itoa(attempt)+": "+err.Error())
			obs.AttachFlightToRecord()
		}
		if serr := retry.Sleep(ctx, cellRetryPolicy.Delay(attempt, seed)); serr != nil {
			return zero, serr
		}
	}
}

// runAttempt invokes cell with per-attempt panic recovery, so a panic on
// attempt 0 is classified (and counted) before the retry logic runs.
func runAttempt[T any](ctx context.Context, i int, seed uint64, cell func(ctx context.Context, i int, seed uint64) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &parallel.PanicError{Item: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return cell(ctx, i, seed)
}
