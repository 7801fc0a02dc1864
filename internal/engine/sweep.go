package engine

import (
	"context"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// SweepConfig controls the grid orchestrator.
type SweepConfig struct {
	// Workers caps concurrent cells (0 = GOMAXPROCS, 1 = serial).
	Workers int
	// BaseSeed feeds the deterministic per-cell seed derivation; cells
	// receive CellSeed(BaseSeed, i) regardless of scheduling order, so a
	// sweep's results are identical at any worker count.
	BaseSeed uint64
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
	sweepCellDuration   = obs.GetHistogram("engine.sweep.cell.duration")
	sweepGrids          = obs.GetCounter("engine.sweep.grids")
)

// Sweep evaluates cell for every index in [0, n) across a worker pool,
// collecting results in input order. Every cell is a deterministic
// function of its index and seed, so a cell runs once: the first cell
// error cancels the sweep (fail fast: no new cells are claimed; in-flight
// cells finish) and is returned; likewise ctx cancellation stops claiming
// and returns ctx.Err(). A panicking cell is recovered by the pool into a
// per-cell *parallel.PanicError instead of killing the process.
//
// Progress reaches callers through the globally installed sink
// (obs.SetSweepProgress — the -progress flag of the cmd/* tools), called
// serialized after each finished cell, failed ones included. With
// observability enabled, every cell's latency lands in the
// engine.sweep.cell.duration histogram with completed/failed counters
// alongside, and progress is mirrored into obs.ReportProgress.
func Sweep[T any](ctx context.Context, n int, cfg SweepConfig, cell func(ctx context.Context, i int, seed uint64) (T, error)) ([]T, error) {
	capNestedWorkers(ctx, &cfg)
	routeWorkers(n, &cfg)
	ctx, sp := obs.StartSpan(ctx, "engine.sweep")
	sp.SetDetail(strconv.Itoa(n) + " cells")
	defer sp.End()
	instrumented := obs.Enabled()
	if instrumented {
		sweepGrids.Inc()
		obs.AddCells(n)
	}
	tick := progressTicker(n, instrumented)
	// Cells get the sweep's context, not the pool's per-item one, which
	// a sibling's failure cancels; it is marked so nested sweeps default
	// to serial (see capNestedWorkers).
	cellCtx := context.WithValue(ctx, nestedSweepKey{}, true)
	return parallel.MapCtx(ctx, n, cfg.Workers, func(_ context.Context, i int) (v T, err error) {
		ctx := cellCtx
		var start time.Time
		var csp *obs.Span
		if instrumented {
			start = time.Now()
			ctx, csp = obs.StartSpan(ctx, "engine.sweep.cell")
			csp.SetDetail("cell " + strconv.Itoa(i))
		}
		// The pool recovers a panic into a *parallel.PanicError; this
		// deferred bookkeeping runs on the way, so a panicked cell is
		// counted and its flight ring kept like any failed one.
		panicked := true
		defer func() {
			if instrumented {
				if panicked {
					sweepCellsPanicked.Inc()
					// A recovered cell panic is the flight recorder's
					// reason to exist: dump the ring (what every worker
					// just did) to stderr and attach it to the run record
					// as evidence.
					obs.NoteEvent("panic", "engine.sweep.cell", "cell "+strconv.Itoa(i))
					obs.DumpFlight(os.Stderr)
					obs.AttachFlightToRecord()
				}
				csp.End()
				sweepCellDuration.Observe(time.Since(start))
				if panicked || err != nil {
					sweepCellsFailed.Inc()
				} else {
					sweepCellsCompleted.Inc()
				}
			}
			// Completions count toward progress whether or not the cell
			// failed: on a failing grid the bar keeps moving while
			// in-flight cells drain instead of silently undercounting.
			tick()
		}()
		v, err = cell(ctx, i, CellSeed(cfg.BaseSeed, i))
		panicked = false
		return v, err
	})
}

// progressTicker returns the per-cell completion callback of an n-cell
// sweep: it advances a serialized done count and reports it to the
// global progress sink and, when instrumented, to obs.ReportProgress,
// which mirrors it into the exposition endpoint so a /snapshot scrape
// mid-sweep shows done/total without -progress.
func progressTicker(n int, instrumented bool) func() {
	sink := obs.SweepProgressFunc()
	if sink == nil && !instrumented {
		return func() {}
	}
	var (
		mu   sync.Mutex
		done int
	)
	return func() {
		mu.Lock()
		defer mu.Unlock()
		done++
		if instrumented {
			obs.ReportProgress(done, n)
		}
		if sink != nil {
			sink(done, n)
		}
	}
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
