package engine

import (
	"context"
	"runtime"
	"strconv"

	"repro/internal/chaos"
	"repro/internal/fluid"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// This file holds the engine's one fluid run loop, runFluid, and the
// grid-batch path through the sweep engine: SweepSpecs groups compatible
// fluid cells of a spec grid and advances each group in lockstep through
// one fluid.Batch, while every other cell — non-fluid substrates, cells
// with their own Cfg.Perturb, singleton groups — takes the ordinary
// per-cell engine.Run path, whose fluid substrate is runFluid over one
// cell. A fluid.Batch steps each cell exactly as it would step alone, so
// callers cannot observe which path a cell took except through the
// engine.sweep.cells.batched / .fallback counters and wall-clock time.

// minBatchGroup is the smallest group worth batching: a singleton gains
// nothing over per-cell stepping, so it falls back (and counts as
// fallback in the telemetry).
const minBatchGroup = 2

// A group large enough is cut finer than one chunk per worker: into up
// to chunksPerWorker chunks per worker, each of at least minChunk cells.
// The pool claims chunks as workers free up, so a chunk that runs slow
// (a collection, a preempted thread) no longer leaves the other workers
// idle at the end of the group, while each chunk stays wide enough to
// step in lockstep.
const (
	chunksPerWorker = 4
	minChunk        = 16
)

// emitStrip is how many lockstep steps of observer data each batched
// cell buffers before flushing them to its observers in one consecutive
// run (see runBatchGroup).
const emitStrip = 64

// Strip is a contiguous run of steps from one cell, handed to
// StripObserver implementations by the batch path. Windows is flow-major
// (Count×Flows values transposed relative to Step.Windows): flow i's
// samples occupy the contiguous column Windows[i*Count : (i+1)*Count],
// with element k of a column belonging to step Start+k. The layout lets
// per-flow consumers bulk-copy a whole column without a gather. Like
// Step.Windows, the backing slices are reused and only valid during the
// ObserveStrip call.
type Strip struct {
	Start   int // index of the first step in the strip
	Count   int // steps in the strip
	Flows   int // number of Windows columns
	Windows []float64
	Totals  []float64
	RTT     []float64
	Loss    []float64
}

// StripObserver is an optional Observer upgrade. The grid-batch path
// buffers runs of consecutive steps per cell and hands whole strips to
// observers that implement it, amortizing the per-step dispatch and
// Step-struct copy; everyone else receives the same steps one Observe at
// a time. Implementations must be indistinguishable from observing the
// equivalent Steps in order — the upgrade is a fast path, never a
// semantic one.
type StripObserver interface {
	Observer
	ObserveStrip(Strip)
}

// Batch-path telemetry, recorded only while obs is enabled. A cell counts
// as batched when it was planned into a lockstep group, and as fallback
// when it is a fluid-substrate cell that took the per-cell path instead
// (singleton group, no steps, its own Cfg.Perturb). Non-fluid cells
// count as neither.
var (
	sweepCellsBatched  = obs.GetCounter("engine.sweep.cells.batched")
	sweepCellsFallback = obs.GetCounter("engine.sweep.cells.fallback")
)

// batchOut is the precomputed outcome of a batched cell, returned by the
// sweep cell function instead of calling Run.
type batchOut struct {
	res *Result
	err error
}

// SweepSpecs runs one engine Spec per grid cell across the sweep
// orchestrator, returning results in input order. It is Sweep
// specialized to spec grids, plus the grid-batch fast path: compatible
// cells are grouped and stepped in lockstep before the per-cell pass,
// which then serves their precomputed results. All Sweep semantics are
// preserved — fail-fast on the first cell error, deterministic results
// at any worker count, context cancellation, and obs instrumentation.
//
// Specs must be self-describing: cell seeds come from each spec's
// Cfg.Seed / ChaosSeed fields, not from CellSeed derivation (the per-cell
// seed Sweep hands its cell function is ignored). Like Run, substrates
// are single-use — build fresh specs per call.
//
// engine.run.duration telemetry is not recorded for batched cells: a
// lockstep group has no per-cell wall time (see DESIGN.md).
func SweepSpecs(ctx context.Context, specs []Spec, cfg SweepConfig) ([]*Result, error) {
	capNestedWorkers(ctx, &cfg)
	routeWorkers(len(specs), &cfg)
	ctx, sp := obs.StartSpan(ctx, "engine.sweep.specs")
	sp.SetDetail(strconv.Itoa(len(specs)) + " specs")
	defer sp.End()
	pre := runBatches(ctx, specs, &cfg)
	return Sweep(ctx, len(specs), cfg, func(ctx context.Context, i int, _ uint64) (*Result, error) {
		if pre != nil && pre[i] != nil {
			return pre[i].res, pre[i].err
		}
		return Run(ctx, specs[i])
	})
}

// batchKey identifies a group of lockstep-compatible cells: same step
// count, and — when a chaos schedule is present — the same schedule
// value, seed, and flow count, so one compiled injector serves the whole
// group (the injector's per-step state advances once per step no matter
// how many cells query it, which is what makes sharing bit-identical to
// per-cell compilation).
type batchKey struct {
	steps     int
	chaos     *chaos.Schedule
	chaosSeed uint64
	flows     int
}

// batchKeyFor classifies one spec: the group key and true when the cell
// can join a lockstep group, false when it must take the per-cell path.
// Any fluid cell with steps to run and no perturber of its own can; one
// the stepper rejects still fails on its own inside its group.
func batchKeyFor(spec *Spec) (batchKey, bool) {
	fs, ok := spec.Substrate.(*FluidSpec)
	if !ok {
		return batchKey{}, false
	}
	if fs.Steps <= 0 || fs.Cfg.Perturb != nil {
		return batchKey{}, false
	}
	k := batchKey{steps: fs.Steps}
	if spec.Chaos != nil {
		k.chaos = spec.Chaos
		k.chaosSeed = spec.ChaosSeed
		k.flows = len(fs.Senders)
	}
	return k, true
}

// planBatches is the pure planning step of runBatches. It groups the
// batchable cells of specs by batchKey, drops groups smaller than
// minBatchGroup, and cuts each remaining group of n cells into
// k = max(min(workers, n/minBatchGroup), min(chunksPerWorker·workers,
// n/minChunk)) chunks (workers < 1 means GOMAXPROCS, as in
// parallel.MapCtx), so a grid whose cells all share one key steps on
// every worker the sweep owns and a large one in several chunks per
// worker. Each chunk is a contiguous run of its group in input order
// with at least minChunk cells when the finer cut applies and
// minBatchGroup otherwise, and the cuts fall where the running
// sender-lane count is nearest each chunk's share of the group's total,
// which keeps chunks of mixed 1- and 2-sender cells equally heavy.
// Chunks are returned group by group, groups in order of their first
// cell.
func planBatches(specs []Spec, workers int) [][]int {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	var keys []batchKey
	groups := make(map[batchKey][]int)
	for i := range specs {
		key, ok := batchKeyFor(&specs[i])
		if !ok {
			continue
		}
		if _, seen := groups[key]; !seen {
			keys = append(keys, key)
		}
		groups[key] = append(groups[key], i)
	}
	var chunks [][]int
	for _, key := range keys {
		idxs := groups[key]
		n := len(idxs)
		if n < minBatchGroup {
			continue
		}
		k, least := min(workers, n/minBatchGroup), minBatchGroup
		if fine := min(chunksPerWorker*workers, n/minChunk); fine > k {
			k, least = fine, minChunk
		}
		chunks = append(chunks, splitGroup(specs, idxs, k, least)...)
	}
	return chunks
}

// splitGroup cuts one batch group into k contiguous chunks of at least
// least cells each, placing cut c where the lanes before it are nearest
// c/k of the group's lanes (ties go to the earlier cut).
func splitGroup(specs []Spec, idxs []int, k, least int) [][]int {
	if k <= 1 {
		return [][]int{idxs}
	}
	// cum[j] is the lane count of idxs[:j].
	cum := make([]int, len(idxs)+1)
	for j, i := range idxs {
		cum[j+1] = cum[j] + len(specs[i].Substrate.(*FluidSpec).Senders)
	}
	// |cum[j]·k − c·total| is k times the distance to the ideal cut, so
	// the comparison stays in integers.
	dist := func(j, c int) int {
		d := cum[j]*k - c*cum[len(idxs)]
		if d < 0 {
			return -d
		}
		return d
	}
	chunks := make([][]int, 0, k)
	lo := 0
	for c := 1; c < k; c++ {
		// The cut must leave this chunk and each of the k-c after it
		// least cells.
		hi := lo + least
		for j := hi + 1; j <= len(idxs)-(k-c)*least; j++ {
			if dist(j, c) < dist(hi, c) {
				hi = j
			}
		}
		chunks = append(chunks, idxs[lo:hi])
		lo = hi
	}
	return append(chunks, idxs[lo:])
}

// runBatches plans the batch chunks (planBatches) and steps them,
// returning per-cell precomputed outcomes (nil entries mean "run
// per-cell"). Each chunk is one parallel.MapCtx item under cfg.Workers,
// the budget the sweep already resolved, so a single large group keeps
// every worker busy. The worker that stepped a chunk also finishes each
// of its cells that succeeded. Context cancellation aborts cleanly, leaving
// unfinished cells to the per-cell pass (which observes the cancellation
// itself).
func runBatches(ctx context.Context, specs []Spec, cfg *SweepConfig) []*batchOut {
	instrumented := obs.Enabled()
	fluidCells := 0
	if instrumented {
		for i := range specs {
			if _, ok := specs[i].Substrate.(*FluidSpec); ok {
				fluidCells++
			}
		}
	}
	if len(specs) < minBatchGroup {
		if instrumented {
			sweepCellsFallback.Add(uint64(fluidCells))
		}
		return nil
	}

	chunks := planBatches(specs, cfg.Workers)
	batched := 0
	for _, c := range chunks {
		batched += len(c)
	}
	if instrumented {
		sweepCellsBatched.Add(uint64(batched))
		sweepCellsFallback.Add(uint64(fluidCells - batched))
	}
	if len(chunks) == 0 {
		return nil
	}

	outs := make([]*batchOut, len(specs))
	// Chunk workers write disjoint outs entries, so the slice needs no
	// lock. The chunk function never returns an error: per-cell failures
	// (divergence, invalid cells, chaos compile errors) are recorded in
	// outs and surfaced by the per-cell pass with Sweep's usual fail-fast
	// rules. A cancelled chunk leaves its entries nil; those cells fall
	// through to the per-cell pass, which observes the cancellation before
	// emitting anything.
	parallel.MapCtx(ctx, len(chunks), cfg.Workers, func(ctx context.Context, g int) (struct{}, error) {
		idxs := chunks[g]
		cells := make([]*Spec, len(idxs))
		for j, i := range idxs {
			cells[j] = &specs[i]
		}
		res := runFluid(ctx, cells, true)
		if res == nil {
			return struct{}{}, nil
		}
		failed := 0
		for j, i := range idxs {
			outs[i] = &res[j]
			if res[j].err != nil {
				failed++
				continue
			}
			finish(&specs[i])
		}
		if instrumented {
			// Mirror Run's per-kind counters so dashboards see batched
			// cells too (run durations are not recorded: a lockstep group
			// has no per-cell wall time).
			tel := &runTelByKind[kFluid]
			tel.failed.Add(uint64(failed))
			ok := uint64(len(idxs) - failed)
			tel.runs.Add(ok)
			tel.steps.Add(ok * uint64(cells[0].Substrate.(*FluidSpec).Steps))
		}
		return struct{}{}, nil
	})
	return outs
}

// runFluid is the engine's one fluid run loop. It steps the fluid cells
// in lockstep through one fluid.Batch and returns their outcomes in
// order, or nil when ctx is cancelled first. A batch group calls it with
// one chunk, grouped, and FluidSpec.run with its single cell. The cells
// share a step count and, when they carry chaos, one (schedule, seed,
// flows) triple, so one compiled injector serves them all: the injector's
// per-step state advances once per step no matter how many cells query
// it, which makes sharing bit-identical to per-cell compilation, and a
// compile error fails every cell with the same error. A cell that
// fluid.Batchable rejects fails on its own, with the error fluid.New
// would return for it.
func runFluid(ctx context.Context, cells []*Spec, grouped bool) []batchOut {
	first := cells[0]
	fs0 := first.Substrate.(*FluidSpec)
	steps := fs0.Steps

	// A group's span brackets the whole lockstep unit of work (one chunk,
	// so a split group shows one span per chunk); the precompute/step/emit
	// child spans split it into the fluid.Batch phases, so a timeline
	// shows where a batched chunk's time goes. A single run already sits
	// in Run's engine.run.fluid span and opens none.
	if grouped {
		var gsp *obs.Span
		ctx, gsp = obs.StartSpan(ctx, "engine.batch.group")
		gsp.SetDetail(strconv.Itoa(len(cells)) + " cells × " + strconv.Itoa(steps) + " steps")
		defer gsp.End()
	}
	span := func(name string) *obs.Span {
		if !grouped {
			return nil
		}
		_, sp := obs.StartSpan(ctx, name)
		return sp
	}
	psp := span("engine.batch.precompute")

	outs := make([]batchOut, len(cells))
	inj, err := compileChaos(first, len(fs0.Senders), 1)
	if err != nil {
		for j := range outs {
			outs[j].err = err
		}
		psp.End()
		return outs
	}

	type cellRun struct {
		spec *Spec
		out  *batchOut
		done bool
		// Strip-mined emission buffers, nil when the cell has no
		// observers (or only TailObservers that want no steps).
		// Emitting round-robin across the group — one Observe per cell
		// per step — touches every observer's working set every step,
		// which thrashes the cache badly enough to cancel the SoA
		// stepping win. Buffering emitStrip steps per cell and flushing
		// one cell at a time keeps each observer hot for a run of
		// consecutive Observe calls. Per-stream observation order is
		// unchanged, and Step.Windows is only valid during Observe, so
		// observers cannot tell.
		//
		// windows is flow-major with column stride emitStrip (flow i's
		// buffered samples at windows[i*emitStrip+0 .. i*emitStrip+n-1]),
		// matching the Strip layout so full strips flush without a
		// transpose; partial strips compact their columns in place first.
		flows   int
		base    int // step index of the first buffered entry, from firstObserved on
		n       int // buffered entries
		windows []float64
		row     []float64 // per-step gather scratch for plain Observers
		rtt     []float64
		loss    []float64
		total   []float64
	}
	batchCells := make([]fluid.BatchCell, 0, len(cells))
	runs := make([]cellRun, 0, len(cells))
	for j, spec := range cells {
		fs := spec.Substrate.(*FluidSpec)
		cfg := fs.Cfg
		if inj != nil {
			cfg.Perturb = inj
		}
		if err := fluid.Batchable(cfg, fs.Senders); err != nil {
			outs[j].err = err
			continue
		}
		batchCells = append(batchCells, fluid.BatchCell{Cfg: cfg, Senders: fs.Senders})
		runs = append(runs, cellRun{spec: spec, out: &outs[j]})
	}
	if len(runs) == 0 {
		psp.End()
		return outs
	}
	b, err := fluid.NewBatch(batchCells)
	if err != nil {
		// Unreachable: every cell passed fluid.Batchable.
		for j := range runs {
			runs[j].out.err = err
		}
		psp.End()
		return outs
	}
	for j := range runs {
		r := &runs[j]
		f := len(batchCells[j].Senders)
		if from := firstObserved(r.spec.Observers, steps); from < steps {
			r.flows = f
			r.base = from
			r.windows = make([]float64, emitStrip*f)
			r.row = make([]float64, f)
			r.rtt = make([]float64, emitStrip)
			r.loss = make([]float64, emitStrip)
			r.total = make([]float64, emitStrip)
		}
	}
	flush := func(r *cellRun) {
		if r.n == 0 {
			return
		}
		f := r.flows
		if r.n < emitStrip {
			// Partial strip: close the gaps so column i sits at stride
			// r.n, as Strip promises. copy has memmove semantics and the
			// columns move strictly leftward in increasing i, so in-place
			// compaction is safe.
			for i := 1; i < f; i++ {
				copy(r.windows[i*r.n:(i+1)*r.n], r.windows[i*emitStrip:i*emitStrip+r.n])
			}
		}
		strip := Strip{
			Start:   r.base,
			Count:   r.n,
			Flows:   f,
			Windows: r.windows[:r.n*f],
			Totals:  r.total[:r.n],
			RTT:     r.rtt[:r.n],
			Loss:    r.loss[:r.n],
		}
		for _, o := range r.spec.Observers {
			if so, ok := o.(StripObserver); ok {
				so.ObserveStrip(strip)
				continue
			}
			for k := 0; k < r.n; k++ {
				for i := 0; i < f; i++ {
					r.row[i] = r.windows[i*r.n+k]
				}
				o.Observe(Step{
					Index:   r.base + k,
					Windows: r.row,
					Total:   r.total[k],
					RTT:     r.rtt[k],
					Loss:    r.loss[k],
				})
			}
		}
		r.base += r.n
		r.n = 0
	}

	psp.End()

	// The step span covers the lockstep loop including inline strip
	// flushes (emission interleaves with stepping by design); the emit
	// span after it is the final drain of partial strips.
	ssp := span("engine.batch.step")
	live := len(runs)
	for s := 0; s < steps && live > 0; s++ {
		if s&0xff == 0 {
			if ctx.Err() != nil {
				ssp.End()
				return nil
			}
		}
		b.Step()
		for j := range runs {
			r := &runs[j]
			if r.done {
				continue
			}
			if err := b.Err(j); err != nil {
				// Divergence: the failing step is not emitted, and the
				// cell stops (after flushing the steps buffered before
				// the failure).
				r.out.err = err
				r.done = true
				live--
				if r.windows != nil {
					flush(r)
				}
				continue
			}
			w := b.Windows(j)
			// Before the first observed step, base is still ahead of s.
			if r.windows != nil && s >= r.base {
				total := 0.0
				off := r.n
				for k, v := range w {
					r.windows[k*emitStrip+off] = v
					total += v
				}
				r.rtt[r.n] = b.RTT(j)
				r.loss[r.n] = b.CongLoss(j)
				r.total[r.n] = total
				r.n++
				if r.n == emitStrip {
					flush(r)
				}
			}
		}
	}
	ssp.End()

	esp := span("engine.batch.emit")
	for j := range runs {
		if runs[j].windows != nil {
			flush(&runs[j])
		}
	}
	esp.End()

	for j := range runs {
		if r := &runs[j]; r.out.err == nil {
			r.out.res = &Result{Steps: steps}
		}
	}
	return outs
}
