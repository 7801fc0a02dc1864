// Package engine unifies the repository's three simulation substrates —
// the §2 fluid-flow link (internal/fluid), the packet-level testbed
// (internal/packetsim), and the §6 conservation-law network over any DAG
// topology (internal/nettopo) — behind a single Spec → Run(ctx, spec)
// entry point.
//
// A Spec pairs a Substrate (what to simulate) with its Observers, which
// stream every sample as it is produced: axiom estimators run online over
// a fixed-size ring buffer, and a Recorder records the whole run into a
// *trace.Trace when a caller wants one. Observers are a run's one output
// besides the packet delivery counters in Result. Observers that read
// only a run's tail (TailObserver) are handed only the tail's steps, and
// observers that reduce a finished run (Finisher) are finished on the
// goroutine that ran it.
//
// Sweep is the companion orchestrator: it shards any cell grid across a
// worker pool with context cancellation, deterministic per-cell seeds,
// fail-fast error plumbing, and an optional progress callback. Every grid
// in internal/experiment runs through it.
package engine

import (
	"context"
	"errors"
	"time"

	"repro/internal/chaos"
	"repro/internal/nettopo"
	"repro/internal/obs"
	"repro/internal/packetsim"
)

// Step is one streamed sample: the per-sender windows in effect, their
// sum, and the link feedback for the sampling interval. For the network
// substrate RTT and Loss are zero (a network has no single scalar of
// either) and Topo carries the full per-link/per-flow step instead.
//
// Windows (and Topo) alias simulator-owned buffers and are valid only for
// the duration of the Observe call; observers must copy what they keep.
type Step struct {
	Index   int                 // sample index, 0-based
	Windows []float64           // per-sender congestion windows
	Total   float64             // sum of Windows
	RTT     float64             // link RTT in seconds (single-link substrates)
	Loss    float64             // link loss rate (single-link substrates)
	Topo    *nettopo.StepResult // non-nil for the nettopo substrate
}

// Observer consumes streamed steps during a run.
type Observer interface {
	Observe(Step)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Step)

// Observe implements Observer.
func (f ObserverFunc) Observe(s Step) { f(s) }

// TailObserver is an optional Observer upgrade for observers that read
// nothing but the last TailSteps() steps of a run, such as the
// tail-window estimators, whose rings hold a fixed number of samples.
// When every observer of a FluidSpec or TopoSpec run (per-cell or on the
// grid-batch path) implements it, the engine still simulates and checks
// every step but builds and emits only the last
// max(TailSteps()) of them, so an observer's first Step.Index (or
// Strip.Start) may be greater than zero. Implementations must count
// such a forward jump past the steps they have seen as that many
// withheld steps. PacketSpec emits every tick regardless: its tick
// count is only a hint.
type TailObserver interface {
	Observer
	TailSteps() int
}

// Finisher is an optional Observer upgrade for observers that reduce a
// run once it has ended, such as the stream estimators freezing their
// summary. The engine calls Finish once, after the last step of a run
// that succeeded, on the goroutine that ran it, on the per-cell and the
// grid-batch path alike, so a grid's reductions run on its workers. A
// run that fails, by divergence or otherwise, is never finished.
type Finisher interface {
	Observer
	Finish()
}

// finish calls Finish on every observer of a successful run that
// implements Finisher.
func finish(spec *Spec) {
	for _, o := range spec.Observers {
		if f, ok := o.(Finisher); ok {
			f.Finish()
		}
	}
}

// firstObserved returns the index of the first of a run's steps steps
// that observers are handed: steps minus the longest tail any of them
// reads, or 0 when one of them is not a TailObserver. With no observers
// it is steps, so nothing is built for them.
func firstObserved(observers []Observer, steps int) int {
	tail := 0
	for _, o := range observers {
		to, ok := o.(TailObserver)
		if !ok {
			return 0
		}
		tail = max(tail, to.TailSteps())
	}
	return max(0, steps-tail)
}

// Meta describes a substrate before it runs, so observers can size their
// buffers: the number of senders, the link capacity C and base RTT
// (zero for nettopo, where they are per-link), and the expected number
// of samples. Horizon is exact for the step-quantized substrates and a
// ±1 hint for the packet simulator's tick count.
type Meta struct {
	Flows    int
	Capacity float64
	BaseRTT  float64
	Horizon  int
}

// Substrate is one of the three simulators, wrapped for the engine.
// Substrate values are single-use: protocols carry state across steps, so
// build a fresh Spec for every run.
type Substrate interface {
	Meta() Meta
	run(ctx context.Context, spec Spec) (*Result, error)
}

// Spec is a complete run description.
type Spec struct {
	Substrate Substrate
	// Observers receive every sample in order, except that a fluid or
	// topology run whose observers all implement TailObserver skips the
	// samples before the longest tail they read. All observers see the
	// same Step value.
	Observers []Observer
	// Chaos, when non-nil, is a fault-injection schedule compiled against
	// the substrate's shape (flows × links) and applied while it runs.
	// The schedule value is read-only here, so one schedule can be shared
	// by every cell of a sweep.
	Chaos *chaos.Schedule
	// ChaosSeed seeds the schedule's randomized components (Gilbert–
	// Elliott chains, RTT jitter). Same schedule + same seed ⇒
	// bit-identical perturbations.
	ChaosSeed uint64
}

// Result is the outcome of a run: the number of samples it produced and,
// for a packet run, the delivery counters. Everything else a run yields
// reaches its observers.
type Result struct {
	Packet *packetsim.Result // packet substrate
	Steps  int               // samples produced
}

// Substrate kinds for per-kind telemetry, indexing runTelByKind.
const (
	kFluid = iota
	kPacket
	kTopo
	kOther
	numKinds
)

// runTel is one substrate kind's cached telemetry handles. Hoisted out of
// the run path so the instrumented hot loop (a sweep calls Run per cell,
// the batch path bumps the fluid counters per group) does no registry map
// lookups.
type runTel struct {
	runs, failed, steps *obs.Counter
	dur                 *obs.Histogram
	span                string
}

var runTelByKind = func() [numKinds]runTel {
	var t [numKinds]runTel
	for k, name := range [numKinds]string{kFluid: "fluid", kPacket: "packet", kTopo: "topo", kOther: "other"} {
		t[k] = runTel{
			runs:   obs.GetCounter("engine.runs." + name),
			failed: obs.GetCounter("engine.runs.failed." + name),
			steps:  obs.GetCounter("engine.steps." + name),
			dur:    obs.GetHistogram("engine.run.duration." + name),
			span:   "engine.run." + name,
		}
	}
	return t
}()

// Run executes the spec and, once it has succeeded, finishes its
// Finisher observers. It returns ctx.Err() soon after ctx is done.
//
// With observability enabled (internal/obs), Run wraps the substrate
// execution in an "engine.run.<kind>" span and feeds per-kind run counts,
// step totals, and wall-time histograms into the metrics registry;
// disabled, the only added cost is one atomic load per run.
func Run(ctx context.Context, spec Spec) (*Result, error) {
	if spec.Substrate == nil {
		return nil, errors.New("engine: spec has no substrate")
	}
	if !obs.Enabled() {
		res, err := spec.Substrate.run(ctx, spec)
		if err == nil {
			finish(&spec)
		}
		return res, err
	}
	tel := &runTelByKind[substrateKind(spec.Substrate)]
	ctx, sp := obs.StartSpan(ctx, tel.span)
	start := time.Now()
	res, err := spec.Substrate.run(ctx, spec)
	tel.dur.Observe(time.Since(start))
	sp.End()
	if err != nil {
		tel.failed.Inc()
		return res, err
	}
	finish(&spec)
	tel.runs.Inc()
	tel.steps.Add(uint64(res.Steps))
	return res, nil
}

// substrateKind classifies the substrate for per-kind telemetry.
func substrateKind(s Substrate) int {
	switch s.(type) {
	case *FluidSpec:
		return kFluid
	case *PacketSpec:
		return kPacket
	case *TopoSpec:
		return kTopo
	default:
		return kOther
	}
}

// emit fans one step out to every observer.
func emit(spec *Spec, st Step) {
	for _, o := range spec.Observers {
		o.Observe(st)
	}
}
