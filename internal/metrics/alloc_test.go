package metrics

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/nettopo"
)

// TestStreamObserveAllocFree pins the observer half of the hot-loop
// contract: Observe pushes into preallocated rings and must not allocate
// per step, even after the rings wrap.
func TestStreamObserveAllocFree(t *testing.T) {
	meta := engine.Meta{Flows: 2, Capacity: 100, BaseRTT: 0.042, Horizon: 1000}
	s := NewStream(meta, DefaultTailFrac)
	step := engine.Step{Windows: []float64{10, 20}, Total: 30, RTT: 0.05, Loss: 0.01}
	// Fill beyond ring capacity so the wrap-around path is what's measured.
	for i := 0; i < 2000; i++ {
		s.Observe(step)
	}
	if avg := testing.AllocsPerRun(1000, func() { s.Observe(step) }); avg != 0 {
		t.Fatalf("Stream.Observe allocates %.2f times per step, want 0", avg)
	}
	// The gap path: each step's index jumps past the samples seen, as
	// after steps the engine withheld, so every ring skips first.
	gap := func() {
		step.Index = s.Steps() + 3
		s.Observe(step)
	}
	if avg := testing.AllocsPerRun(1000, gap); avg != 0 {
		t.Fatalf("Stream.Observe after a gap allocates %.2f times per step, want 0", avg)
	}
}

// TestStreamObserveStripAllocFree pins the bulk half of the same
// contract: after the first strip has grown the goodput scratch,
// ObserveStrip must be allocation-free no matter how the rings wrap.
func TestStreamObserveStripAllocFree(t *testing.T) {
	meta := engine.Meta{Flows: 2, Capacity: 100, BaseRTT: 0.042, Horizon: 1000}
	s := NewStream(meta, DefaultTailFrac)
	const count = 64
	strip := engine.Strip{
		Count:   count,
		Flows:   2,
		Windows: make([]float64, 2*count),
		Totals:  make([]float64, count),
		RTT:     make([]float64, count),
		Loss:    make([]float64, count),
	}
	for k := 0; k < count; k++ {
		strip.Windows[k] = 10
		strip.Windows[count+k] = 20
		strip.Totals[k] = 30
		strip.RTT[k] = 0.05
		strip.Loss[k] = 0.01
	}
	// Fill beyond ring capacity so the wrap-around path is what's measured.
	for i := 0; i < 40; i++ {
		s.ObserveStrip(strip)
	}
	if avg := testing.AllocsPerRun(1000, func() { s.ObserveStrip(strip) }); avg != 0 {
		t.Fatalf("Stream.ObserveStrip allocates %.2f times per strip, want 0", avg)
	}
	gap := func() {
		strip.Start = s.Steps() + 5
		s.ObserveStrip(strip)
	}
	if avg := testing.AllocsPerRun(1000, gap); avg != 0 {
		t.Fatalf("Stream.ObserveStrip after a gap allocates %.2f times per strip, want 0", avg)
	}
}

// TestTopoStreamObserveAllocFree pins the same contract for topology
// ingest: per-flow and per-link ring pushes must not allocate per step,
// even after the rings wrap.
func TestTopoStreamObserveAllocFree(t *testing.T) {
	links, flows := topoFixture()
	s := NewTopoStream(links, flows, 1000, DefaultTailFrac)
	res := &nettopo.StepResult{
		Windows:  []float64{10, 20},
		FlowRTT:  []float64{0.05, 0.06},
		FlowLoss: []float64{0.01, 0.02},
		LinkLoad: []float64{0.5, 0.6, 0.9},
		LinkLoss: []float64{0, 0, 0.01},
	}
	step := engine.Step{Windows: res.Windows, Topo: res}
	// Fill beyond ring capacity so the wrap-around path is what's measured.
	for i := 0; i < 2000; i++ {
		s.Observe(step)
	}
	if avg := testing.AllocsPerRun(1000, func() { s.Observe(step) }); avg != 0 {
		t.Fatalf("TopoStream.Observe allocates %.2f times per step, want 0", avg)
	}
	gap := func() {
		step.Index = s.Steps() + 3
		s.Observe(step)
	}
	if avg := testing.AllocsPerRun(1000, gap); avg != 0 {
		t.Fatalf("TopoStream.Observe after a gap allocates %.2f times per step, want 0", avg)
	}
}

// TestTopoRunAllocFreePerStep pins the engine path of a streamed
// topology run: engine.Run of a TopoSpec observed by a TopoStream makes
// the same allocations at 400 and at 4000 steps, so nothing on it
// allocates per step.
func TestTopoRunAllocFreePerStep(t *testing.T) {
	links, flows := topoFixture()
	allocs := func(steps int) float64 {
		return testing.AllocsPerRun(20, func() {
			st := NewTopoStream(links, flows, steps, DefaultTailFrac)
			_, err := engine.Run(context.Background(), engine.Spec{
				Substrate: &engine.TopoSpec{Links: links, Flows: flows, Steps: steps},
				Observers: []engine.Observer{st},
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs(400), allocs(4000); short != long {
		t.Fatalf("engine.Run of a streamed topology allocates %.0f times at 400 steps and %.0f at 4000, want equal", short, long)
	}
}
