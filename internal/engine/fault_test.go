package engine

import (
	"context"
	"errors"
	"testing"

	"repro/internal/chaos"
	"repro/internal/fluid"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/protocol"
)

// A panicking cell must surface as an error, not kill the process.
func TestSweepPanicRecovered(t *testing.T) {
	_, err := Sweep(context.Background(), 8, SweepConfig{Workers: 2},
		func(_ context.Context, i int, _ uint64) (int, error) {
			if i == 3 {
				panic("cell exploded")
			}
			return i, nil
		})
	var pe *parallel.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *parallel.PanicError", err)
	}
	if pe.Item != 3 {
		t.Fatalf("panicked item = %d, want 3", pe.Item)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("panic error carries no stack")
	}
}

// Progress still fires for the panicked cell: a recovered panic is a
// failed cell like any other.
func TestSweepProgressFiresOnPanic(t *testing.T) {
	calls := captureProgress(t)
	_, err := Sweep(context.Background(), 5, SweepConfig{Workers: 1},
		func(_ context.Context, i int, _ uint64) (int, error) {
			if i == 0 {
				panic("first cell")
			}
			return i, nil
		})
	var pe *parallel.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *parallel.PanicError", err)
	}
	if len(*calls) != 1 || (*calls)[0] != [2]int{1, 5} {
		t.Fatalf("progress calls = %v, want the panicked cell counted ([1/5])", *calls)
	}
}

// A panicking cell is counted as panicked and failed, and the flight
// ring, with the panic noted in it, is attached to the run record as
// evidence.
func TestSweepPanicRecordsFlightEvent(t *testing.T) {
	obs.Enable()
	defer func() { obs.Disable(); obs.Reset(); obs.ResetFlight(); obs.EndRecord() }()
	obs.Reset()
	obs.ResetFlight()
	rec := obs.BeginRecord("test")

	_, err := Sweep(context.Background(), 4, SweepConfig{Workers: 1}, func(ctx context.Context, i int, seed uint64) (int, error) {
		if i == 2 {
			panic("cell 2 exploded")
		}
		return i, nil
	})
	var pe *parallel.PanicError
	if !errors.As(err, &pe) || pe.Item != 2 {
		t.Fatalf("err = %v, want item 2's *parallel.PanicError", err)
	}
	s := obs.TakeSnapshot()
	if got := s.Counters["engine.sweep.cells.panicked"]; got != 1 {
		t.Fatalf("panicked counter = %d, want 1", got)
	}
	if got := s.Counters["engine.sweep.cells.failed"]; got != 1 {
		t.Fatalf("failed counter = %d, want 1", got)
	}
	if got := s.Counters["engine.sweep.cells.completed"]; got != 2 {
		t.Fatalf("completed counter = %d, want 2 (cells 0 and 1; 3 never starts)", got)
	}
	isPanic := func(e obs.FlightEvent) bool {
		return e.Kind == "panic" && e.Name == "engine.sweep.cell" && e.Detail == "cell 2"
	}
	var inRing, inRecord int
	for _, e := range obs.FlightEvents() {
		if isPanic(e) {
			inRing++
		}
	}
	for _, e := range rec.Flight {
		if isPanic(e) {
			inRecord++
		}
	}
	if inRing != 1 || inRecord != 1 {
		t.Fatalf("panic events: %d in the flight ring, %d in the run record; want 1 each", inRing, inRecord)
	}
}

// chaosSweepCell runs one fluid cell under a shared Gilbert–Elliott
// schedule and reduces the streamed windows to a single float64.
func chaosSweepCell(sched *chaos.Schedule) func(ctx context.Context, i int, seed uint64) (float64, error) {
	return func(ctx context.Context, i int, seed uint64) (float64, error) {
		var sum float64
		spec := Spec{
			Substrate: &FluidSpec{
				Cfg:     fluid.Config{Bandwidth: 1000 + 200*float64(i%4), PropDelay: 0.025, Buffer: 50},
				Senders: []fluid.Sender{{Proto: protocol.Reno(), Init: 1}, {Proto: protocol.Scalable(), Init: 2}},
				Steps:   400,
			},
			Observers: []Observer{ObserverFunc(func(s Step) { sum += s.Total })},
			Chaos:     sched,
			ChaosSeed: seed,
		}
		if _, err := Run(ctx, spec); err != nil {
			return 0, err
		}
		return sum, nil
	}
}

// Acceptance: a chaos-enabled sweep is bit-identical for Workers=1 vs 8.
func TestChaosSweepDeterminism(t *testing.T) {
	sched := chaos.BurstyLoss(0.02, 0.3, 0.08)
	if err := sched.Normalize(); err != nil {
		t.Fatal(err)
	}
	const n = 16
	run := func(cfg SweepConfig) []float64 {
		cfg.BaseSeed = 1234
		out, err := Sweep(context.Background(), n, cfg, chaosSweepCell(sched))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(SweepConfig{Workers: 1})
	parallel8 := run(SweepConfig{Workers: 8})
	for i := range serial {
		if serial[i] != parallel8[i] {
			t.Fatalf("cell %d: workers=1 %v != workers=8 %v", i, serial[i], parallel8[i])
		}
	}
}
