package engine

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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

// Progress still fires for the panicked cell (satellite: recover →
// per-cell error, Progress still fires).
func TestSweepProgressFiresOnPanic(t *testing.T) {
	var calls []int
	_, err := Sweep(context.Background(), 5, SweepConfig{
		Workers:  1,
		Progress: func(done, total int) { calls = append(calls, done) },
	}, func(_ context.Context, i int, _ uint64) (int, error) {
		if i == 0 {
			panic("first cell")
		}
		return i, nil
	})
	var pe *parallel.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *parallel.PanicError", err)
	}
	if len(calls) != 1 || calls[0] != 1 {
		t.Fatalf("progress calls = %v, want the panicked cell counted ([1])", calls)
	}
}

// Acceptance: a sweep containing one panicking cell and one timed-out
// cell completes, reports both as per-cell errors with the panicked /
// retried counters incremented, and returns valid results for every
// other cell.
func TestSweepSettledPanicAndTimeoutOthersValid(t *testing.T) {
	obs.Enable()
	obs.Reset()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	const n = 10
	out, errs, err := SweepSettled(context.Background(), n, SweepConfig{
		Workers:     4,
		CellTimeout: 30 * time.Millisecond,
		Retries:     1,
	}, func(ctx context.Context, i int, _ uint64) (int, error) {
		switch i {
		case 2:
			panic("cell 2 exploded")
		case 6:
			<-ctx.Done() // hang until the per-cell deadline fires
			return 0, ctx.Err()
		}
		return i * 10, nil
	})
	if err != nil {
		t.Fatalf("settled sweep returned pool error: %v", err)
	}
	var pe *parallel.PanicError
	if !errors.As(errs[2], &pe) {
		t.Fatalf("errs[2] = %v, want a *parallel.PanicError", errs[2])
	}
	if !errors.Is(errs[6], context.DeadlineExceeded) {
		t.Fatalf("errs[6] = %v, want context.DeadlineExceeded", errs[6])
	}
	for i := 0; i < n; i++ {
		if i == 2 || i == 6 {
			continue
		}
		if errs[i] != nil {
			t.Fatalf("healthy cell %d errored: %v", i, errs[i])
		}
		if out[i] != i*10 {
			t.Fatalf("healthy cell %d = %d, want %d", i, out[i], i*10)
		}
	}
	s := obs.TakeSnapshot()
	if got := s.Counters["engine.sweep.cells.panicked"]; got < 1 {
		t.Fatalf("panicked counter = %d, want ≥ 1", got)
	}
	if got := s.Counters["engine.sweep.cells.retried"]; got < 1 {
		t.Fatalf("retried counter = %d, want ≥ 1 (timed-out cell retries once)", got)
	}
	if got := s.Counters["engine.sweep.cells.failed"]; got < 2 {
		t.Fatalf("failed counter = %d, want ≥ 2", got)
	}
	if got := s.Counters["engine.sweep.cells.completed"]; got < n-2 {
		t.Fatalf("completed counter = %d, want ≥ %d", got, n-2)
	}
}

// Retry k runs with the reseeded CellSeed(cellSeed, k).
func TestSweepRetryReseeded(t *testing.T) {
	const base = 99
	var attempts atomic.Int64
	out, err := Sweep(context.Background(), 3, SweepConfig{Workers: 1, BaseSeed: base, Retries: 2},
		func(_ context.Context, i int, seed uint64) (uint64, error) {
			attempts.Add(1)
			if seed == CellSeed(base, i) {
				return 0, errors.New("transient flake on the first attempt")
			}
			return seed, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range out {
		want := CellSeed(CellSeed(base, i), 1)
		if got != want {
			t.Fatalf("cell %d succeeded with seed %#x, want reseeded attempt-1 seed %#x", i, got, want)
		}
	}
	if a := attempts.Load(); a != 6 {
		t.Fatalf("attempts = %d, want 2 per cell (6)", a)
	}
}

// Divergence is deterministic — a retry would replay it, so it must not
// consume the retry budget.
func TestSweepDivergedNotRetried(t *testing.T) {
	var attempts atomic.Int64
	_, err := Sweep(context.Background(), 1, SweepConfig{Workers: 1, Retries: 5},
		func(_ context.Context, i int, _ uint64) (int, error) {
			attempts.Add(1)
			return 0, fmt.Errorf("cell %d: %w", i, fluid.ErrDiverged)
		})
	if !errors.Is(err, fluid.ErrDiverged) {
		t.Fatalf("err = %v, want wrapped ErrDiverged", err)
	}
	if a := attempts.Load(); a != 1 {
		t.Fatalf("diverged cell ran %d times, want 1", a)
	}
}

// SetHardening fills zero-valued SweepConfig fields; explicit per-sweep
// values win.
func TestHardeningDefaultsApplied(t *testing.T) {
	SetHardening(Hardening{CellTimeout: time.Second, Retries: 3})
	defer SetHardening(Hardening{})
	cfg := SweepConfig{}
	applyHardening(&cfg)
	if cfg.CellTimeout != time.Second || cfg.Retries != 3 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	explicit := SweepConfig{CellTimeout: time.Minute, Retries: 1}
	applyHardening(&explicit)
	if explicit.CellTimeout != time.Minute || explicit.Retries != 1 {
		t.Fatalf("explicit values overwritten: %+v", explicit)
	}
}

// TestRegisterSweepFlags: -cell-timeout and -retries reach every sweep's
// config; the retired -checkpoint, -resume and -nobatch are undefined.
func TestRegisterSweepFlags(t *testing.T) {
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := RegisterSweepFlags(fs)
	if err := fs.Parse([]string{"-cell-timeout", "2s", "-retries", "3"}); err != nil {
		t.Fatal(err)
	}
	f.Apply()
	defer SetHardening(Hardening{})
	cfg := SweepConfig{}
	applyHardening(&cfg)
	if cfg.CellTimeout != 2*time.Second || cfg.Retries != 3 {
		t.Fatalf("flags not applied: %+v", cfg)
	}
	for _, args := range [][]string{{"-checkpoint", "ckdir"}, {"-resume"}, {"-nobatch"}} {
		fs := flag.NewFlagSet("tool", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		RegisterSweepFlags(fs)
		if err := fs.Parse(args); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: err = %v, want an undefined-flag error", args[0], err)
		}
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
