package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/fluid"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// TestSweepDeterministic: results (including per-cell seeds) are identical
// at any worker count.
func TestSweepDeterministic(t *testing.T) {
	const n = 64
	run := func(workers int) []uint64 {
		out, err := Sweep(context.Background(), n, SweepConfig{Workers: workers, BaseSeed: 42},
			func(_ context.Context, i int, seed uint64) (uint64, error) {
				return seed ^ uint64(i)<<32, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	for _, w := range []int{0, 2, 7} {
		got := run(w)
		for i := range got {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: cell %d = %x, want %x", w, i, got[i], serial[i])
			}
		}
	}
}

// TestCellSeedSeparation: neighboring cells and bases get distinct seeds.
func TestCellSeedSeparation(t *testing.T) {
	seen := make(map[uint64]bool)
	for base := uint64(0); base < 4; base++ {
		for i := 0; i < 256; i++ {
			s := CellSeed(base, i)
			if seen[s] {
				t.Fatalf("seed collision at base=%d i=%d", base, i)
			}
			seen[s] = true
		}
	}
	if CellSeed(1, 5) != CellSeed(1, 5) {
		t.Fatal("CellSeed is not deterministic")
	}
}

// TestSweepFailFast: an erroring cell aborts the sweep with its error.
func TestSweepFailFast(t *testing.T) {
	boom := errors.New("boom")
	_, err := Sweep(context.Background(), 100, SweepConfig{Workers: 4},
		func(_ context.Context, i int, _ uint64) (int, error) {
			if i == 5 {
				return 0, boom
			}
			return i, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
}

// TestSweepFailFastReturnsCellError: when one cell of a sweep diverges
// while its siblings are mid-run in engine.Run, Sweep returns the
// divergence, and the siblings finish instead of being canceled.
func TestSweepFailFastReturnsCellError(t *testing.T) {
	var canceled atomic.Int64
	_, err := Sweep(context.Background(), 8, SweepConfig{Workers: 4},
		func(ctx context.Context, i int, _ uint64) (int, error) {
			var proto protocol.Protocol = protocol.MustParse("reno")
			cfg, init, steps := fluidCfg(), []float64{1, 40}, 20000
			if i == 1 {
				// Runaway MIMD with an uncapped window diverges at once.
				proto, init, steps = protocol.NewMIMD(10, 0.5), []float64{1e300, 1e300}, 300
				cfg = fluid.Config{Infinite: true, PropDelay: 0.021, MaxWindow: math.Inf(1)}
			}
			senders, err := fluid.HomogeneousSenders(proto, 2, init)
			if err != nil {
				return 0, err
			}
			spec := &FluidSpec{Cfg: cfg, Senders: senders, Steps: steps}
			res, err := Run(ctx, Spec{Substrate: spec})
			if errors.Is(err, context.Canceled) {
				canceled.Add(1)
			}
			if err != nil {
				return 0, err
			}
			return res.Steps, nil
		})
	var de *fluid.DivergedError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want the diverging cell's DivergedError", err)
	}
	if n := canceled.Load(); n != 0 {
		t.Fatalf("%d sibling cells were canceled; in-flight cells should finish", n)
	}
}

// TestSweepCancellation: canceling the context stops the sweep. Cell 9
// cancels, and every later cell returns only once that cancel call has
// returned, so whatever the scheduling, the other worker can have
// claimed at most cell 10 before it: any further cell was claimed after
// the cancellation.
func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	canceled := make(chan struct{})
	var ran atomic.Int64
	_, err := Sweep(ctx, 1000, SweepConfig{Workers: 2},
		func(_ context.Context, i int, _ uint64) (int, error) {
			ran.Add(1)
			switch {
			case i == 9:
				cancel()
				close(canceled)
			case i > 9:
				<-canceled
			}
			return i, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if total := ran.Load(); total > 11 {
		t.Fatalf("%d cells ran, want at most 11 (cells 0-10): cells were claimed after cancellation", total)
	}
}

// captureProgress installs a global progress sink for the rest of the
// test and returns the done/total pairs it receives.
func captureProgress(t *testing.T) *[][2]int {
	t.Helper()
	calls := new([][2]int)
	obs.SetSweepProgress(func(done, total int) { *calls = append(*calls, [2]int{done, total}) })
	t.Cleanup(func() { obs.SetSweepProgress(nil) })
	return calls
}

// TestSweepProgress: the progress sink sees done increment 1..n with a
// stable total, serialized.
func TestSweepProgress(t *testing.T) {
	const n = 40
	calls := captureProgress(t)
	_, err := Sweep(context.Background(), n, SweepConfig{Workers: 4},
		func(_ context.Context, i int, _ uint64) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(*calls) != n {
		t.Fatalf("%d progress calls, want %d", len(*calls), n)
	}
	for i, c := range *calls {
		if c != [2]int{i + 1, n} {
			t.Fatalf("call %d = done %d/total %d, want %d/%d", i, c[0], c[1], i+1, n)
		}
	}
}

// TestSweepProgressCountsFailedCells: a cell that returns an error still
// counts as a completion — regression test for the undercount where
// progress was skipped on error, so failing grids reported done < cells
// actually executed.
func TestSweepProgressCountsFailedCells(t *testing.T) {
	boom := errors.New("boom")
	calls := captureProgress(t)
	_, err := Sweep(context.Background(), 10, SweepConfig{
		Workers: 1, // serial: exactly cells 0..3 run, 3 fails, 4.. never start
	}, func(_ context.Context, i int, _ uint64) (int, error) {
		if i == 3 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if len(*calls) != 4 {
		t.Fatalf("progress calls = %v, want the failing cell counted (4 calls)", *calls)
	}
	for i, c := range *calls {
		if c[0] != i+1 {
			t.Fatalf("call %d reported done=%d, want %d", i, c[0], i+1)
		}
	}
}

// TestCellSeedNoCollisions1e5: the SplitMix64 derivation yields no
// duplicate seeds across a 100 000-cell grid, for several bases at once
// (within one base this is guaranteed — base + φ·(i+1) and the finalizer
// are both bijections — so a duplicate means the implementation broke).
func TestCellSeedNoCollisions1e5(t *testing.T) {
	const cells = 100_000
	bases := []uint64{0, 1, 42, 1 << 63}
	seen := make(map[uint64]struct{}, cells*len(bases))
	for _, base := range bases {
		for i := 0; i < cells; i++ {
			s := CellSeed(base, i)
			if _, dup := seen[s]; dup {
				t.Fatalf("duplicate seed %#x at base=%d i=%d", s, base, i)
			}
			seen[s] = struct{}{}
		}
	}
}

// TestSweepTelemetry: with obs enabled, a sweep records per-cell latency
// and completion/failure counters; disabled, it records nothing.
func TestSweepTelemetry(t *testing.T) {
	obs.Disable()
	obs.Reset()
	run := func(n, failAt int) {
		Sweep(context.Background(), n, SweepConfig{Workers: 2},
			func(_ context.Context, i int, _ uint64) (int, error) {
				if i == failAt {
					return 0, errors.New("boom")
				}
				return i, nil
			})
	}
	run(8, -1)
	if s := obs.TakeSnapshot(); len(s.Counters)+len(s.Histograms) != 0 {
		t.Fatalf("disabled sweep recorded metrics: %+v", s)
	}

	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	run(8, -1)
	run(4, 0)
	s := obs.TakeSnapshot()
	if got := s.Counters["engine.sweep.cells.completed"]; got < 8 {
		t.Fatalf("completed = %d, want ≥ 8", got)
	}
	if got := s.Counters["engine.sweep.cells.failed"]; got < 1 {
		t.Fatalf("failed = %d, want ≥ 1", got)
	}
	if got := s.Counters["engine.sweep.grids"]; got != 2 {
		t.Fatalf("grids = %d, want 2", got)
	}
	h := s.Histograms["engine.sweep.cell.duration"]
	if h.Count < 9 {
		t.Fatalf("cell latency histogram count = %d, want ≥ 9", h.Count)
	}
	if got := s.Counters["parallel.items.ok"]; got < 8 {
		t.Fatalf("parallel ok items = %d, want ≥ 8", got)
	}
	util, ok := s.Gauges["parallel.worker.utilization"]
	if !ok || util <= 0 || util > 1 {
		t.Fatalf("worker utilization = %v (present=%v), want in (0,1]", util, ok)
	}
}

// TestSweepGlobalProgressSink: with obs enabled, every completion
// reaches both the installed sink (the -progress flag) and the
// exposition endpoint's progress mirror.
func TestSweepGlobalProgressSink(t *testing.T) {
	obs.Enable()
	defer func() { obs.Disable(); obs.Reset() }()
	obs.ReportProgress(0, 0)
	var sink atomic.Int64
	obs.SetSweepProgress(func(done, total int) { sink.Add(1) })
	defer obs.SetSweepProgress(nil)
	_, err := Sweep(context.Background(), 6, SweepConfig{Workers: 2},
		func(_ context.Context, i int, _ uint64) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if sink.Load() != 6 {
		t.Fatalf("sink saw %d completions, want 6", sink.Load())
	}
	if p := obs.ProgressState(); p.Done != 6 || p.Total != 6 {
		t.Fatalf("ProgressState = %+v, want 6/6", p)
	}
}

// TestSweepOrder: results land at their input index regardless of
// completion order.
func TestSweepOrder(t *testing.T) {
	out, err := Sweep(context.Background(), 32, SweepConfig{Workers: 8},
		func(_ context.Context, i int, _ uint64) (string, error) {
			return fmt.Sprintf("cell-%d", i), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != fmt.Sprintf("cell-%d", i) {
			t.Fatalf("out[%d] = %q", i, v)
		}
	}
}
