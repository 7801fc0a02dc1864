package engine

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
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

// checkpointCellValue computes a seed-dependent float64 with a long
// mantissa, so any store round-trip imprecision would show as inequality.
func checkpointCellValue(i int, seed uint64) float64 {
	return float64(seed)*0x1p-64 + math.Sqrt(float64(i)+0.5)
}

// memStore is an in-memory CellStore that counts its writes.
type memStore struct {
	mu   sync.Mutex
	m    map[string][]byte
	puts int
}

func newMemStore() *memStore { return &memStore{m: map[string][]byte{}} }

func (s *memStore) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[key]
	return v, ok
}

func (s *memStore) Put(key string, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = append([]byte(nil), payload...)
	s.puts++
	return nil
}

func (s *memStore) keys() map[string]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]bool, len(s.m))
	for k := range s.m {
		out[k] = true
	}
	return out
}

// useCellStore installs cs as the process-wide cell store for the rest
// of the test.
func useCellStore(t *testing.T, cs CellStore) {
	t.Helper()
	SetCellStore(cs)
	t.Cleanup(func() { SetCellStore(nil) })
}

// A rerun of a keyed sweep returns bit-identical results to an
// uninterrupted one and does not re-execute stored cells.
func TestSweepCheckpointResumeBitIdentical(t *testing.T) {
	useCellStore(t, newMemStore())
	const n = 12
	run := func(cfg SweepConfig, executed *atomic.Int64) []float64 {
		cfg.Workers = 4
		cfg.BaseSeed = 7
		out, err := Sweep(context.Background(), n, cfg,
			func(_ context.Context, i int, seed uint64) (float64, error) {
				if executed != nil {
					executed.Add(1)
				}
				return checkpointCellValue(i, seed), nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	clean := run(SweepConfig{}, nil)
	run(SweepConfig{Key: "resume"}, nil)
	var executed atomic.Int64
	resumed := run(SweepConfig{Key: "resume"}, &executed)
	if got := executed.Load(); got != 0 {
		t.Fatalf("rerun re-executed %d cells, want 0", got)
	}
	for i := range clean {
		if resumed[i] != clean[i] {
			t.Fatalf("cell %d: resumed %v != uninterrupted %v", i, resumed[i], clean[i])
		}
	}
}

// An interrupted (fail-fast aborted) sweep leaves its completed cells in
// the store: the rerun recomputes only the missing cells and matches a
// clean run bit for bit.
func TestSweepCheckpointSurvivesAbort(t *testing.T) {
	useCellStore(t, newMemStore())
	const n = 10
	cell := func(_ context.Context, i int, seed uint64) (float64, error) {
		return checkpointCellValue(i, seed), nil
	}
	clean, err := Sweep(context.Background(), n, SweepConfig{Workers: 1, BaseSeed: 3}, cell)
	if err != nil {
		t.Fatal(err)
	}
	// First run: serial, cell 7 fails — cells 0..6 land in the store.
	boom := errors.New("boom")
	_, err = Sweep(context.Background(), n, SweepConfig{Workers: 1, BaseSeed: 3, Key: "abort"},
		func(ctx context.Context, i int, seed uint64) (float64, error) {
			if i == 7 {
				return 0, boom
			}
			return cell(ctx, i, seed)
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	var executed atomic.Int64
	resumed, err := Sweep(context.Background(), n, SweepConfig{Workers: 1, BaseSeed: 3, Key: "abort"},
		func(ctx context.Context, i int, seed uint64) (float64, error) {
			executed.Add(1)
			return cell(ctx, i, seed)
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := executed.Load(); got != 3 {
		t.Fatalf("rerun executed %d cells, want 3 (cells 7, 8, 9)", got)
	}
	for i := range clean {
		if resumed[i] != clean[i] {
			t.Fatalf("cell %d: resumed %v != clean %v", i, resumed[i], clean[i])
		}
	}
}

// Stored cells of another BaseSeed are not replayed: the cell seed is
// part of every cell's key.
func TestSweepResumeRejectsMismatchedCheckpoint(t *testing.T) {
	useCellStore(t, newMemStore())
	const n = 6
	cell := func(_ context.Context, i int, seed uint64) (float64, error) {
		return checkpointCellValue(i, seed), nil
	}
	if _, err := Sweep(context.Background(), n, SweepConfig{Workers: 1, BaseSeed: 1, Key: "k"}, cell); err != nil {
		t.Fatal(err)
	}
	var executed atomic.Int64
	if _, err := Sweep(context.Background(), n, SweepConfig{Workers: 1, BaseSeed: 2, Key: "k"},
		func(ctx context.Context, i int, seed uint64) (float64, error) {
			executed.Add(1)
			return cell(ctx, i, seed)
		}); err != nil {
		t.Fatal(err)
	}
	if got := executed.Load(); got != n {
		t.Fatalf("another BaseSeed's cells were replayed: executed %d, want %d", got, n)
	}
}

// Two sweeps with equal BaseSeed and size but different Keys share no
// cell: each executes its whole grid and gets its own results back.
func TestSweepKeysIsolateCells(t *testing.T) {
	st := newMemStore()
	useCellStore(t, st)
	const n = 4
	sweep := func(key string, offset float64) ([]float64, int64) {
		var executed atomic.Int64
		out, err := Sweep(context.Background(), n, SweepConfig{Workers: 2, Key: key},
			func(_ context.Context, i int, seed uint64) (float64, error) {
				executed.Add(1)
				return offset + checkpointCellValue(i, seed), nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return out, executed.Load()
	}
	a, ranA := sweep("a", 0)
	b, ranB := sweep("b", 100)
	if ranA != n || ranB != n {
		t.Fatalf("executed %d and %d cells, want %d each", ranA, ranB, n)
	}
	for i := range a {
		if b[i] != a[i]+100 {
			t.Fatalf("cell %d of sweep b = %v, want its own result %v", i, b[i], a[i]+100)
		}
	}
	if got := len(st.keys()); got != 2*n {
		t.Fatalf("store holds %d cells, want %d", got, 2*n)
	}
	again, ranA2 := sweep("a", 0)
	if ranA2 != 0 {
		t.Fatalf("rerun of sweep a executed %d cells, want 0", ranA2)
	}
	for i := range a {
		if again[i] != a[i] {
			t.Fatalf("cell %d of the rerun = %v, want %v", i, again[i], a[i])
		}
	}
}

// An unkeyed sweep neither reads nor writes the store.
func TestSweepWithoutKeyPersistsNothing(t *testing.T) {
	st := newMemStore()
	useCellStore(t, st)
	for run := 0; run < 2; run++ {
		var executed atomic.Int64
		if _, err := Sweep(context.Background(), 4, SweepConfig{Workers: 1},
			func(_ context.Context, i int, seed uint64) (float64, error) {
				executed.Add(1)
				return checkpointCellValue(i, seed), nil
			}); err != nil {
			t.Fatal(err)
		}
		if executed.Load() != 4 {
			t.Fatalf("run %d executed %d cells, want 4", run, executed.Load())
		}
	}
	if st.puts != 0 {
		t.Fatalf("unkeyed sweep wrote %d cells", st.puts)
	}
}

// Restored cells still count toward progress and the restored counter.
func TestSweepResumeProgressAndCounter(t *testing.T) {
	useCellStore(t, newMemStore())
	const n = 8
	cell := func(_ context.Context, i int, seed uint64) (float64, error) {
		return checkpointCellValue(i, seed), nil
	}
	if _, err := Sweep(context.Background(), n, SweepConfig{Workers: 2, Key: "progress"}, cell); err != nil {
		t.Fatal(err)
	}
	obs.Enable()
	obs.Reset()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	var calls atomic.Int64
	if _, err := Sweep(context.Background(), n, SweepConfig{
		Workers:  2,
		Key:      "progress",
		Progress: func(done, total int) { calls.Add(1) },
	}, cell); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != n {
		t.Fatalf("progress calls = %d, want %d (restored cells count)", got, n)
	}
	s := obs.TakeSnapshot()
	if got := s.Counters["engine.sweep.cells.restored"]; got != n {
		t.Fatalf("restored counter = %d, want %d", got, n)
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

// Acceptance: a chaos-enabled sweep is bit-identical for Workers=1 vs 8,
// and for a resumed run vs an uninterrupted one.
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
	useCellStore(t, newMemStore())
	run(SweepConfig{Workers: 8, Key: "chaos"})
	resumed := run(SweepConfig{Workers: 8, Key: "chaos"})
	for i := range serial {
		if resumed[i] != serial[i] {
			t.Fatalf("cell %d: resumed %v != uninterrupted %v", i, resumed[i], serial[i])
		}
	}
}
