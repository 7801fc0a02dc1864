package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/runstore"
)

// The crash-resume end-to-end test re-execs this test binary as a child
// that runs a slow keyed sweep against a run store, SIGKILLs it mid-run
// — the signal a scheduler or OOM killer actually sends, with no chance
// to clean up — and asserts that rerunning the sweep restores the
// persisted cells and produces bit-identical results to an uninterrupted
// run.

const crashChildEnv = "REPRO_ENGINE_CRASH_CHILD"

func TestMain(m *testing.M) {
	if path := os.Getenv(crashChildEnv); path != "" {
		crashChildSweep(path)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const (
	crashCells = 12
	crashSeed  = 0xC0FFEE
)

// crashCellValue is the deterministic payload every variant of the
// sweep computes: pure function of (index, seed), JSON round-trip safe.
type crashCellValue struct {
	Cell int     `json:"cell"`
	Seed uint64  `json:"seed"`
	V    float64 `json:"v"`
}

func crashCell(i int, seed uint64) crashCellValue {
	return crashCellValue{Cell: i, Seed: seed, V: math.Sin(float64(seed%100003)) * float64(i+1)}
}

// crashKey names the crash sweep in the store.
const crashKey = "crash"

// openCrashStore opens the run store the child and the parent share.
func openCrashStore(dir string) (*runstore.Store, error) {
	return runstore.Open(dir, runstore.Options{Version: "testver"})
}

// crashChildSweep is the child process: a serial keyed sweep, whose
// cells persist as they complete, that dawdles long enough for the
// parent to kill it mid-grid.
func crashChildSweep(dir string) {
	st, err := openCrashStore(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		os.Exit(1)
	}
	SetCellStore(st)
	_, err = Sweep(context.Background(), crashCells,
		SweepConfig{BaseSeed: crashSeed, Workers: 1, Key: crashKey},
		func(_ context.Context, i int, seed uint64) (crashCellValue, error) {
			time.Sleep(100 * time.Millisecond)
			return crashCell(i, seed), nil
		})
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		os.Exit(1)
	}
}

func TestCrashResumeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills a child process")
	}
	dir := t.TempDir()
	st, err := openCrashStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), crashChildEnv+"="+dir)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Wait until the child has persisted a few cells, then kill -9: no
	// deferred flush, no signal handler, nothing — whatever made the last
	// atomic rename into the store is all that survives.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("child never persisted 3 cells")
		}
		if n := persistedCells(st); n >= 3 && n < crashCells {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() //nolint:errcheck // killed: exit status is expectedly non-zero
	restorable := persistedCells(st)
	if restorable == 0 || restorable >= crashCells {
		t.Fatalf("store holds %d cells after kill, want mid-run coverage", restorable)
	}

	// Rerun against the surviving store. Count what actually executes:
	// the persisted cells must restore, not recompute.
	useCellStore(t, st)
	var executed atomic.Int64
	resumed, err := Sweep(context.Background(), crashCells,
		SweepConfig{BaseSeed: crashSeed, Workers: 1, Key: crashKey},
		func(_ context.Context, i int, seed uint64) (crashCellValue, error) {
			executed.Add(1)
			return crashCell(i, seed), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := int(executed.Load()); got != crashCells-restorable {
		t.Fatalf("rerun executed %d cells with %d persisted, want %d", got, restorable, crashCells-restorable)
	}

	// An uninterrupted run is the ground truth; the resumed run must
	// match it bit for bit (JSON bytes compare the float bits: Go
	// renders float64 with the shortest exact representation).
	clean, err := Sweep(context.Background(), crashCells,
		SweepConfig{BaseSeed: crashSeed, Workers: 1},
		func(_ context.Context, i int, seed uint64) (crashCellValue, error) {
			return crashCell(i, seed), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(resumed)
	b, _ := json.Marshal(clean)
	if string(a) != string(b) {
		t.Fatalf("resumed run differs from uninterrupted run:\n%s\n%s", a, b)
	}
}

// persistedCells counts the crash sweep's cells the store holds.
func persistedCells(st *runstore.Store) int {
	n := 0
	for i := 0; i < crashCells; i++ {
		if _, ok := st.Get("sweepcell|" + crashKey + "|seed=" + strconv.FormatUint(CellSeed(crashSeed, i), 16)); ok {
			n++
		}
	}
	return n
}
