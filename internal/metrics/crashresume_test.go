package metrics

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"testing"
	"time"

	"repro/internal/fluid"
	"repro/internal/protocol"
	"repro/internal/runstore"
)

// The crash-resume end-to-end test re-execs this test binary as a child
// that resolves a grid of streamed runs through a store-backed Session,
// SIGKILLs it mid-grid — the signal a scheduler or OOM killer actually
// sends, with no chance to clean up — and asserts that rerunning the
// grid serves every persisted run from disk, simulates only the rest,
// and matches an uninterrupted storeless run bit for bit.

const crashChildEnv = "REPRO_METRICS_CRASH_CHILD"

func TestMain(m *testing.M) {
	if dir := os.Getenv(crashChildEnv); dir != "" {
		if err := crashChild(dir); err != nil {
			fmt.Fprintln(os.Stderr, "crash child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const crashCells = 12

// crashCfg is the link every cell of the crash grid runs on.
func crashCfg() fluid.Config {
	return fluid.Config{Bandwidth: 1000, PropDelay: 0.02, Buffer: 50}
}

// crashOpt resolves one run per cell, from window 1.
func crashOpt(session *Session) Options {
	return Options{Steps: 1500, InitConfigs: [][]float64{{1}}, Workers: 1, Session: session}
}

// crashProtos is cell i's sender: AIMD(1+i/4, 0.5). Each cell has its
// own protocol, so each is its own store entry.
func crashProtos(i int) []protocol.Protocol {
	return []protocol.Protocol{protocol.NewAIMD(1+float64(i)/4, 0.5)}
}

// resolveCrashGrid resolves the grid's runs one cell at a time through
// session, calling pause after each cell.
func resolveCrashGrid(session *Session, pause func()) ([]*StreamSummary, error) {
	out := make([]*StreamSummary, crashCells)
	for i := range out {
		sums, err := StreamRuns(crashCfg(), crashProtos(i), crashOpt(session))
		if err != nil {
			return nil, err
		}
		out[i] = sums[0]
		pause()
	}
	return out, nil
}

// openCrashStore opens the run store the child and the parent share.
func openCrashStore(dir string) (*runstore.Store, error) {
	return runstore.Open(dir, runstore.Options{Version: "testver"})
}

// crashChild is the child process: it resolves the grid against the
// store, dawdling after each cell long enough for the parent to kill it
// mid-grid.
func crashChild(dir string) error {
	st, err := openCrashStore(dir)
	if err != nil {
		return err
	}
	session := NewSession()
	session.SetStore(st)
	_, err = resolveCrashGrid(session, func() { time.Sleep(100 * time.Millisecond) })
	return err
}

// persistedRuns counts the grid's runs the store holds.
func persistedRuns(st *runstore.Store) int {
	n := 0
	for i := 0; i < crashCells; i++ {
		o := crashOpt(nil).withDefaults()
		key, _ := runKey(crashCfg(), crashProtos(i), o.InitConfigs[0], o, keyStream)
		if _, ok := st.Get(key); ok {
			n++
		}
	}
	return n
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

	// Wait until the child has persisted a few runs, then kill -9: no
	// deferred flush, no signal handler, nothing — whatever made the last
	// atomic rename into the store is all that survives.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("child never persisted 3 runs")
		}
		if n := persistedRuns(st); n >= 3 && n < crashCells {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() //nolint:errcheck // killed: exit status is expectedly non-zero
	persisted := persistedRuns(st)
	if persisted == 0 || persisted >= crashCells {
		t.Fatalf("store holds %d runs after kill, want mid-grid coverage", persisted)
	}

	// Rerun against the surviving store with a fresh session: the
	// persisted runs must come from disk, only the rest may simulate.
	session := NewSession()
	session.SetStore(st)
	resumed, err := resolveCrashGrid(session, func() {})
	if err != nil {
		t.Fatal(err)
	}
	s := session.Stats()
	if s.DiskHits != int64(persisted) || s.Misses != int64(crashCells-persisted) || s.Hits != 0 || s.Uncacheable != 0 {
		t.Fatalf("rerun with %d persisted runs: %+v, want %d disk hits and %d misses",
			persisted, s, persisted, crashCells-persisted)
	}

	// An uninterrupted storeless run is the ground truth; the encoded
	// summaries carry every field's IEEE-754 bits.
	clean, err := resolveCrashGrid(nil, func() {})
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean {
		if !bytes.Equal(encodeStreamSummary(resumed[i]), encodeStreamSummary(clean[i])) {
			t.Fatalf("cell %d: resumed run %+v differs from uninterrupted %+v", i, resumed[i], clean[i])
		}
	}
}
