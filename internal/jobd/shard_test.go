package jobd

import (
	"bytes"
	"encoding/json"
	"io"
	"syscall"
	"testing"
	"time"

	"repro/internal/retry"
)

// TestWorkerProtocol drives WorkerMain directly over pipes: one task in,
// one result out, errors reported in-band, EOF a clean exit.
func TestWorkerProtocol(t *testing.T) {
	taskR, taskW := io.Pipe()
	resR, resW := io.Pipe()
	workerDone := make(chan error, 1)
	go func() { workerDone <- WorkerMain(taskR, resW) }()

	enc := json.NewEncoder(taskW)
	dec := json.NewDecoder(resR)

	cell := Cell{Index: 0, Proto: "reno", Senders: 2, Mbps: 10, RTTms: 42, BufferMSS: 50, Steps: 120}
	if err := enc.Encode(wireTask{ID: 7, Cell: cell}); err != nil {
		t.Fatal(err)
	}
	var res wireResult
	if err := dec.Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.ID != 7 || res.Err != "" || res.Scores == nil {
		t.Fatalf("bad result: %+v", res)
	}
	// Bit-identical to a direct in-process computation.
	want, err := computeCell(cell, nil)
	if err != nil {
		t.Fatal(err)
	}
	if *res.Scores != EncodeScores(want) {
		t.Fatalf("worker scores differ from direct computation:\n  %+v\n  %+v", *res.Scores, EncodeScores(want))
	}

	// A bad cell comes back as an in-band error, not a dead worker.
	if err := enc.Encode(wireTask{ID: 8, Cell: Cell{Proto: "nosuch", Senders: 2, Mbps: 10, RTTms: 42}}); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.ID != 8 || res.Err == "" {
		t.Fatalf("bad cell did not error: %+v", res)
	}

	taskW.Close()
	if err := <-workerDone; err != nil {
		t.Fatalf("worker exit: %v", err)
	}
}

// TestWorkerSurvivesNegativeHorizon: a cell with a negative step count
// (which Spec.validate never lets the parent send) comes back as an
// in-band error, and the worker goes on to score the next frame.
func TestWorkerSurvivesNegativeHorizon(t *testing.T) {
	good := Cell{Index: 1, Proto: "reno", Senders: 2, Mbps: 10, RTTms: 42, BufferMSS: 50, Steps: 120}
	bad := good
	bad.Index, bad.Steps = 0, -5
	var in, out bytes.Buffer
	enc := json.NewEncoder(&in)
	for i, c := range []Cell{bad, good} {
		if err := enc.Encode(wireTask{ID: int64(i), Cell: c}); err != nil {
			t.Fatal(err)
		}
	}
	if err := WorkerMain(&in, &out); err != nil {
		t.Fatalf("worker exit: %v", err)
	}
	dec := json.NewDecoder(&out)
	var first, second wireResult
	if err := dec.Decode(&first); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&second); err != nil {
		t.Fatalf("no reply to the second frame: %v", err)
	}
	if first.ID != 0 || first.Err == "" || first.Scores != nil {
		t.Fatalf("negative-horizon cell did not error in-band: %+v", first)
	}
	want, err := computeCell(good, nil)
	if err != nil {
		t.Fatal(err)
	}
	if second.ID != 1 || second.Err != "" || second.Scores == nil || *second.Scores != EncodeScores(want) {
		t.Fatalf("second frame not scored: %+v", second)
	}
}

// TestShardedJobCompletes runs a job over real child worker processes.
func TestShardedJobCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	st := newFakeStore()
	_, url := startServer(t, Config{Store: st, Shards: 2})
	waitFor(t, func() bool {
		_, h := getJSON(t, url+"/healthz")
		pids, _ := h["shard_pids"].([]any)
		return len(pids) == 2
	})
	out := submit(t, url, testSpec)
	requireComplete(t, out, testSpecCells)
	if out.sum.Simulated != testSpecCells {
		t.Fatalf("cold sharded run: %+v", out.sum)
	}

	// Sharded and in-process execution agree bit for bit.
	_, inproc := startServer(t, Config{})
	want := submit(t, inproc, testSpec)
	requireComplete(t, want, testSpecCells)
	requireSameScores(t, want, out)
}

// TestShardSIGKILLMidJob is the headline chaos case: kill -9 one worker
// shard while a job is in flight. The in-flight cell requeues to a
// sibling, the supervisor respawns the dead shard, the job completes
// with zero failures — and a resubmission proves no work was lost or
// duplicated (every cell is served from cache, none resimulated).
func TestShardSIGKILLMidJob(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills child processes")
	}
	// Every attempt of cell 0 stalls 700ms so the job is reliably in
	// flight — with cell 0 parked on some shard — when the kill lands.
	t.Setenv(holdEnv, "0:700:99")
	s, url := startServer(t, Config{Shards: 2})
	waitFor(t, func() bool { return len(s.pool.pids()) == 2 })

	done := make(chan jobOut, 1)
	go func() { done <- submit(t, url, testSpec) }()
	waitFor(t, func() bool {
		_, h := getJSON(t, url+"/healthz")
		return h["active_jobs"] == float64(1)
	})
	time.Sleep(150 * time.Millisecond) // let cells reach the shards
	pids := s.pool.pids()
	if len(pids) == 0 {
		t.Fatal("no shard pids to kill")
	}
	if err := syscall.Kill(pids[0], syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}

	out := <-done
	requireComplete(t, out, testSpecCells)
	if out.sum.Simulated+out.sum.CacheHits != testSpecCells {
		t.Fatalf("lost cells: %+v", out.sum)
	}

	// The supervisor replaces the dead shard.
	waitFor(t, func() bool { return s.pool.aliveShards() == 2 && len(s.pool.pids()) == 2 })

	// No duplicate work on resubmission: everything is already cached.
	again := submit(t, url, testSpec)
	requireComplete(t, again, testSpecCells)
	if again.sum.Simulated != 0 {
		t.Fatalf("crash caused duplicate work: %+v", again.sum)
	}
	requireSameScores(t, out, again)
}

// TestAllShardsExhaustedFallsBackInProcess kills shards faster than the
// respawn budget allows until the pool gives up on child processes; the
// daemon must degrade to in-process serving rather than wedge.
func TestAllShardsExhaustedFallsBackInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills child processes")
	}
	// A one-attempt respawn budget: the first crash retires the shard.
	s, url := startServer(t, Config{Shards: 1, Respawn: retry.Policy{Attempts: 1}})
	waitFor(t, func() bool { return len(s.pool.pids()) == 1 })
	if err := syscall.Kill(s.pool.pids()[0], syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	// The pool notices, retires the shard, and starts in-process
	// workers; a job must still complete.
	waitFor(t, func() bool { return s.pool.aliveShards() > 0 && len(s.pool.pids()) == 0 })
	out := submit(t, url, testSpec)
	requireComplete(t, out, testSpecCells)
}
