package jobd

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"syscall"
	"testing"
	"time"

	"repro/internal/metrics"
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

// goodFrame is a task frame the worker scores; badCellFrames decode as
// task frames but carry cells that break a Cell rule, so the worker must
// answer each with an error reply. Both seed FuzzWorkerFrame.
const goodFrame = `{"id":9,"cell":{"index":1,"proto":"reno","senders":2,"mbps":10,"rtt_ms":42,"buffer_mss":50,"steps":120}}`

var badCellFrames = []string{
	// Once scored as an efficiency of 1.31: a tail fraction of 7 reads
	// past the end of the run.
	`{"id":5,"cell":{"proto":"reno","senders":2,"mbps":20,"rtt_ms":42,"buffer_mss":100,"steps":100,"tail_frac":7}}`,
	`{"id":10,"cell":{"proto":"reno","senders":2,"mbps":20,"rtt_ms":42,"buffer_mss":100,"tail_frac":1}}`,
	`{"id":11,"cell":{"proto":"reno","senders":2,"mbps":20,"rtt_ms":42,"buffer_mss":100,"tail_frac":-0.25}}`,
	`{"id":12,"cell":{"proto":"reno","senders":2,"mbps":20,"rtt_ms":42,"buffer_mss":100,"steps":-5}}`,
	`{"id":13,"cell":{"proto":"reno","senders":2,"mbps":20,"rtt_ms":42,"buffer_mss":100,"steps":1048577}}`,
	`{"id":14,"cell":{"proto":"reno","senders":0,"mbps":20,"rtt_ms":42,"buffer_mss":100}}`,
	`{"id":15,"cell":{"proto":"reno","senders":65,"mbps":20,"rtt_ms":42,"buffer_mss":100}}`,
	`{"id":16,"cell":{"proto":"reno","senders":2,"mbps":0,"rtt_ms":42,"buffer_mss":100}}`,
	`{"id":17,"cell":{"proto":"reno","senders":2,"mbps":20,"rtt_ms":-42,"buffer_mss":100}}`,
	`{"id":18,"cell":{"proto":"reno","senders":2,"mbps":20,"rtt_ms":42,"buffer_mss":-1}}`,
	`{"id":19,"cell":{"proto":"nosuch","senders":2,"mbps":20,"rtt_ms":42,"buffer_mss":100}}`,
	`{"id":20,"cell":{"proto":"reno","senders":2,"mbps":20,"rtt_ms":42,"buffer_mss":100,"chaos":{"events":[{"kind":"bogus","at":1}]}}}`,
	`{"id":21}`,
}

// TestWorkerRejectsOutOfRangeCells: every frame in badCellFrames (cells
// Spec.validate never lets the parent send) comes back as an error reply
// under its own ID, and the worker goes on to score the good frame after
// them bit-identically to a direct computation.
func TestWorkerRejectsOutOfRangeCells(t *testing.T) {
	var in, out bytes.Buffer
	for _, f := range badCellFrames {
		in.WriteString(f + "\n")
	}
	in.WriteString(goodFrame + "\n")
	if err := WorkerMain(&in, &out); err != nil {
		t.Fatalf("worker exit: %v", err)
	}
	dec := json.NewDecoder(&out)
	for _, f := range badCellFrames {
		var task wireTask
		if err := json.Unmarshal([]byte(f), &task); err != nil {
			t.Fatal(err)
		}
		var res wireResult
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("no reply to %s: %v", f, err)
		}
		if res.ID != task.ID || res.Err == "" || res.Scores != nil {
			t.Errorf("frame %s: reply %+v, want an error reply", f, res)
		}
	}
	var good wireTask
	if err := json.Unmarshal([]byte(goodFrame), &good); err != nil {
		t.Fatal(err)
	}
	want, err := computeCell(good.Cell, nil)
	if err != nil {
		t.Fatal(err)
	}
	var last wireResult
	if err := dec.Decode(&last); err != nil {
		t.Fatalf("no reply to the good frame: %v", err)
	}
	if last.ID != good.ID || last.Err != "" || last.Scores == nil || *last.Scores != EncodeScores(want) {
		t.Fatalf("good frame not scored: %+v", last)
	}
}

// TestCellValidateRejectsNonFinite covers what JSON cannot carry to a
// worker but a Go caller of computeCell can: NaN and infinite fields.
func TestCellValidateRejectsNonFinite(t *testing.T) {
	good := Cell{Proto: "reno", Senders: 2, Mbps: 20, RTTms: 42, BufferMSS: 100, Steps: 100}
	if err := good.validate(); err != nil {
		t.Fatalf("good cell rejected: %v", err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, set := range map[string]func(*Cell){
			"tail_frac":  func(c *Cell) { c.TailFrac = v },
			"mbps":       func(c *Cell) { c.Mbps = v },
			"rtt_ms":     func(c *Cell) { c.RTTms = v },
			"buffer_mss": func(c *Cell) { c.BufferMSS = v },
		} {
			c := good
			set(&c)
			if err := c.validate(); err == nil {
				t.Errorf("%s = %v accepted", name, v)
			}
			if _, err := computeCell(c, nil); err == nil {
				t.Errorf("computeCell scored %s = %v", name, v)
			}
		}
	}
}

// FuzzWorkerFrame: decodeTask never panics; a frame it accepts passes
// Cell.validate; and the reply for its result, once encoded, decodes as
// a wireResult under the task's ID carrying exactly one of scores and
// err.
func FuzzWorkerFrame(f *testing.F) {
	f.Add([]byte(goodFrame))
	for _, b := range badCellFrames {
		f.Add([]byte(b))
	}
	f.Add([]byte(`{"id":1,"cell":`))
	f.Add([]byte(`{"id":"x"}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"id":3,"attempt":2,"cell":{"proto":"aimd:1,0.875","senders":3,"mbps":10,"rtt_ms":20,"buffer_mss":0,"steps":800,"tail_frac":0.5,"chaos":{"events":[{"kind":"ge-loss","at":0,"p_good_bad":0.02,"p_bad_good":0.3,"loss_bad":0.08,"flow":-1,"link":-1}]},"chaos_seed":7}}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		task, reject, err := decodeTask(line)
		if err != nil {
			if reject != nil {
				t.Fatalf("undecodable frame also rejected: %+v", reject)
			}
			return
		}
		reply := reject
		if reply == nil {
			if err := task.Cell.validate(); err != nil {
				t.Fatalf("accepted a frame whose cell fails validate: %v", err)
			}
			sb := EncodeScores(metrics.Scores{})
			reply = &wireResult{ID: task.ID, Scores: &sb}
		}
		data, err := json.Marshal(reply)
		if err != nil {
			t.Fatalf("reply does not encode: %v", err)
		}
		var back wireResult
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("reply %s does not decode: %v", data, err)
		}
		if back.ID != task.ID || (back.Scores != nil) == (back.Err != "") {
			t.Fatalf("reply %s for task %d: want its ID and exactly one of scores and err", data, task.ID)
		}
	})
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
// shard while a job is in flight. The in-flight cell's attempt fails and
// the cell retry loop re-dispatches it, the supervisor respawns the dead
// shard, the job completes with zero failures — and a resubmission
// proves no work was lost or duplicated (every cell is served from
// cache, none resimulated).
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
