package jobd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/retry"
)

// task is one dispatchable cell attempt. done is buffered so a worker
// can always deliver, even after the submitter abandoned the task on a
// job deadline.
type task struct {
	cell    Cell
	attempt int
	timeout time.Duration
	done    chan taskResult
}

type taskResult struct {
	scores ScoreBits
	err    error
}

// Sentinel failures the cell retry loop treats as transient: the cell
// itself is fine, the execution vehicle failed.
var (
	errCellTimeout  = errors.New("jobd: cell deadline exceeded")
	errShardCrashed = errors.New("jobd: worker shard crashed")
)

// pool runs cells. With shards == 0 it is a fixed set of in-process
// goroutines; with shards > 0 each shard is a child worker process
// (this binary re-exec'd with WorkerEnv set) speaking NDJSON over
// stdin/stdout. Child shards are the crash-isolation boundary: a cell
// that segfaults, a kill -9 from the operator, or an OOM kill takes
// down one shard, whose in-flight task fails with errShardCrashed (the
// server's cell retry loop re-dispatches it) while the supervisor
// respawns the dead child under a backoff budget. If every shard
// exhausts its budget the pool degrades to in-process serving rather
// than wedging the daemon.
type pool struct {
	tasks   chan *task
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	respawn retry.Policy
	seq     atomic.Int64
	alive   atomic.Int64
	shards  int

	hold *holdSpec        // in-process chaos hook (child shards parse it themselves)
	sess *metrics.Session // shared by in-process workers; storeless, memory dedup only

	inprocOnce sync.Once
	mu         sync.Mutex
	children   map[int]*childProc
}

func newPool(shards, workers int, respawn retry.Policy) *pool {
	ctx, cancel := context.WithCancel(context.Background())
	p := &pool{
		tasks:    make(chan *task),
		ctx:      ctx,
		cancel:   cancel,
		respawn:  respawn,
		shards:   shards,
		hold:     parseHold(os.Getenv(holdEnv)),
		sess:     metrics.NewSession(),
		children: make(map[int]*childProc),
	}
	// The pool's session is deliberately storeless (like the worker
	// processes'): every persistent-store interaction goes through the
	// server's breaker-gated layer, so a failing disk has exactly one
	// choke point.
	p.sess.SetStore(nil)
	if shards <= 0 {
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		p.startInproc(workers)
		return p
	}
	p.alive.Store(int64(shards))
	shardsAlive.Set(float64(shards))
	for i := 0; i < shards; i++ {
		p.wg.Add(1)
		go p.shardLoop(i)
	}
	return p
}

// close stops serving, kills any child shards, and waits for the
// supervisor goroutines to drain.
func (p *pool) close() {
	p.cancel()
	p.mu.Lock()
	for _, c := range p.children {
		if c != nil {
			c.kill()
		}
	}
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *pool) aliveShards() int { return int(p.alive.Load()) }

// pids returns the live child-shard process IDs (empty in-process).
func (p *pool) pids() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []int
	for _, c := range p.children {
		if c != nil && c.cmd.Process != nil {
			out = append(out, c.cmd.Process.Pid)
		}
	}
	return out
}

// ---- in-process serving ----

func (p *pool) startInproc(workers int) {
	p.alive.Store(int64(workers))
	shardsAlive.Set(float64(workers))
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for {
				select {
				case <-p.ctx.Done():
					return
				case t := <-p.tasks:
					t.done <- p.inprocRun(t)
				}
			}
		}()
	}
}

// inprocRun computes one cell on this process, honoring the per-cell
// deadline. metrics.Characterize has no cancellation point, so a
// timed-out computation is abandoned rather than stopped: it finishes
// in the background and its send lands in the task's buffer, unread.
// That trades a bounded amount of wasted CPU for never blocking a job.
func (p *pool) inprocRun(t *task) taskResult {
	ch := make(chan taskResult, 1)
	go func() {
		p.hold.maybeStall(t.cell.Index, t.attempt)
		s, err := computeCell(t.cell, p.sess)
		if err != nil {
			ch <- taskResult{err: err}
			return
		}
		ch <- taskResult{scores: EncodeScores(s)}
	}()
	if t.timeout <= 0 {
		return <-ch
	}
	timer := time.NewTimer(t.timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r
	case <-timer.C:
		return taskResult{err: errCellTimeout}
	}
}

// ---- child-process shards ----

// shardLoop is shard id's supervisor: spawn a worker child, feed it
// tasks until it dies, respawn under the backoff budget. A child that
// completed at least one task before dying resets the budget — only
// back-to-back failures with no useful work in between count toward
// giving up on the slot.
func (p *pool) shardLoop(id int) {
	defer p.wg.Done()
	bo := p.respawn.Start(uint64(id) + 1)
	for {
		if p.ctx.Err() != nil {
			p.shardGone(id, false)
			return
		}
		child, err := p.spawnChild()
		if err == nil {
			shardsSpawned.Inc()
			p.setChild(id, child)
			p.serveChild(child)
			p.setChild(id, nil)
			child.kill()
			if p.ctx.Err() != nil {
				p.shardGone(id, false)
				return
			}
			shardsCrashed.Inc()
			if obs.Enabled() {
				obs.NoteEvent("shard", "jobd.shard.crash", fmt.Sprintf("shard %d died after %d tasks", id, child.served))
			}
			if child.served > 0 {
				bo = p.respawn.Start(uint64(id) + 1)
			}
		}
		if ok, _ := bo.Sleep(p.ctx); !ok {
			if p.ctx.Err() == nil {
				p.shardGone(id, true)
			} else {
				p.shardGone(id, false)
			}
			return
		}
	}
}

// shardGone retires shard id. When the last shard exhausts its respawn
// budget while the pool is still serving, tasks would otherwise sit in
// the queue forever — degrade to in-process workers instead.
func (p *pool) shardGone(id int, exhausted bool) {
	left := p.alive.Add(-1)
	shardsAlive.Set(float64(left))
	if !exhausted {
		return
	}
	shardsExhausted.Inc()
	if obs.Enabled() {
		obs.NoteEvent("shard", "jobd.shard.exhausted", fmt.Sprintf("shard %d respawn budget exhausted", id))
	}
	if left == 0 && p.ctx.Err() == nil {
		p.inprocOnce.Do(func() {
			if obs.Enabled() {
				obs.NoteEvent("shard", "jobd.pool.degraded", "all shards dead; serving in-process")
			}
			p.startInproc(runtime.GOMAXPROCS(0))
		})
	}
}

func (p *pool) setChild(id int, c *childProc) {
	p.mu.Lock()
	p.children[id] = c
	p.mu.Unlock()
}

// serveChild pumps tasks into one live child until the child dies or
// the pool closes. A task whose child crashed under it or timed out is
// answered with that failure, which the server's cell retry loop
// handles, and the dead or wedged child is killed either way.
func (p *pool) serveChild(c *childProc) {
	for {
		select {
		case <-p.ctx.Done():
			return
		case _, ok := <-c.result:
			// Nothing is in flight, so any reply is stale; a closed
			// channel means the child died while idle (operator kill,
			// OOM) and the supervisor should respawn it now, not on the
			// next dispatch.
			if !ok {
				return
			}
		case t := <-p.tasks:
			res, childOK := c.do(t, p.seq.Add(1))
			t.done <- res
			if !childOK {
				return
			}
		}
	}
}

// childProc is one live worker process plus its reply stream. results
// is closed by the reader goroutine when the child's stdout ends —
// that close is how every code path learns the child is gone.
type childProc struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	enc    *json.Encoder
	result chan wireResult
	served int
}

func (p *pool) spawnChild() (*childProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("jobd: spawn shard: %w", err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), WorkerEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("jobd: spawn shard: %w", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("jobd: spawn shard: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("jobd: spawn shard: %w", err)
	}
	c := &childProc{cmd: cmd, stdin: stdin, enc: json.NewEncoder(stdin), result: make(chan wireResult, 1)}
	go func() {
		dec := json.NewDecoder(stdout)
		for {
			var r wireResult
			if dec.Decode(&r) != nil {
				break
			}
			c.result <- r
		}
		close(c.result)
		cmd.Wait() //nolint:errcheck // reaped for the exit status only
	}()
	return c, nil
}

// do runs one task on the child. The bool reports whether the child is
// still usable afterwards: false means it crashed or
// was killed for blowing the cell deadline (task fails this attempt).
func (c *childProc) do(t *task, id int64) (taskResult, bool) {
	if err := c.enc.Encode(wireTask{ID: id, Attempt: t.attempt, Cell: t.cell}); err != nil {
		c.kill()
		return taskResult{err: errShardCrashed}, false
	}
	var timeout <-chan time.Time
	if t.timeout > 0 {
		timer := time.NewTimer(t.timeout)
		defer timer.Stop()
		timeout = timer.C
	}
	for {
		select {
		case r, ok := <-c.result:
			if !ok {
				return taskResult{err: errShardCrashed}, false
			}
			if r.ID != id {
				continue // stale reply from a task a prior deadline abandoned
			}
			c.served++
			switch {
			case r.Err != "":
				return taskResult{err: errors.New(r.Err)}, true
			case r.Scores == nil:
				return taskResult{err: errors.New("jobd: worker returned no scores")}, true
			default:
				return taskResult{scores: *r.Scores}, true
			}
		case <-timeout:
			c.kill()
			return taskResult{err: errCellTimeout}, false
		}
	}
}

func (c *childProc) kill() {
	c.stdin.Close()
	if c.cmd.Process != nil {
		c.cmd.Process.Kill() //nolint:errcheck // already-dead children are fine
	}
}
