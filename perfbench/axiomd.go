package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/fluid"
	"repro/internal/jobd"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// The axiomd-jobs workload drives cmd/axiomd over HTTP: every daemon runs
// e.workers shards, and e.workers client goroutines, each with its own
// connection, submit jobs in a closed loop. Cold jobs go to a daemon
// that simulates never-seen cells; warm jobs go to a daemon that answers
// stored cells it has never served, so every answer is a store read (a
// daemon that already served a cell answers from memory).
//
// One round is warmSpan cold jobs (jobMbps × jobRTTs × jobBuffers ×
// len(jobProtocols) = 96 cells each) from e.workers clients, then one
// warm job over the 960 cells of the phase's fill round.

// daemon is one running axiomd.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	exited chan struct{}
	stderr *lockedBuffer
}

type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// startDaemon execs axiomd on store ("" runs it without one) and returns
// once /readyz answers 200 with every shard alive, with the seconds that
// took.
func startDaemon(e *env, store string, traced bool, client *http.Client) (*daemon, float64, error) {
	args := []string{"-listen", "127.0.0.1:0", "-shards", strconv.Itoa(e.workers),
		"-max-active", strconv.Itoa(e.workers), "-store", store}
	if store == "" {
		args[len(args)-2] = "-nostore"
		args = args[:len(args)-1]
	}
	if traced {
		args = append(args, "-obs-listen", "127.0.0.1:0", "-runrecord", filepath.Join(e.tmp, "runrecord.json"))
	}
	cmd := exec.Command(filepath.Join(e.bin, "axiomd"), args...)
	cmd.Dir = e.tmp
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{}), stderr: &lockedBuffer{}}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(d.stderr, line)
			if rest, ok := strings.CutPrefix(line, "axiomd: listening on "); ok {
				select {
				case addr <- strings.Fields(rest)[0]:
				default:
				}
			}
		}
		cmd.Wait() //nolint:errcheck // the exit status is read through ProcessState
		close(d.exited)
	}()
	fail := func(err error) (*daemon, float64, error) {
		d.stop()
		return nil, 0, fmt.Errorf("axiomd: %w\n%s", err, d.stderr.String())
	}
	select {
	case d.base = <-addr:
	case <-d.exited:
		return fail(fmt.Errorf("exited before listening"))
	case <-time.After(60 * time.Second):
		return fail(fmt.Errorf("no listening line after 60s"))
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if h, err := health(client, d.base); err == nil && h.ShardsAlive == e.workers && ready(client, d.base) {
			break
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("not ready with %d shards after 60s", e.workers))
		}
		time.Sleep(time.Millisecond)
	}
	return d, time.Since(start).Seconds(), nil
}

type healthz struct {
	ShardsAlive int   `json:"shards_alive"`
	ShardPids   []int `json:"shard_pids"`
}

func health(client *http.Client, base string) (healthz, error) {
	var h healthz
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&h)
	return h, err
}

func ready(client *http.Client, base string) bool {
	resp, err := client.Get(base + "/readyz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // only the status matters
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// pids returns the daemon's process and its shards.
func (d *daemon) pids(client *http.Client) []int {
	pids := []int{d.cmd.Process.Pid}
	if h, err := health(client, d.base); err == nil {
		pids = append(pids, h.ShardPids...)
	}
	return pids
}

// stop drains the daemon with SIGTERM and waits for it (and, through its
// drain, its shards) to exit; a daemon still running after 30s is killed.
func (d *daemon) stop() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // an exited daemon is fine
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck // already-dead is fine
		<-d.exited
	}
}

// snapshot reads the daemon's obs registry (traced daemons only).
func (d *daemon) snapshot(client *http.Client) (obs.Snapshot, error) {
	var s obs.LiveSnapshot
	resp, err := client.Get(d.base + "/snapshot")
	if err != nil {
		return s.Metrics, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&s)
	return s.Metrics, err
}

// jobOut is one job as the client saw it.
type jobOut struct {
	cells  int
	scores map[string]jobd.ScoreBits // by cell key
	rows   []jobd.ResultRow
	sum    jobd.Summary
	ttfb   time.Duration
	wall   time.Duration
	bytes  int
}

// postJob submits spec and reads the whole NDJSON stream.
func postJob(client *http.Client, base string, spec jobd.Spec) (jobOut, error) {
	var out jobOut
	body, err := json.Marshal(spec)
	if err != nil {
		return out, err
	}
	sp := obs.StartLeafSpan("jobd.request")
	defer sp.End()
	start := time.Now()
	resp, err := client.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return out, fmt.Errorf("job refused: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	br := bufio.NewReaderSize(resp.Body, 1<<16)
	var lines [][]byte
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if out.ttfb == 0 {
				out.ttfb = time.Since(start)
			}
			out.bytes += len(line)
			lines = append(lines, line)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return out, err
		}
	}
	out.wall = time.Since(start)
	out.scores = make(map[string]jobd.ScoreBits, len(lines))
	for _, line := range lines {
		if bytes.Contains(line, []byte(`"done":`)) {
			if err := json.Unmarshal(line, &out.sum); err != nil {
				return out, err
			}
			continue
		}
		var row jobd.ResultRow
		if err := json.Unmarshal(line, &row); err != nil {
			return out, err
		}
		out.rows = append(out.rows, row)
		if row.Scores != nil {
			out.scores[row.Key] = *row.Scores
		}
	}
	out.cells = len(out.rows)
	if !out.sum.Done {
		return out, fmt.Errorf("job stream ended without a summary")
	}
	return out, nil
}

// jobSpec builds one job over the given bandwidths.
func (in jobInputs) spec(mbps []float64) jobd.Spec {
	return jobd.Spec{
		Protocols: jobProtocols,
		Senders:   jobSenders,
		Link:      jobd.LinkGrid{Mbps: mbps, RTTms: in.RTTms, BufferMSS: in.BufferMSS},
	}
}

// jobRun is the state of one run of the workload.
type jobRun struct {
	e      *env
	in     jobInputs
	client *http.Client
	res    *result
	next   int // next cold job: cold cells never repeat within a run

	// stored holds the fill round's answers by cell key; warmSpec asks
	// for all of them.
	stored   map[string]jobd.ScoreBits
	warmSpec jobd.Spec

	// setup, when set, is one daemon set-up; phases make setupsPerCycle
	// of them before each timed round.
	setup     func() (float64, error)
	setupSecs []float64

	coldMS, warmMS []float64
	coldCells      int
	coldWall       time.Duration
	ttfb           []float64
	ndjsonBytes    int
}

// coldJobs runs the next warmSpan cold jobs on d from e.workers clients
// in a closed loop and checks that each simulated every cell.
func (r *jobRun) coldJobs(d *daemon) ([]jobOut, error) {
	first := r.next
	r.next += warmSpan
	specs := make([]jobd.Spec, warmSpan)
	for i := range specs {
		specs[i] = r.in.spec(r.in.coldMbps(first + i))
	}
	start := time.Now()
	outs, err := r.drive(d, specs)
	if err != nil {
		return nil, err
	}
	r.coldWall += time.Since(start)
	for i, o := range outs {
		r.res.Attempted++
		if o.sum.Failed != 0 || o.sum.Simulated != o.cells || o.cells != specCells {
			r.fail("cold job %d: %d cells, %d simulated, %d failed", first+i, o.cells, o.sum.Simulated, o.sum.Failed)
		}
		r.coldMS = append(r.coldMS, ms(o.wall))
		r.coldCells += o.cells
		r.note(o)
	}
	return outs, nil
}

// warmJob runs the warm job on d and checks that every cell came from
// the store with the fill round's bits.
func (r *jobRun) warmJob(d *daemon) error {
	outs, err := r.drive(d, []jobd.Spec{r.warmSpec})
	if err != nil {
		return err
	}
	o := outs[0]
	r.res.Attempted++
	if o.sum.Failed != 0 || o.sum.Simulated != 0 || o.cells != len(r.stored) {
		r.fail("warm job: %d cells, %d simulated, %d failed", o.cells, o.sum.Simulated, o.sum.Failed)
	} else {
		for k, v := range o.scores {
			if c, ok := r.stored[k]; !ok || c != v {
				r.fail("warm job: cell %s differs from the cold answer", k)
				break
			}
		}
	}
	r.warmMS = append(r.warmMS, ms(o.wall))
	r.note(o)
	return nil
}

// specCells is the cell count of one cold job.
var specCells = len(jobProtocols) * jobMbps * jobRTTs * jobBuffers

func (r *jobRun) note(o jobOut) {
	r.ttfb = append(r.ttfb, ms(o.ttfb))
	r.ndjsonBytes += o.bytes
}

func (r *jobRun) fail(format string, args ...any) {
	r.res.Failed++
	r.e.note("FAIL: "+format, args...)
}

// drive submits specs to d from e.workers client goroutines, each taking
// the next spec when its previous job completes.
func (r *jobRun) drive(d *daemon, specs []jobd.Spec) ([]jobOut, error) {
	outs := make([]jobOut, len(specs))
	errs := make([]error, len(specs))
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for w := 0; w < r.e.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(specs) {
					return
				}
				outs[i], errs[i] = postJob(r.client, d.base, specs[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// checkInProcess recomputes a few cells of a cold job in this process,
// the way an axiomd shard does, and compares the bits.
func checkInProcess(o jobOut) error {
	for i, row := range o.rows {
		if i%12 != 0 {
			continue
		}
		p, err := protocol.Parse(row.Proto)
		if err != nil {
			return err
		}
		cfg := fluid.Config{Bandwidth: fluid.MbpsToMSSps(row.Mbps), PropDelay: row.RTTms / 2000, Buffer: row.BufferMSS}
		s, err := metrics.Characterize(cfg, p, jobSenders, metrics.Options{NoCache: true})
		if err != nil {
			return err
		}
		if row.Scores == nil || jobd.EncodeScores(s) != *row.Scores {
			return fmt.Errorf("axiomd cell %s %g Mbps differs from the in-process characterization", row.Proto, row.Mbps)
		}
	}
	return nil
}

// phaseOut is what one phase of the workload measured.
type phaseOut struct {
	rounds []float64 // round wall times (ms)
	rss    []float64 // peak resident memory of both daemons per round (MiB)
	ledger ledger
	// daemon registry deltas over the timed rounds (traced phases only)
	counters map[string]float64
	spanSecs map[string]float64
	// the cold daemons' per-cell latency histogram deltas
	cellSecs, cellCount float64
	// the fill round's store writes
	fillPuts, fillPutSecs, fillFlockSecs float64
	fillBytes                            int64
}

// phase runs the workload on a new store. An untimed fill round runs
// cold jobs on a daemon that writes the store (and checks a sample of
// cells in process). Each timed round then starts two daemons, untimed:
// a cold daemon without a store, which simulates never-seen cells, and a
// warm daemon on the store, which answers the fill round's cells from
// store reads because it has served nothing yet. Both are stopped after
// the round. Timed rounds run for seconds and at least rounds of them.
//
// Timed cold jobs do not write to the store: on a disk file system,
// creating the same 960 small entries took from 50 ms to 870 ms as
// earlier runs deleted theirs, a drift no repeat within a run averages
// away. Restarting the daemons every round also bounds their memory:
// shards keep every run they simulated in one Session.
func (r *jobRun) phase(traced bool, seconds float64, rounds int) (phaseOut, error) {
	out := phaseOut{ledger: newLedger(), counters: map[string]float64{}, spanSecs: map[string]float64{}}
	e := r.e
	store, err := os.MkdirTemp(e.tmp, "store-")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(store)

	f, _, err := startDaemon(e, store, traced, r.client)
	if err != nil {
		return out, err
	}
	fill, err := r.coldJobs(f)
	if err == nil && traced {
		var s obs.Snapshot
		if s, err = f.snapshot(r.client); err == nil {
			out.fillPuts = float64(s.Counters["runstore.puts"])
			out.fillPutSecs = s.Histograms["span.runstore.put"].SumSeconds
			out.fillFlockSecs = s.Histograms["span.runstore.flock.wait"].SumSeconds
		}
	}
	f.stop()
	if err != nil {
		return out, err
	}
	if out.fillBytes, err = dirBytes(store); err != nil {
		return out, err
	}
	r.stored = map[string]jobd.ScoreBits{}
	for _, o := range fill {
		for k, v := range o.scores {
			r.stored[k] = v
		}
	}
	var mbps []float64
	for k := r.next - warmSpan; k < r.next; k++ {
		mbps = append(mbps, r.in.coldMbps(k)...)
	}
	r.warmSpec = r.in.spec(mbps)
	r.res.Attempted++
	if err := checkInProcess(fill[0]); err != nil {
		r.fail("%v", err)
	}
	r.coldMS, r.warmMS, r.coldCells, r.coldWall = nil, nil, 0, 0
	r.ttfb, r.ndjsonBytes = nil, 0

	round := func() error {
		cold, _, err := startDaemon(e, "", traced, r.client)
		if err != nil {
			return err
		}
		defer cold.stop()
		warm, _, err := startDaemon(e, store, traced, r.client)
		if err != nil {
			return err
		}
		defer warm.stop()
		daemons := []*daemon{cold, warm}
		pids := append(cold.pids(r.client), warm.pids(r.client)...)
		resetPeakRSS(pids...)
		var before []obs.Snapshot
		if traced {
			if before, err = snapshots(r.client, daemons); err != nil {
				return err
			}
			obs.Enable()
			obs.EnableTimeline()
		}
		_, sp := obs.StartSpan(context.Background(), passSpan)
		start := time.Now()
		_, err = r.coldJobs(cold)
		if err == nil {
			err = r.warmJob(warm)
		}
		d := time.Since(start)
		sp.End()
		obs.Disable()
		obs.DisableTimeline()
		if err != nil {
			return err
		}
		out.rounds = append(out.rounds, ms(d))
		out.rss = append(out.rss, peakRSSMB(pids...))
		if !traced {
			return nil
		}
		if err := out.ledger.addTimeline(); err != nil {
			return err
		}
		after, err := snapshots(r.client, daemons)
		if err != nil {
			return err
		}
		for i := range after {
			for k, v := range after[i].Counters {
				out.counters[k] += float64(v) - float64(before[i].Counters[k])
			}
			for k, h := range after[i].Histograms {
				out.spanSecs[k] += h.SumSeconds - before[i].Histograms[k].SumSeconds
			}
		}
		h, h0 := after[0].Histograms["jobd.cell.duration"], before[0].Histograms["jobd.cell.duration"]
		out.cellSecs += h.SumSeconds - h0.SumSeconds
		out.cellCount += float64(h.Count - h0.Count)
		return nil
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(out.rounds) < rounds || time.Now().Before(deadline) {
		if r.setup != nil {
			if err := setups(r.setup, &r.setupSecs); err != nil {
				return out, err
			}
		}
		if err := round(); err != nil {
			return out, err
		}
	}
	return out, nil
}

func snapshots(client *http.Client, ds []*daemon) ([]obs.Snapshot, error) {
	var out []obs.Snapshot
	for _, d := range ds {
		s, err := d.snapshot(client)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// minRounds is the fewest timed rounds an end-to-end run makes, however
// long they take: 150 cold jobs fix the tail percentile at p90.
const minRounds = 15

func runAxiomd(e *env) (*result, error) {
	in := genJobs(e.seed)
	e.note("inputs: protocols %v, senders %d, rtt_ms %v, buffer_mss %v, %d fresh Mbps per cold job from %.4f; %d shards, %d clients",
		jobProtocols, jobSenders, in.RTTms, in.BufferMSS, jobMbps, in.mbpsBase, e.workers, e.workers)
	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: e.workers + 1, MaxIdleConnsPerHost: e.workers + 1, DisableCompression: true,
	}}
	defer client.CloseIdleConnections()
	res := &result{}
	r := &jobRun{e: e, in: in, client: client, res: res}

	if e.trace {
		if err := traceAxiomd(r); err != nil {
			return nil, err
		}
		res.Correct = res.Failed == 0
		return res, nil
	}

	// Every set-up opens the same existing store, so set-up time does not
	// include creating directories on the disk.
	store, err := os.MkdirTemp(e.tmp, "setup-")
	if err != nil {
		return nil, err
	}
	r.setup = func() (float64, error) {
		d, secs, err := startDaemon(e, store, false, client)
		d.stop()
		return secs, err
	}
	p, err := r.phase(false, e.seconds, minRounds)
	if err != nil {
		return nil, err
	}
	pct := tailPct(minRounds * warmSpan)
	e.note("rounds=%d set-ups=%d cold jobs=%d warm jobs=%d cold_tail=p%g (%d beyond)",
		len(p.rounds), len(r.setupSecs), len(r.coldMS), len(r.warmMS), pct, int(float64(len(r.coldMS))*(1-pct/100)))
	res.Correct = res.Failed == 0
	return res, fill(res, endToEnd, map[string]float64{
		"setup_s":      median(r.setupSecs),
		"cold_p50_ms":  median(r.coldMS),
		"warm_p50_ms":  median(r.warmMS),
		"cold_tail_ms": quantile(r.coldMS, pct/100),
		"cells_per_s":  float64(r.coldCells) / r.coldWall.Seconds(),
		"peak_rss_mb":  median(p.rss),
	})
}

// traceAxiomd spends half the run on untraced daemons and half on traced
// ones, and reports the per-layer metrics per traced round; the store's
// write metrics come from the traced fill round.
func traceAxiomd(r *jobRun) error {
	e := r.e
	plain, err := r.phase(false, e.seconds/2, 2)
	if err != nil {
		return err
	}
	p, err := r.phase(true, e.seconds/2, 2)
	if err != nil {
		return err
	}
	n := float64(len(p.rounds))
	per := func(k string) float64 { return p.counters[k] / n }
	spanMS := func(k string) float64 { return p.spanSecs[k] * 1e3 / n }
	protos := make([]protocol.Protocol, len(jobProtocols))
	for i, s := range jobProtocols {
		if protos[i], err = protocol.Parse(s); err != nil {
			return err
		}
	}
	l := &p.ledger
	vals := map[string]float64{
		"ledger.cycle_ms":         l.wall / 1e3 / n,
		"unattributed_frac":       l.unattributed / l.wall,
		"obs.trace_overhead_frac": median(p.rounds)/median(plain.rounds) - 1,
		"protocol.update_ns":      replayProtocolNs(protos),
		"engine.worker_busy_frac": l.busy / (l.wall * float64(e.workers)),
		"runstore.puts":           p.fillPuts,
		"runstore.hits":           per("runstore.hits"),
		"runstore.misses":         per("runstore.misses"),
		"runstore.put_ms":         p.fillPutSecs * 1e3,
		"runstore.get_ms":         spanMS("span.runstore.get"),
		"runstore.flock_wait_ms":  p.fillFlockSecs * 1e3,
		"runstore.put_bytes":      float64(p.fillBytes),
		"jobd.self_ms":            l.layerMS("jobd", len(p.rounds)),
		"jobd.ttfb_ms":            median(r.ttfb),
		"jobd.shard_rtt_ms":       p.cellSecs * 1e3 / max(p.cellCount, 1),
		"jobd.ndjson_bytes":       float64(r.ndjsonBytes) / n,
		"jobd.cells.cached":       per("jobd.cells.cached"),
		"jobd.cells.simulated":    per("jobd.cells.simulated"),
		"jobd.cells.retried":      per("jobd.cells.retried"),
		"jobd.jobs.shed":          per("jobd.jobs.shed"),
	}
	// The daemons' store lives in the checkout, on the real disk.
	vals["runstore.put_ms.disk"], vals["runstore.get_ms.disk"] = vals["runstore.put_ms"], vals["runstore.get_ms"]
	vals["runstore.self_ms"] = spanMS("span.runstore.get") + spanMS("span.runstore.put") + spanMS("span.runstore.flock.wait")
	// The simulators run inside the shard processes, which are not
	// traced; their layers read zero here.
	for _, d := range perLayer {
		if _, ok := vals[d.Name]; !ok {
			vals[d.Name] = 0
		}
	}
	e.note("%d untraced + %d traced rounds", len(plain.rounds), len(p.rounds))
	e.note("%s", l.summary(len(p.rounds)))
	e.note("daemon store time (summed over goroutines): fill round put %.2f ms for %.0f entries; per round get %.2f ms",
		vals["runstore.put_ms"], p.fillPuts, vals["runstore.get_ms"])
	return fill(r.res, perLayer, vals)
}
