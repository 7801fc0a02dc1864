package main

import (
	"context"
	"os"
	"runtime"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/runstore"
)

// An in-process run has three kinds of pass, each through a new Session:
//
//   - one fill pass, untimed, on a new store in the checkout: it
//     simulates every run and writes each result to the store;
//   - cold passes, with no store: every run is simulated;
//   - warm passes, on the filled store: every run is read back.
//
// Timed cycles are one cold and one warm pass. Cold passes do not write
// to a store because a store must live inside the checkout, and on a
// disk file system the time of those writes depends on how much the
// machine deleted recently (the same 33 MB of entries took from 17 ms to
// 280 ms on one 2-core VM), which no repeat of a pass can average away.
// The store's write path is measured by the fill pass in the traced run.

// passOut is what one pass of an in-process workload produced.
type passOut struct {
	cells       int     // cells completed
	digest      string  // IEEE-754 bit digest of every score
	exploreSelf float64 // pareto.Explore wall minus time in its evaluator (ms)
	explore     [3]int  // pareto cells evaluated, simulated, pruned
	simulated   int64   // runs the pass's session simulated
	ms          float64 // wall time
}

// inproc is an in-process workload: a pass, plus the workload's own
// checks and replays.
type inproc struct {
	pass func(sess *metrics.Session) (passOut, error)
	// check runs once per run, untimed, and returns an error when the
	// outputs are wrong.
	check func(ref passOut) error
	// replay fills workload-specific per-layer metrics from replays,
	// given the per-cycle counters of the traced run.
	replay func(vals map[string]float64) error
	protos []protocol.Protocol
	// cached marks workloads whose runs go through the Session: their
	// fill pass must simulate, and their warm passes must not.
	cached bool
}

// run performs one pass through a new Session backed by st (nil: no
// store), after a garbage collection, inside the ledger's pass span.
func (w *inproc) run(st *runstore.Store) (passOut, error) {
	runtime.GC()
	sess := metrics.NewSession()
	sess.SetStore(st)
	_, sp := obs.StartSpan(context.Background(), passSpan)
	start := time.Now()
	out, err := w.pass(sess)
	out.ms = ms(time.Since(start))
	sp.End()
	out.simulated = sess.Stats().Simulated()
	return out, err
}

// runInproc measures an in-process workload for e.seconds.
func runInproc(e *env, w *inproc) (*result, error) {
	res := &result{}
	var setup func() (float64, error)
	if !e.trace {
		var err error
		if setup, err = inprocSetup(e); err != nil {
			return nil, err
		}
	}
	dir, err := os.MkdirTemp(e.tmp, "store-")
	if err != nil {
		return nil, err
	}
	st, err := runstore.Open(dir, runstore.Options{})
	if err != nil {
		return nil, err
	}
	fo, err := traceFill(e, w, st)
	if err != nil {
		return nil, err
	}
	ref := fo.out
	e.note("score digest (seed %d): %s", e.seed, ref.digest)
	fail := func(format string, args ...any) {
		res.Failed++
		e.note("FAIL: "+format, args...)
	}
	res.Attempted++
	if w.cached && ref.simulated == 0 {
		fail("fill pass simulated nothing")
	}
	if w.check != nil {
		res.Attempted++
		if err := w.check(ref); err != nil {
			fail("%v", err)
		}
	}
	// cycle runs one cold and one warm pass and checks both against the
	// fill pass, bit for bit.
	cycle := func() (cold, warm passOut, err error) {
		if cold, err = w.run(nil); err != nil {
			return
		}
		if warm, err = w.run(st); err != nil {
			return
		}
		res.Attempted += 2
		if cold.digest != ref.digest {
			fail("cold pass digest %s != fill pass %s", cold.digest, ref.digest)
		}
		if warm.digest != ref.digest {
			fail("warm pass digest %s != fill pass %s", warm.digest, ref.digest)
		}
		if w.cached && warm.simulated != 0 {
			fail("warm pass simulated %d runs", warm.simulated)
		}
		return
	}
	// One untimed cycle warms the caches both kinds of pass use.
	if _, _, err := cycle(); err != nil {
		return nil, err
	}
	if e.trace {
		err = traceInproc(e, w, res, cycle, fo)
	} else {
		err = timeInproc(e, res, cycle, setup)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// minCycles is the fewest timed cycles an end-to-end run makes, however
// long they take; it fixes the tail percentile at p75.
const minCycles = 40

func timeInproc(e *env, res *result, cycle func() (passOut, passOut, error), setup func() (float64, error)) error {
	var cold, warm, rss, setupSecs []float64
	var cells int
	var coldTotal float64
	self := os.Getpid()
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	for len(cold) < minCycles || time.Now().Before(deadline) {
		if err := setups(setup, &setupSecs); err != nil {
			return err
		}
		resetPeakRSS(self)
		c, w, err := cycle()
		if err != nil {
			return err
		}
		rss = append(rss, peakRSSMB(self))
		cold = append(cold, c.ms)
		warm = append(warm, w.ms)
		cells += c.cells
		coldTotal += c.ms
	}
	pct := tailPct(minCycles)
	tailV := quantile(cold, pct/100)
	e.note("cycles=%d set-ups=%d cold_tail=p%g of %d cold passes (%d beyond)",
		len(cold), len(setupSecs), pct, len(cold), int(float64(len(cold))*(1-pct/100)))
	return fill(res, endToEnd, map[string]float64{
		"setup_s":      median(setupSecs),
		"cold_p50_ms":  median(cold),
		"warm_p50_ms":  median(warm),
		"cold_tail_ms": tailV,
		"cells_per_s":  float64(cells) / (coldTotal / 1e3),
		"peak_rss_mb":  median(rss),
	})
}

// fillOut is the fill pass and, in the traced run, what it wrote.
type fillOut struct {
	out      passOut
	ledger   ledger
	counters obs.Snapshot
	bytes    int64
}

// traceFill runs the fill pass against st, traced when e.trace is set.
func traceFill(e *env, w *inproc, st *runstore.Store) (fillOut, error) {
	f := fillOut{ledger: newLedger()}
	if e.trace {
		obs.Reset()
		obs.Enable()
		obs.EnableTimeline()
	}
	out, err := w.run(st)
	obs.Disable()
	obs.DisableTimeline()
	if err != nil {
		return f, err
	}
	f.out = out
	f.bytes = st.Stats().Bytes
	if e.trace {
		f.counters = obs.TakeSnapshot()
		if err := f.ledger.addTimeline(); err != nil {
			return f, err
		}
	}
	return f, nil
}

// traceInproc alternates untraced and traced cycles for e.seconds and
// reports the per-layer metrics per traced cycle; the store's write
// metrics come from the traced fill pass.
func traceInproc(e *env, w *inproc, res *result, cycle func() (passOut, passOut, error), fo fillOut) error {
	var plain, traced []float64
	counters := map[string]float64{}
	var stepsSim, stepsSaved float64
	var exploreSelf float64
	var explore [3]int
	l, lc, lw := newLedger(), newLedger(), newLedger()
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	for len(traced) < 2 || time.Now().Before(deadline) {
		c, wm, err := cycle()
		if err != nil {
			return err
		}
		plain = append(plain, c.ms+wm.ms)

		obs.Reset()
		metrics.ResetTotalStats()
		obs.Enable()
		obs.EnableTimeline()
		c, wm, err = cycle()
		obs.Disable()
		obs.DisableTimeline()
		if err != nil {
			return err
		}
		traced = append(traced, c.ms+wm.ms)
		if err := l.addTimeline(&lc, &lw); err != nil {
			return err
		}
		for k, v := range obs.TakeSnapshot().Counters {
			counters[k] += float64(v)
		}
		ts := metrics.TotalStats()
		stepsSim += float64(ts.StepsSimulated)
		stepsSaved += float64(ts.StepsSaved)
		exploreSelf += c.exploreSelf + wm.exploreSelf
		for i := range explore {
			explore[i] += c.explore[i] + wm.explore[i]
		}
	}
	n := float64(len(traced))
	cyc := len(traced)
	per := func(k string) float64 { return counters[k] / n }
	ratio := func(a, b float64) float64 {
		if a+b == 0 {
			return 0
		}
		return a / (a + b)
	}
	hits, disk, miss := per("metrics.session.hits"), per("metrics.session.disk_hits"), per("metrics.session.misses")
	gridSteps := per("engine.steps.fluid")
	stepMS := l.layerMS("fluid", cyc)
	stepsPerS := 0.0
	if stepMS > 0 {
		stepsPerS = gridSteps / (stepMS / 1e3)
	}
	puts := float64(fo.counters.Counters["runstore.puts"])
	// The store lives in the checkout, on the real disk, so its own put
	// and get times are the disk figures.
	putMS, getMS := fo.ledger.nameMS("runstore.put", 1), l.nameMS("runstore.get", cyc)
	vals := map[string]float64{
		"ledger.cycle_ms":             l.wall / 1e3 / n,
		"unattributed_frac":           l.unattributed / l.wall,
		"obs.trace_overhead_frac":     median(traced)/median(plain) - 1,
		"experiment.self_ms":          l.layerMS("experiment", cyc),
		"protocol.update_ns":          replayProtocolNs(w.protos),
		"fluid.grid_steps":            gridSteps,
		"fluid.step_ms":               stepMS,
		"fluid.grid_steps_per_s":      stepsPerS,
		"fluid.batched_frac":          ratio(per("engine.sweep.cells.batched"), per("engine.sweep.cells.fallback")),
		"fluid.kernel_ms":             0,
		"nettopo.steps":               per("engine.steps.topo"),
		"nettopo.step_ms":             l.layerMS("nettopo", cyc),
		"packetsim.runs":              per("engine.runs.packet"),
		"packetsim.packets_delivered": 0,
		"packetsim.run_ms":            l.layerMS("packetsim", cyc),
		"packetsim.pkts_per_s":        0,
		"engine.runs":                 per("engine.runs.fluid") + per("engine.runs.packet") + per("engine.runs.net") + per("engine.runs.topo") + per("engine.runs.other"),
		"engine.sweep_self_ms":        l.layerMS("engine", cyc),
		"engine.worker_busy_frac":     l.busy / (l.wall * float64(e.workers)),
		"metrics.self_ms":             l.layerMS("metrics", cyc),
		"metrics.observe_ms":          0,
		"metrics.topo_observe_ms":     0,
		"metrics.session.hits":        hits,
		"metrics.session.disk_hits":   disk,
		"metrics.session.misses":      miss,
		"metrics.session.hit_frac":    ratio(hits+disk, miss),
		"metrics.steps_simulated":     stepsSim / n,
		"metrics.steps_saved":         stepsSaved / n,
		"runstore.self_ms":            l.layerMS("runstore", cyc),
		"runstore.puts":               puts,
		"runstore.hits":               per("runstore.hits"),
		"runstore.misses":             per("runstore.misses"),
		"runstore.put_ms":             putMS,
		"runstore.get_ms":             getMS,
		"runstore.put_bytes":          float64(fo.bytes),
		"runstore.flock_wait_ms":      fo.ledger.nameMS("runstore.flock.wait", 1),
		"runstore.put_ms.disk":        putMS,
		"runstore.get_ms.disk":        getMS,
		"pareto.self_ms":              l.layerMS("pareto", cyc),
		"pareto.cells_evaluated":      float64(explore[0]) / n,
		"pareto.cells_simulated":      float64(explore[1]) / n,
		"pareto.cells_pruned":         float64(explore[2]) / n,
		"pareto.explore_self_ms":      exploreSelf / n,
		"jobd.self_ms":                0,
		"jobd.ttfb_ms":                0,
		"jobd.shard_rtt_ms":           0,
		"jobd.ndjson_bytes":           0,
		"jobd.cells.cached":           0,
		"jobd.cells.simulated":        0,
		"jobd.cells.retried":          0,
		"jobd.jobs.shed":              0,
	}
	if w.replay != nil {
		if err := w.replay(vals); err != nil {
			return err
		}
	}
	e.note("%d untraced + %d traced cycles", len(plain), len(traced))
	e.note("%s", l.summary(cyc))
	e.note("cold pass: %s", lc.summary(cyc))
	e.note("warm pass: %s", lw.summary(cyc))
	if w.cached {
		e.note("fill pass (writes the store): %s", fo.ledger.summary(1))
	}
	if other := l.layer["other"]; other > 0 {
		e.note("spans outside the layer table: %.3f ms per cycle", other/1e3/n)
	}
	e.note("kernel-only replay: fluid.kernel_ms=%.2f of fluid.step_ms=%.2f; observers (replay) metrics.observe_ms=%.2f",
		vals["fluid.kernel_ms"], vals["fluid.step_ms"], vals["metrics.observe_ms"])
	return fill(res, perLayer, vals)
}
