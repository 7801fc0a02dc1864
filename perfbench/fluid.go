package main

import (
	"context"
	"time"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pareto"
	"repro/internal/protocol"
)

// evalSpan wraps each call into the pareto.Explore cell evaluator; the
// evaluator resolves cells through metrics.Prefetch and the estimators,
// so the ledger counts its self time as the metrics layer.
const evalSpan = "bench.pareto.eval"

// exploreCoarse and exploreRounds size the Explore pass below
// pareto.ExploreConfig's defaults (coarse 7, 3 rounds), so that one cold
// pass stays near 0.3 s. On a 2-core VM a cold Explore over this link
// took 136 ms for 69 cells at this size and 702 ms for 311 cells at the
// defaults, which would make a timed cycle about 1.3 s and a run of
// minCycles cycles longer than the benchmark's time budget allows. Both
// sizes run successive halving (every round refines only the ring
// around the frontier) and prune the same one cell by dominance.
const (
	exploreCoarse = 4
	exploreRounds = 2
)

func addScores(d *digest, s metrics.Scores) {
	d.add(s.Efficiency, s.FastUtilization, s.LossAvoidance, s.Fairness,
		s.Convergence, s.Robustness, s.TCPFriendliness, s.LatencyAvoidance)
}

// runFluid is the fluid-characterize workload: Table1Empirical on a
// seeded link, TopoAxioms over the built-in multi-bottleneck shapes, and
// one pareto.Explore over the AIMD box, cold and then warm.
func runFluid(e *env) (*result, error) {
	in := genFluid(e.seed)
	t1cfg := experiment.FluidLink(in.Table1Mbps, in.Table1Buffer)
	excfg := experiment.FluidLink(exploreMbps, exploreBuffer)
	e.note("inputs: table1 %g Mbps buffer %g n=%d; explore %g Mbps buffer %g coarse=%d rounds=%d; workers=%d",
		in.Table1Mbps, in.Table1Buffer, table1N, exploreMbps, exploreBuffer, exploreCoarse, exploreRounds, e.workers)

	pass := func(sess *metrics.Session) (passOut, error) {
		var out passOut
		var d digest
		opt := metrics.Options{Session: sess, Workers: e.workers}

		sp := obs.StartLeafSpan("experiment.Table1Empirical")
		rows, err := experiment.Table1Empirical(t1cfg, table1N, opt)
		sp.End()
		if err != nil {
			return out, err
		}
		for _, r := range rows {
			d.addString(r.Name)
			addScores(&d, r.Empirical)
		}
		out.cells += len(rows)

		sp = obs.StartLeafSpan("experiment.TopoAxioms")
		trows, err := experiment.TopoAxioms(opt)
		sp.End()
		if err != nil {
			return out, err
		}
		for _, r := range trows {
			s := r.Scores
			d.addString(r.Protocol + "@" + r.Topology)
			d.add(s.Efficiency, s.FastUtilization, s.LossAvoidance, s.Fairness,
				s.Convergence, s.Robustness, s.TCPFriendliness, s.LatencyAvoidance)
		}
		out.cells += len(trows)

		eval := pareto.AIMDEvaluator(excfg, opt)
		var inEval time.Duration
		wrapped := func(ctx context.Context, cells []pareto.Cell) ([]pareto.CellResult, error) {
			sp := obs.StartLeafSpan(evalSpan)
			start := time.Now()
			r, err := eval(ctx, cells)
			inEval += time.Since(start)
			sp.End()
			return r, err
		}
		sp = obs.StartLeafSpan("pareto.Explore")
		start := time.Now()
		ex, err := pareto.Explore(context.Background(), pareto.ExploreConfig{
			Coarse: exploreCoarse, Rounds: exploreRounds, Eval: wrapped,
		})
		wall := time.Since(start)
		sp.End()
		if err != nil {
			return out, err
		}
		out.exploreSelf = ms(wall - inEval)
		out.explore = [3]int{ex.Stats.CellsEvaluated, ex.Stats.CellsSimulated, ex.Stats.CellsPruned}
		for _, p := range ex.Points {
			d.add(p.Alpha, p.Beta)
			d.add(p.Coords...)
		}
		for _, p := range ex.Frontier {
			d.add(p.Alpha, p.Beta)
		}
		out.cells += ex.Stats.CellsEvaluated
		out.digest = d.sum()
		return out, nil
	}

	protos := experiment.Table1Protocols()
	w := &inproc{
		pass:   pass,
		protos: append(protos, protocol.NewAIMD(1, 0.6)),
		replay: func(vals map[string]float64) error {
			rate, err := replayKernelRate(t1cfg, protos, table1N)
			if err != nil {
				return err
			}
			vals["fluid.kernel_ms"] = vals["fluid.grid_steps"] / rate * 1e3
			// Most fluid cells of the pass (Explore's) carry one or two
			// flows; the replay prices a two-flow stream.
			vals["metrics.observe_ms"] = vals["fluid.grid_steps"] * replayObserveNs(2) / 1e6
			topoNs, err := replayTopoObserveNs()
			if err != nil {
				return err
			}
			vals["metrics.topo_observe_ms"] = vals["nettopo.steps"] * topoNs / 1e6
			return nil
		},
		cached: true,
	}
	return runInproc(e, w)
}
