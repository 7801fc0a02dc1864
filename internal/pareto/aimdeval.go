package pareto

import (
	"context"
	"fmt"

	"repro/internal/fluid"
	"repro/internal/metrics"
	"repro/internal/protocol"
)

// AIMDEvaluator returns a CellEvaluator measuring AIMD(α, β) cells in
// the 2-objective plane (efficiency, TCP-friendliness) on cfg — the
// empirical face of Figure 1's tradeoff: gentler backoff (higher β)
// buys efficiency at the price of crowding out Reno, so the frontier is
// a genuine curve through the (α, β) box rather than the whole box.
// Both objectives are oriented higher-is-better, so results feed
// Explore's dominance machinery directly.
//
// Each batch resolves in one metrics.ResolveRuns call: every cell's
// homogeneous efficiency runs and p-vs-Reno friendliness runs, over the
// default initial configurations, go through the session together, so
// cache misses across cells advance as one engine batch on the SoA fast
// path (AIMD is kernelized). Each cell's two scores then fold from its
// summaries with metrics.EfficiencyMetric and metrics.FriendlinessMetric,
// the folds metrics.Efficiency and metrics.TCPFriendliness use, so the
// coordinates are bit-identical to a dense characterization of the same
// cells. A cell counts as Simulated when any of its runs actually
// executed; on a warm store every flag is false.
//
// The evaluator owns a Session when opt doesn't carry one (inheriting
// the process default store, if installed), so repeated rounds — and
// repeated Explore calls against the same evaluator — share runs.
func AIMDEvaluator(cfg fluid.Config, opt metrics.Options) CellEvaluator {
	opt = opt.WithSession()
	friendly := metrics.FriendlinessMetric([]int{0}, []int{1})
	return func(ctx context.Context, cells []Cell) ([]CellResult, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sets := make([]metrics.RunSet, 0, 2*len(cells))
		for _, c := range cells {
			if !(c.Alpha > 0) || !(c.Beta > 0) || !(c.Beta < 1) {
				return nil, fmt.Errorf("pareto: AIMD cell (α=%v, β=%v) outside α>0, 0<β<1", c.Alpha, c.Beta)
			}
			p := protocol.NewAIMD(c.Alpha, c.Beta)
			sets = append(sets,
				metrics.RunSet{Cfg: cfg, Protos: []protocol.Protocol{p}},
				metrics.RunSet{Cfg: cfg, Protos: []protocol.Protocol{p, protocol.Reno()}},
			)
		}
		sums, sim, err := metrics.ResolveRuns(sets, opt)
		if err != nil {
			return nil, err
		}
		out := make([]CellResult, len(cells))
		for i := range cells {
			out[i] = CellResult{
				Coords:    []float64{metrics.EfficiencyMetric.Worst(sums[2*i]), friendly.Worst(sums[2*i+1])},
				Simulated: sim[2*i] || sim[2*i+1],
			}
		}
		return out, nil
	}
}
