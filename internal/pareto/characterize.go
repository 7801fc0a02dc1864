package pareto

import (
	"context"

	"repro/internal/engine"
	"repro/internal/fluid"
	"repro/internal/metrics"
	"repro/internal/protocol"
)

// CharacterizeAll scores every protocol's empirical 8-tuple with n senders
// on cfg and returns the oriented points (higher-is-better coordinates,
// labeled by protocol name, ready for Frontier) alongside the raw score
// tuples, index-aligned with protos.
//
// Protocols are independent sweep cells (opt.Workers caps the pool, and
// each cell's inner runs stay serial). All cells share one
// run-deduplication session, so runs that recur across protocols
// simulate exactly once per call rather than once per use.
func CharacterizeAll(cfg fluid.Config, protos []protocol.Protocol, n int, opt metrics.Options) ([]Point, []metrics.Scores, error) {
	cellOpt := opt.SweepCell()
	scores, err := engine.Sweep(context.Background(), len(protos), engine.SweepConfig{Workers: opt.Workers},
		func(ctx context.Context, i int, _ uint64) (metrics.Scores, error) {
			return metrics.Characterize(cfg, protos[i], n, cellOpt)
		})
	if err != nil {
		return nil, nil, err
	}
	pts := make([]Point, len(protos))
	for i, s := range scores {
		pts[i] = Point{Label: protos[i].Name(), Coords: OrientScores(s)}
	}
	return pts, scores, nil
}
