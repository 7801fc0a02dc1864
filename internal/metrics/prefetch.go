package metrics

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/engine"
	"repro/internal/fluid"
	"repro/internal/protocol"
)

// RunSet describes the streamed runs one estimator call performs: one
// sender per protocol in Protos on Cfg, over the default (or configured)
// initial-window vectors. Efficiency(cfg, p, n, opt) is {Cfg: cfg,
// Protos: n copies of p}; Friendliness(cfg, p, q, nP, nQ, opt) is
// {Cfg: cfg, Protos: nP ps followed by nQ qs}. The keys Prefetch derives
// are identical to the ones those estimators derive, because both go
// through the same runKey on the same inputs.
type RunSet struct {
	Cfg    fluid.Config
	Protos []protocol.Protocol
}

// Prefetch resolves every streamed run of the given run-sets through
// opt.Session in one batch: all cache misses across all sets reach
// engine.SweepSpecs together, so lockstep-compatible cells (kernelized
// protocols, synchronized feedback) advance as one structure-of-arrays
// block regardless of which estimator call they belong to. Estimator
// calls made afterwards with the same Options and Session are pure
// memory hits.
//
// The returned slice is parallel to sets: simulated[i] is true when at
// least one of set i's runs was actually executed by this call (a cache
// miss or an uncacheable run), false when every run came from the
// session's memory, the persistent store, or a concurrent claimant.
// Explore's cells-simulated accounting — and its warm-store "zero cells"
// property — is measured through these flags.
func Prefetch(sets []RunSet, opt Options) (simulated []bool, err error) {
	o := opt.withDefaults()
	if o.Session == nil {
		return nil, errors.New("metrics: Prefetch requires Options.Session")
	}
	var (
		g     streamGrid
		owner []int
	)
	for si, set := range sets {
		if len(set.Protos) == 0 {
			return nil, fmt.Errorf("metrics: run-set %d has no protocols", si)
		}
		g.add(set.Cfg, set.Protos, o)
		for len(owner) < len(g.keys) {
			owner = append(owner, si)
		}
	}
	_, flags, err := g.resolve(o)
	if err != nil {
		return nil, err
	}
	simulated = make([]bool, len(sets))
	for i, f := range flags {
		if f {
			simulated[owner[i]] = true
		}
	}
	return simulated, nil
}

// streamGrid is a batch of streamed fluid runs: one cell per (run-set,
// initial configuration), with its content key. Sender slices are built
// serially up front (protocol cloning is not required to be
// goroutine-safe).
type streamGrid struct {
	subs      []*engine.FluidSpec
	keys      []string
	cacheable []bool
}

// add appends one cell per initial configuration of len(protos) senders
// running protos on cfg.
func (g *streamGrid) add(cfg fluid.Config, protos []protocol.Protocol, o Options) {
	inits := o.initConfigs(cfg.Capacity(), len(protos))
	g.subs = slices.Grow(g.subs, len(inits))
	g.keys = slices.Grow(g.keys, len(inits))
	g.cacheable = slices.Grow(g.cacheable, len(inits))
	for _, init := range inits {
		g.subs = append(g.subs, &engine.FluidSpec{Cfg: cfg, Senders: fluid.MixedSenders(protos, init), Steps: o.Steps})
		k, c := runKey(cfg, protos, init, o, keyStream)
		g.keys = append(g.keys, k)
		g.cacheable = append(g.cacheable, c)
	}
}

// resolve returns every cell's frozen summary. The cells that actually
// need simulating go through engine.SweepSpecs as one grid, so
// kernel-steppable cells advance in lockstep (the SoA batch path) while
// the rest shard across the worker pool per cell; when o.Session is set,
// cached cells are skipped first (see resolve, whose simulated flags are
// the second return). Results are bit-identical on every path.
func (g *streamGrid) resolve(o Options) ([]*StreamSummary, []bool, error) {
	return resolve(o.Session, g.keys, g.cacheable, o.Steps, streamCodec, func(miss []int) ([]*StreamSummary, error) {
		specs := make([]engine.Spec, len(miss))
		streams := make([]*Stream, len(miss))
		for j, i := range miss {
			streams[j] = NewStream(g.subs[i].Meta(), o.TailFrac)
			specs[j] = engine.Spec{
				Substrate: g.subs[i],
				Observers: []engine.Observer{streams[j]},
				Chaos:     o.Chaos,
				ChaosSeed: o.ChaosSeed,
			}
		}
		if _, err := engine.SweepSpecs(context.Background(), specs, engine.SweepConfig{Workers: o.Workers}); err != nil {
			return nil, err
		}
		sums := make([]*StreamSummary, len(streams))
		for j, st := range streams {
			sums[j] = st.Summary()
		}
		return sums, nil
	})
}
