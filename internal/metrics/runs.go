package metrics

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/fluid"
	"repro/internal/protocol"
)

// RunSet describes the streamed runs one score needs: one sender per
// protocol in Protos on Cfg, from each initial configuration of the
// Options. Efficiency is {cfg, n copies of p}; Friendliness is {cfg, nP
// ps followed by nQ qs}.
type RunSet struct {
	Cfg    fluid.Config
	Protos []protocol.Protocol
}

// ResolveRuns resolves every streamed run of the sets, one per initial
// configuration of opt (its InitConfigs, else the defaults for the set),
// and returns each set's frozen summaries in that order. The runs
// resolve through opt.Session when set, and all those left to simulate,
// across every set, reach engine.SweepSpecs as one grid, so cells
// advance in lockstep whichever set they belong to. No trace is
// materialized. Summaries may be shared with the session: treat them as
// read-only.
//
// simulated[i] is true when this call executed at least one of set i's
// runs (a cache miss, an uncacheable run, or any run without a
// Session), false when each came from memory, the persistent store or a
// concurrent claimant. Explore counts simulated cells, and its warm
// store's zero, through these flags.
func ResolveRuns(sets []RunSet, opt Options) (sums [][]*StreamSummary, simulated []bool, err error) {
	o := opt.withDefaults()
	var (
		subs      []*engine.FluidSpec
		keys      []string
		cacheable []bool
		end       = make([]int, len(sets)) // one past each set's last cell
	)
	// Senders are built serially: protocol cloning need not be goroutine-safe.
	for si, set := range sets {
		if len(set.Protos) == 0 {
			return nil, nil, fmt.Errorf("metrics: run-set %d has no protocols", si)
		}
		for _, init := range o.initConfigs(set.Cfg.Capacity(), len(set.Protos)) {
			subs = append(subs, &engine.FluidSpec{Cfg: set.Cfg, Senders: fluid.MixedSenders(set.Protos, init), Steps: o.Steps})
			k, c := runKey(set.Cfg, set.Protos, init, o, keyStream)
			keys = append(keys, k)
			cacheable = append(cacheable, c)
		}
		end[si] = len(keys)
	}
	flat, flags, err := resolve(o.Session, keys, cacheable, o.Steps, o.Workers, streamCodec, func(miss []int) ([]*StreamSummary, error) {
		specs := make([]engine.Spec, len(miss))
		streams := make([]*Stream, len(miss))
		for j, i := range miss {
			streams[j] = NewStream(subs[i].Meta(), o.TailFrac)
			specs[j] = engine.Spec{
				Substrate: subs[i],
				Observers: []engine.Observer{streams[j]},
				Chaos:     o.Chaos,
				ChaosSeed: o.ChaosSeed,
			}
		}
		if _, err := engine.SweepSpecs(context.Background(), specs, engine.SweepConfig{Workers: o.Workers}); err != nil {
			return nil, err
		}
		// Each worker froze its cells' summaries (engine.Finisher), so
		// reading them is free and the rings can serve the next grid.
		out := make([]*StreamSummary, len(streams))
		for j, st := range streams {
			out[j] = st.Summary()
			st.Release()
		}
		return out, nil
	})
	if err != nil {
		return nil, nil, err
	}
	sums = make([][]*StreamSummary, len(sets))
	simulated = make([]bool, len(sets))
	start := 0
	for si := range sets {
		sums[si] = flat[start:end[si]:end[si]]
		for i := start; i < end[si]; i++ {
			simulated[si] = simulated[si] || flags == nil || flags[i]
		}
		start = end[si]
	}
	return sums, simulated, nil
}

// StreamRuns is ResolveRuns for one run-set: one streamed run per
// initial configuration of opt with one sender per entry of protos —
// homogeneous estimators pass n copies of one protocol, Friendliness
// its mix — and each run's frozen summary in that order.
func StreamRuns(cfg fluid.Config, protos []protocol.Protocol, opt Options) ([]*StreamSummary, error) {
	sums, _, err := ResolveRuns([]RunSet{{Cfg: cfg, Protos: protos}}, opt)
	if err != nil {
		return nil, err
	}
	return sums[0], nil
}
