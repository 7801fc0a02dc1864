package engine

import (
	"context"
	"fmt"

	"repro/internal/chaos"
	"repro/internal/fluid"
	"repro/internal/nettopo"
	"repro/internal/packetsim"
)

// compileChaos builds the spec's injector for a substrate shape, or nil
// when the spec carries no schedule.
func compileChaos(spec *Spec, flows, links int) (*chaos.Injector, error) {
	if spec.Chaos == nil {
		return nil, nil
	}
	return spec.Chaos.Compile(spec.ChaosSeed, flows, links)
}

// FluidSpec runs the §2 fluid-flow link for Steps synchronized steps.
// Observers see, step by step, the windows, RTT and congestion loss that
// fluid.New(Cfg, Senders...).Step() returns.
type FluidSpec struct {
	Cfg     fluid.Config
	Senders []fluid.Sender
	Steps   int
}

// Meta implements Substrate.
func (s *FluidSpec) Meta() Meta {
	return Meta{
		Flows:    len(s.Senders),
		Capacity: s.Cfg.Capacity(),
		BaseRTT:  s.Cfg.BaseRTT(),
		Horizon:  s.Steps,
	}
}

func (s *FluidSpec) run(ctx context.Context, spec Spec) (*Result, error) {
	if s.Steps < 0 {
		return nil, fmt.Errorf("engine: fluid run of %d steps: horizon must be non-negative", s.Steps)
	}
	outs := runFluid(ctx, []*Spec{&spec}, false)
	if outs == nil {
		return nil, ctx.Err()
	}
	return outs[0].res, outs[0].err
}

// PacketSpec runs the packet-level testbed for Duration seconds.
// Observers see one step per sampling tick; the delivery counters are
// always kept, so Result.Packet.Throughput needs no observer.
type PacketSpec struct {
	Cfg      packetsim.Config
	Flows    []packetsim.Flow
	Duration float64
}

// Meta implements Substrate. Horizon is the expected tick count, a ±1
// hint — observers sizing tail buffers should add slack.
func (s *PacketSpec) Meta() Meta {
	return Meta{
		Flows:    len(s.Flows),
		Capacity: s.Cfg.Capacity(),
		BaseRTT:  2 * s.Cfg.PropDelay,
		Horizon:  int(s.Duration/s.Cfg.SampleTick()) + 1,
	}
}

func (s *PacketSpec) run(ctx context.Context, spec Spec) (*Result, error) {
	cfg := s.Cfg
	inj, err := compileChaos(&spec, len(s.Flows), 1)
	if err != nil {
		return nil, err
	}
	if inj != nil {
		cfg.Perturb = inj
	}
	var obs func(packetsim.TickSample)
	if len(spec.Observers) > 0 {
		obs = func(t packetsim.TickSample) {
			total := 0.0
			for _, w := range t.Windows {
				total += w
			}
			emit(&spec, Step{Index: t.Index, Windows: t.Windows, Total: total, RTT: t.RTT, Loss: t.Loss})
		}
	}
	res, err := packetsim.RunObserved(ctx, cfg, s.Flows, s.Duration, obs)
	if err != nil {
		return nil, err
	}
	steps := 0
	if len(res.DeliveredSeries) > 0 {
		steps = len(res.DeliveredSeries[0])
	}
	return &Result{Packet: res, Steps: steps}, nil
}

// TopoSpec runs a conservation-law network over an arbitrary DAG
// topology (internal/nettopo) for Steps synchronized steps. Observers
// receive the full *nettopo.StepResult via Step.Topo (metrics.TopoStream
// reduces the stream to a TopoSummary).
type TopoSpec struct {
	Links []nettopo.LinkSpec
	Flows []nettopo.FlowSpec
	Opts  []nettopo.Option
	Steps int
}

// Meta implements Substrate. Capacity and BaseRTT are zero: a network
// has no single bottleneck; observers needing them consult Step.Topo per
// link (metrics.TopoStream attributes each flow to its own bottleneck).
func (s *TopoSpec) Meta() Meta {
	return Meta{Flows: len(s.Flows), Horizon: s.Steps}
}

func (s *TopoSpec) run(ctx context.Context, spec Spec) (*Result, error) {
	if s.Steps < 0 {
		return nil, fmt.Errorf("engine: topology run of %d steps: horizon must be non-negative", s.Steps)
	}
	opts := s.Opts
	inj, err := compileChaos(&spec, len(s.Flows), len(s.Links))
	if err != nil {
		return nil, err
	}
	if inj != nil {
		opts = append(append([]nettopo.Option(nil), s.Opts...), nettopo.WithPerturber(inj))
	}
	n, err := nettopo.New(s.Links, s.Flows, opts...)
	if err != nil {
		return nil, err
	}
	var obs func(*nettopo.StepResult)
	if from := firstObserved(spec.Observers, s.Steps); from < s.Steps {
		obs = func(res *nettopo.StepResult) {
			if res.Step < from {
				return
			}
			total := 0.0
			for _, w := range res.Windows {
				total += w
			}
			emit(&spec, Step{Index: res.Step, Windows: res.Windows, Total: total, Topo: res})
		}
	}
	if err := n.RunObserved(ctx, s.Steps, obs); err != nil {
		return nil, err
	}
	return &Result{Steps: s.Steps}, nil
}
