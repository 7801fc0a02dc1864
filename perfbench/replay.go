package main

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/fluid"
	"repro/internal/metrics"
	"repro/internal/nettopo"
	"repro/internal/protocol"
)

// Replays measure layers that run only inside the program (the protocol
// update, the fluid.Batch kernel, the metrics observers) by driving the
// same public entry points with inputs of the same shape, serially and
// outside any timed pass. Each returns a cost per unit of work; the
// per-layer metrics scale it by the work the traced cycle counted.

// replayProtocolNs returns the mean cost of one Protocol.Next call over
// protos, on a synthetic feedback loop that visits both the increase and
// the decrease branch.
func replayProtocolNs(protos []protocol.Protocol) float64 {
	const calls = 200_000
	var total time.Duration
	for _, p := range protos {
		p = p.Clone()
		w := 10.0
		start := time.Now()
		for t := 0; t < calls; t++ {
			loss := 0.0
			if w > 100 {
				loss = 0.05
			}
			w = protocol.Clamp(p.Next(protocol.Feedback{Step: t, Window: w, RTT: 0.042 * (1 + w/200), Loss: loss}), 1000)
		}
		total += time.Since(start)
	}
	return float64(total.Nanoseconds()) / float64(calls*len(protos))
}

// replayKernelRate returns fluid.Batch grid steps per second for one
// cell per protocol on cfg with n senders, stepping the kernel alone.
func replayKernelRate(cfg fluid.Config, protos []protocol.Protocol, n int) (float64, error) {
	const steps = 4000
	cells := make([]fluid.BatchCell, len(protos))
	for i, p := range protos {
		senders := make([]fluid.Sender, n)
		for j := range senders {
			senders[j] = fluid.Sender{Proto: p.Clone(), Init: float64(1 + 10*j)}
		}
		cells[i] = fluid.BatchCell{Cfg: cfg, Senders: senders}
	}
	b, err := fluid.NewBatch(cells)
	if err != nil {
		return 0, fmt.Errorf("kernel replay: %w", err)
	}
	start := time.Now()
	for s := 0; s < steps; s++ {
		b.Step()
	}
	return float64(len(cells)*steps) / time.Since(start).Seconds(), nil
}

// replayObserveNs returns the cost of one step observed by a
// metrics.Stream with n flows, fed in strips as the batched path does.
func replayObserveNs(n int) float64 {
	const steps, strip = 4000, 64
	st := metrics.NewStream(engine.Meta{Flows: n, Capacity: 100, BaseRTT: 0.042, Horizon: steps}, 0)
	windows := make([]float64, n*strip)
	totals := make([]float64, strip)
	rtt := make([]float64, strip)
	loss := make([]float64, strip)
	for k := 0; k < strip; k++ {
		for i := 0; i < n; i++ {
			windows[i*strip+k] = float64(10 + i + k)
			totals[k] += windows[i*strip+k]
		}
		rtt[k], loss[k] = 0.05, 0.01
	}
	start := time.Now()
	for s := 0; s < steps; s += strip {
		st.ObserveStrip(engine.Strip{Start: s, Count: strip, Flows: n, Windows: windows, Totals: totals, RTT: rtt, Loss: loss})
	}
	return float64(time.Since(start).Nanoseconds()) / steps
}

// replayTopoObserveNs returns the cost of one step observed by a
// metrics.TopoStream on the first experiment.TopoShapes topology.
func replayTopoObserveNs() (float64, error) {
	const steps = 4000
	shapes, err := experiment.TopoShapes()
	if err != nil {
		return 0, err
	}
	sh := shapes[0]
	st := metrics.NewTopoStream(sh.Links, sh.Flows, steps, 0)
	f, l := len(sh.Flows), len(sh.Links)
	res := &nettopo.StepResult{
		Windows: make([]float64, f), FlowRTT: make([]float64, f), FlowLoss: make([]float64, f),
		LinkLoad: make([]float64, l), LinkLoss: make([]float64, l),
	}
	for i := range res.Windows {
		res.Windows[i], res.FlowRTT[i], res.FlowLoss[i] = float64(10+i), 0.05, 0.01
	}
	for i := range res.LinkLoad {
		res.LinkLoad[i], res.LinkLoss[i] = 0.9, 0.01
	}
	start := time.Now()
	for s := 0; s < steps; s++ {
		st.Observe(engine.Step{Index: s, Windows: res.Windows, Topo: res})
	}
	return float64(time.Since(start).Nanoseconds()) / steps, nil
}
