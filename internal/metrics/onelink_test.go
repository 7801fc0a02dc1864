package metrics

import (
	"context"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/fluid"
	"repro/internal/nettopo"
	"repro/internal/protocol"
	"repro/internal/rand64"
)

// protocolFamilies are the seeded protocol generators the randomized
// bit-identity tests draw from, one per family of the paper's Table 1.
var protocolFamilies = []struct {
	name string
	make func(rng *rand64.Source) protocol.Protocol
}{
	{"reno", func(*rand64.Source) protocol.Protocol { return protocol.Reno() }},
	{"cubic", func(*rand64.Source) protocol.Protocol { return protocol.CubicLinux() }},
	{"aimd", func(rng *rand64.Source) protocol.Protocol {
		return protocol.NewAIMD(rng.Range(0.5, 4), rng.Range(0.3, 0.9))
	}},
	{"mimd", func(*rand64.Source) protocol.Protocol { return protocol.Scalable() }},
	{"binomial", func(*rand64.Source) protocol.Protocol { return protocol.SQRT() }},
	{"robust-aimd", func(rng *rand64.Source) protocol.Protocol {
		return protocol.NewRobustAIMD(1, rng.Range(0.5, 0.9), 0.01)
	}},
}

// TestOneLinkTopoMatchesFluid pins "the multi-bottleneck axioms reduce
// to the paper's on one link" as a checked fact: a seeded random
// single-bottleneck configuration (C, τ, n, protocol family, initial
// windows) run through the fluid substrate and scored by Stream, and the
// same configuration run as a one-link nettopo network and scored by
// TopoStream, agree bit for bit on all six shared estimators and on
// every flow's tail window and goodput.
func TestOneLinkTopoMatchesFluid(t *testing.T) {
	const steps, tail = 1500, DefaultTailFrac
	rng := rand64.New(20171130)
	for trial := 0; trial < 24; trial++ {
		fam := protocolFamilies[trial%len(protocolFamilies)]
		theta := rng.Range(0.005, 0.05)
		capacity := rng.Range(20, 400) // C = B·2Θ, MSS
		cfg := fluid.Config{
			Bandwidth: capacity / (2 * theta),
			PropDelay: theta,
			Buffer:    math.Floor(rng.Range(0, 2*capacity)),
		}
		n := 2 + rng.Intn(3)
		proto := fam.make(rng)
		senders := make([]fluid.Sender, n)
		flows := make([]nettopo.FlowSpec, n)
		for i := range senders {
			init := math.Floor(rng.Range(1, capacity))
			senders[i] = fluid.Sender{Proto: proto.Clone(), Init: init}
			flows[i] = nettopo.FlowSpec{Proto: proto, Init: init, Path: []int{0}}
		}
		links := []nettopo.LinkSpec{{Bandwidth: cfg.Bandwidth, PropDelay: cfg.PropDelay, Buffer: cfg.Buffer}}

		fl := &engine.FluidSpec{Cfg: cfg, Senders: senders, Steps: steps}
		st := NewStream(fl.Meta(), tail)
		if _, err := engine.Run(context.Background(), engine.Spec{Substrate: fl, Observers: []engine.Observer{st}}); err != nil {
			t.Fatal(err)
		}
		ts := NewTopoStream(links, flows, steps, tail)
		if _, err := engine.Run(context.Background(), engine.Spec{
			Substrate: &engine.TopoSpec{Links: links, Flows: flows, Steps: steps},
			Observers: []engine.Observer{ts},
		}); err != nil {
			t.Fatal(err)
		}

		ss, tsum := st.Summary(), ts.Summary()
		q := make([]int, n-1)
		for i := range q {
			q[i] = i + 1
		}
		pairs := []struct {
			name        string
			fluid, topo float64
		}{
			{"efficiency", ss.Efficiency, tsum.Efficiency()},
			{"loss", ss.LossAvoidance, tsum.LossAvoidance()},
			{"fairness", ss.Fairness(), tsum.Fairness()},
			{"convergence", ss.Convergence, tsum.Convergence},
			{"friendliness", ss.Friendliness([]int{0}, q), tsum.Friendliness([]int{0}, q)},
			{"latency", ss.LatencyAvoidance, tsum.LatencyAvoidance()},
		}
		for i := 0; i < n; i++ {
			pairs = append(pairs,
				struct {
					name        string
					fluid, topo float64
				}{"avg window", ss.AvgWindows[i], tsum.AvgWindows[i]},
				struct {
					name        string
					fluid, topo float64
				}{"avg goodput", ss.AvgGoodputs[i], tsum.AvgGoodputs[i]})
		}
		for _, p := range pairs {
			if math.Float64bits(p.fluid) != math.Float64bits(p.topo) {
				t.Errorf("trial %d (%s, C=%.1f τ=%v n=%d): %s fluid %v, one-link nettopo %v",
					trial, fam.name, capacity, cfg.Buffer, n, p.name, p.fluid, p.topo)
			}
		}
	}
}
