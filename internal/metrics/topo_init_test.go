package metrics

import (
	"context"
	"testing"

	"repro/internal/nettopo"
	"repro/internal/protocol"
)

// TestCharacterizeTopoHonorsInitConfigs: Options.InitConfigs replaces the
// default starts on a topology exactly as on one link. MIMD preserves
// window ratios, so a skewed and an equal start must score differently,
// and with a single init config each score is that one run's estimator
// value — checked against RunTopo folded by hand.
func TestCharacterizeTopoHonorsInitConfigs(t *testing.T) {
	theta := 0.021
	links := []nettopo.LinkSpec{{Bandwidth: 100 / (2 * theta), PropDelay: theta, Buffer: 20}}
	flows := []nettopo.FlowSpec{{Path: []int{0}}, {Path: []int{0}}}
	p := protocol.NewMIMD(1.01, 0.5)
	run := func(protos []protocol.Protocol, init []float64, o Options) *TopoSummary {
		fl := make([]nettopo.FlowSpec, len(flows))
		for i := range fl {
			fl[i] = flows[i]
			fl[i].Proto = protos[i]
			fl[i].Init = init[i]
		}
		st, err := RunTopo(context.Background(), TopoRunSpec{Links: links, Flows: fl, Steps: o.Steps})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	var got [2]Scores
	for k, init := range [][]float64{{1, 40}, {20, 20}} {
		o := Options{Steps: 1500, InitConfigs: [][]float64{init}}
		s, err := CharacterizeTopo(links, flows, p, o)
		if err != nil {
			t.Fatal(err)
		}
		got[k] = s
		hom := run([]protocol.Protocol{p, p}, init, o)
		mix := run([]protocol.Protocol{p, protocol.Reno()}, init, o)
		want := Scores{
			Efficiency:       hom.Efficiency(),
			LossAvoidance:    hom.LossAvoidance(),
			Fairness:         hom.Fairness(),
			Convergence:      hom.Convergence,
			TCPFriendliness:  mix.Friendliness([]int{0}, []int{1}),
			LatencyAvoidance: hom.LatencyAvoidance(),
		}
		if want.FastUtilization, err = FastUtilization(p, o); err != nil {
			t.Fatal(err)
		}
		if want.Robustness, err = Robustness(p, 0.5, 1e-3, o); err != nil {
			t.Fatal(err)
		}
		if !scoresBitsEqual(s, want) {
			t.Errorf("init %v:\n got  %v\n want %v (hand-folded RunTopo)", init, s, want)
		}
	}
	if scoresBitsEqual(got[0], got[1]) {
		t.Errorf("skewed and equal starts scored identically: %v", got[0])
	}
}

// TestCharacterizeTopoNoFlows: an empty flow set is an error, not a panic.
func TestCharacterizeTopoNoFlows(t *testing.T) {
	links := []nettopo.LinkSpec{{Bandwidth: 1000, PropDelay: 0.021, Buffer: 20}}
	if _, err := CharacterizeTopo(links, nil, protocol.Reno(), Options{Steps: 100}); err == nil {
		t.Fatal("CharacterizeTopo accepted zero flows")
	}
}
