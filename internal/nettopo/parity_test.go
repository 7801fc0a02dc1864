package nettopo_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/nettopo"
	"repro/internal/protocol"
	"repro/internal/scenario"
)

// TestChainMatchesMultilink is the stepper half of the parity anchor: an
// anonymous-link chain reproduces the trajectories the retired multilink
// substrate produced for the same specs, bit for bit and step for step,
// stochastic mode included, and the TopoStream summary of the run holds
// its per-flow tail means (testdata/multilink_parity.json).
func TestChainMatchesMultilink(t *testing.T) {
	const hops, steps = 3, 800
	fx := nettopo.LoadParityFixture(t)
	theta := 0.021
	link := nettopo.LinkSpec{Bandwidth: 100 / (2 * theta), PropDelay: theta, Buffer: 20}
	links := []nettopo.LinkSpec{link, link, link}
	flows := []nettopo.FlowSpec{{Proto: protocol.Reno(), Init: 1, Path: []int{0, 1, 2}}}
	for i := 0; i < hops; i++ {
		flows = append(flows, nettopo.FlowSpec{Proto: protocol.NewAIMD(1, 0.7), Init: 30, Path: []int{i}})
	}
	for _, seed := range []uint64{0, 7} {
		var opts []nettopo.Option
		name := "deterministic"
		if seed != 0 {
			opts = append(opts, nettopo.WithStochasticLoss(seed))
			name = "stochastic"
		}
		want, ok := fx.Chain[name]
		if !ok {
			t.Fatalf("fixture has no %s chain", name)
		}
		h := sha256.New()
		var buf [8]byte
		put := func(v float64) {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
		digest := engine.ObserverFunc(func(st engine.Step) {
			r := st.Topo
			for f := range r.Windows {
				put(r.Windows[f])
				put(r.FlowLoss[f])
				put(r.FlowRTT[f])
			}
			for l := range r.LinkLoss {
				put(r.LinkLoss[l])
				put(r.LinkRTT[l])
				put(r.LinkLoad[l])
			}
		})
		stream := metrics.NewTopoStream(links, flows, steps, 0.75)
		if _, err := engine.Run(context.Background(), engine.Spec{
			Substrate: &engine.TopoSpec{Links: links, Flows: flows, Opts: opts, Steps: steps},
			Observers: []engine.Observer{digest, stream},
		}); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != want.Trajectory {
			t.Errorf("%s: trajectory digest %s, fixture %s", name, got, want.Trajectory)
		}
		sum := stream.Summary()
		for f := range flows {
			nettopo.CheckBits(t, fmt.Sprintf("%s flow %d avg window", name, f), sum.AvgWindows[f], want.AvgWindow[f])
			nettopo.CheckBits(t, fmt.Sprintf("%s flow %d avg goodput", name, f), sum.AvgGoodputs[f], want.AvgGoodput[f])
		}
	}
}

// TestParkingLotParityGolden is the end-to-end parity anchor: the
// shipped parking-lot scenario, run as "nettopo", reproduces, bit for
// bit, every per-flow summary and every shared summary key the retired
// multilink substrate produced (testdata/multilink_parity.json). Any
// drift in nettopo's step arithmetic, the scenario wiring, or the
// TopoStream ring accounting breaks this test.
func TestParkingLotParityGolden(t *testing.T) {
	fx := nettopo.LoadParityFixture(t)
	raw, err := os.Open("../../scenarios/parking-lot.json")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	spec, err := scenario.Load(raw)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Model != "nettopo" {
		t.Fatalf("parking-lot model = %q, want nettopo", spec.Model)
	}
	out, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := fx.ParkingLotScenario
	if len(out.Flows) != len(want.Flows) {
		t.Fatalf("%d flows, fixture %d", len(out.Flows), len(want.Flows))
	}
	for i, f := range out.Flows {
		nettopo.CheckBits(t, fmt.Sprintf("flow %d avg window", i), f.AvgWindow, want.Flows[i].AvgWindow)
		nettopo.CheckBits(t, fmt.Sprintf("flow %d goodput", i), f.Goodput, want.Flows[i].Goodput)
		nettopo.CheckBits(t, fmt.Sprintf("flow %d share", i), f.Share, want.Flows[i].Share)
	}
	for _, k := range []string{"efficiency", "jain_goodput", "tail_loss"} {
		v, ok := out.Summary[k]
		if !ok {
			t.Fatalf("summary missing %q", k)
		}
		nettopo.CheckBits(t, "summary "+k, v, want.Summary[k])
	}
}

// TestParkingLotExperimentGolden: the §6 parking-lot sweep, now on the
// nettopo substrate, reproduces the ratios the multilink substrate
// produced.
func TestParkingLotExperimentGolden(t *testing.T) {
	fx := nettopo.LoadParityFixture(t)
	entries, err := experiment.ParkingLotExperiment([]int{1, 2, 3, 4}, 6000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(fx.ParkingLotExperiment) {
		t.Fatalf("%d entries, fixture %d", len(entries), len(fx.ParkingLotExperiment))
	}
	for i, e := range entries {
		want := fx.ParkingLotExperiment[i]
		if e.Hops != want.Hops {
			t.Fatalf("entry %d: hops %d, fixture %d", i, e.Hops, want.Hops)
		}
		nettopo.CheckBits(t, fmt.Sprintf("%d hops window ratio", e.Hops), e.WindowRatio, want.WindowRatio)
		nettopo.CheckBits(t, fmt.Sprintf("%d hops goodput ratio", e.Hops), e.GoodputRatio, want.GoodputRatio)
		nettopo.CheckBits(t, fmt.Sprintf("%d hops link util", e.Hops), e.LinkUtil, want.LinkUtil)
	}
}
