package nettopo_test

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/experiment"
	"repro/internal/nettopo"
	"repro/internal/scenario"
)

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
