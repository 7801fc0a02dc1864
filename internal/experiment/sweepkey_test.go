package experiment

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/runstore"
)

// TestKeyedSweepsShareNoCells: Figure1SpotChecks and ParkingLotExperiment
// both sweep four cells from BaseSeed 0, so their cell seeds coincide.
// Run against one store, neither may serve the other's cells: a second
// Figure1SpotChecks call is bit-identical to the first and executes no
// cell.
func TestKeyedSweepsShareNoCells(t *testing.T) {
	st, err := runstore.Open(t.TempDir(), runstore.Options{Version: "testver"})
	if err != nil {
		t.Fatal(err)
	}
	engine.SetCellStore(st)
	defer engine.SetCellStore(nil)

	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	pairs := [][2]float64{{1, 0.5}, {2, 0.5}, {1, 0.7}, {0.5, 0.8}}
	opt := metrics.Options{Steps: 600}
	first, err := Figure1SpotChecks(pairs, opt)
	if err != nil {
		t.Fatal(err)
	}

	obs.Reset()
	if _, err := ParkingLotExperiment([]int{1, 2, 3, 4}, 600, 7); err != nil {
		t.Fatal(err)
	}
	if got := obs.TakeSnapshot().Counters["engine.sweep.cells.restored"]; got != 0 {
		t.Errorf("parking lot restored %d of Figure 1's cells", got)
	}

	obs.Reset()
	second, err := Figure1SpotChecks(pairs, opt)
	if err != nil {
		t.Fatal(err)
	}
	s := obs.TakeSnapshot()
	if got := s.Counters["engine.sweep.cells.restored"]; got != uint64(len(pairs)) {
		t.Errorf("restored %d cells, want %d", got, len(pairs))
	}
	if got := s.Counters["engine.sweep.cells.completed"]; got != 0 {
		t.Errorf("second call executed %d cells, want 0", got)
	}
	// %x prints every float field as its exact hex mantissa/exponent.
	if a, b := fmt.Sprintf("%x", first), fmt.Sprintf("%x", second); a != b {
		t.Fatalf("second call differs from the first:\n%s\n%s", a, b)
	}
}

// TestSweepKeyCoversInputs: every input that changes a cell's result
// changes the key; worker count and session, which don't, leave it alone.
func TestSweepKeyCoversInputs(t *testing.T) {
	base := metrics.Options{Steps: 600}
	key := sweepKey("figure1-checks", base, [][2]float64{{1, 0.5}})
	same := base
	same.Workers = 4
	same.Session = metrics.NewSession()
	if got := sweepKey("figure1-checks", same, [][2]float64{{1, 0.5}}); got != key {
		t.Errorf("workers/session changed the key:\n%s\n%s", got, key)
	}
	variants := map[string]string{
		"name":      sweepKey("robustness", base, [][2]float64{{1, 0.5}}),
		"input":     sweepKey("figure1-checks", base, [][2]float64{{1, 0.6}}),
		"steps":     sweepKey("figure1-checks", metrics.Options{Steps: 601}, [][2]float64{{1, 0.5}}),
		"tail":      sweepKey("figure1-checks", metrics.Options{Steps: 600, TailFrac: 0.5}, [][2]float64{{1, 0.5}}),
		"chaosSeed": sweepKey("figure1-checks", metrics.Options{Steps: 600, ChaosSeed: 1}, [][2]float64{{1, 0.5}}),
	}
	for what, k := range variants {
		if k == key || k == "" {
			t.Errorf("changing the %s did not change the key: %q", what, k)
		}
	}
	if !strings.HasPrefix(key, "figure1-checks|") {
		t.Errorf("key %q does not start with the sweep name", key)
	}
}

// TestHierarchyRenderDeterministic: the agreement lines print in one
// fixed order, so every render of one result is byte-identical.
func TestHierarchyRenderDeterministic(t *testing.T) {
	res := &HierarchyResult{
		Cells: []HierarchyCell{{N: 2, Mbps: 20, Buffer: 100, Names: []string{"Reno"},
			Efficiency: []float64{0.9}, Loss: []float64{0.01}, Fairness: []float64{1}, Convergence: []float64{0.8}}},
		Agreement: map[string]float64{"efficiency": 1, "convergence": 0.5, "fairness": 0.25},
	}
	want := res.Render()
	if !strings.Contains(want, "  efficiency   100%\n  convergence  50%\n  fairness     25%\n") {
		t.Fatalf("agreement lines out of order:\n%s", want)
	}
	for i := 0; i < 50; i++ {
		if got := res.Render(); got != want {
			t.Fatalf("render %d differs:\n%s\nwant:\n%s", i, got, want)
		}
	}
}
