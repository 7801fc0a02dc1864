package experiment

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/runstore"
)

// engineRuns sums the engine.runs.* counters (one per substrate) of the
// current obs snapshot.
func engineRuns() (total uint64, byName map[string]uint64) {
	byName = map[string]uint64{}
	for name, v := range obs.TakeSnapshot().Counters {
		if strings.HasPrefix(name, "engine.runs.") {
			byName[name] = v
			total += v
		}
	}
	return total, byName
}

// TestExperimentsWarmStoreSimulateNothing: each experiment that used to
// persist its sweep cells now resolves every run through a Session. Run
// cold against a temp store and then again with a fresh Session over
// the same store (each call builds its own), the warm pass executes no
// engine run at all and returns the cold rows bit for bit.
func TestExperimentsWarmStoreSimulateNothing(t *testing.T) {
	st, err := runstore.Open(t.TempDir(), runstore.Options{Version: "testver"})
	if err != nil {
		t.Fatal(err)
	}
	metrics.SetDefaultStore(st)
	defer metrics.SetDefaultStore(nil)
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()

	opt := metrics.Options{Steps: 600}
	for _, c := range []struct {
		name string
		run  func() (any, error)
	}{
		{"Figure1SpotChecks", func() (any, error) {
			return Figure1SpotChecks([][2]float64{{1, 0.5}, {2, 0.5}, {1, 0.8}}, opt)
		}},
		{"RobustnessSweep", func() (any, error) { return RobustnessSweep(opt) }},
		{"ChaosRobustnessSweep", func() (any, error) { return ChaosRobustnessSweep(opt, 3) }},
		{"ParkingLotExperiment", func() (any, error) { return ParkingLotExperiment([]int{1, 2, 3}, 600, 7) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			obs.Reset()
			cold, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			if n, _ := engineRuns(); n == 0 {
				t.Fatal("cold pass executed no engine run")
			}
			obs.Reset()
			warm, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			if n, byName := engineRuns(); n != 0 {
				t.Errorf("warm pass executed engine runs: %v", byName)
			}
			// %x prints every float field as its exact hex mantissa/exponent.
			if a, b := fmt.Sprintf("%x", cold), fmt.Sprintf("%x", warm); a != b {
				t.Errorf("warm rows differ from cold:\ncold %s\nwarm %s", a, b)
			}
		})
	}
}
