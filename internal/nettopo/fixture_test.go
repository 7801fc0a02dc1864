package nettopo

import (
	"encoding/json"
	"math"
	"os"
	"strconv"
	"testing"
)

// ParityFixture is testdata/multilink_parity.json: outputs of the
// retired internal/multilink package (the §6 linear-chain network that
// nettopo generalizes), frozen before it was deleted so the evidence
// that nettopo reproduces it bit for bit outlives it. Every float is its
// IEEE-754 bit pattern as 16 hex digits.
type ParityFixture struct {
	// Chain is TestChainMatchesMultilink's network per case
	// ("deterministic", "stochastic"): per-flow tail means and a SHA-256
	// over every step's flow and link state.
	Chain map[string]struct {
		AvgWindow  []string `json:"avg_window"`
		AvgGoodput []string `json:"avg_goodput"`
		Trajectory string   `json:"trajectory_sha256"`
	} `json:"chain"`
	// ParkingLotScenario is scenarios/parking-lot.json's outcome.
	ParkingLotScenario struct {
		Flows []struct {
			AvgWindow string `json:"avg_window"`
			Goodput   string `json:"goodput"`
			Share     string `json:"share"`
		} `json:"flows"`
		Summary map[string]string `json:"summary"`
	} `json:"parking_lot_scenario"`
	// ParkingLotExperiment is experiment.ParkingLotExperiment([]int{1, 2,
	// 3, 4}, 6000, 7).
	ParkingLotExperiment []struct {
		Hops         int    `json:"hops"`
		WindowRatio  string `json:"window_ratio"`
		GoodputRatio string `json:"goodput_ratio"`
		LinkUtil     string `json:"link_util"`
	} `json:"parking_lot_experiment"`
}

// LoadParityFixture reads testdata/multilink_parity.json.
func LoadParityFixture(t testing.TB) *ParityFixture {
	t.Helper()
	raw, err := os.ReadFile("testdata/multilink_parity.json")
	if err != nil {
		t.Fatal(err)
	}
	var fx ParityFixture
	if err := json.Unmarshal(raw, &fx); err != nil {
		t.Fatal(err)
	}
	return &fx
}

// CheckBits fails t unless got has exactly the fixture's bit pattern.
func CheckBits(t testing.TB, what string, got float64, want string) {
	t.Helper()
	bits, err := strconv.ParseUint(want, 16, 64)
	if err != nil {
		t.Fatalf("%s: bad fixture value %q: %v", what, want, err)
	}
	if math.Float64bits(got) != bits {
		t.Errorf("%s = %v (%016x), fixture %v (%s)", what, got, math.Float64bits(got), math.Float64frombits(bits), want)
	}
}
