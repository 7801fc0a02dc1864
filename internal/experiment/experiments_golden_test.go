package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/metrics"
	"repro/internal/protocol"
)

// goldenRow is one experiment row: a label and its values, floats as the
// hex of their IEEE-754 bit pattern and booleans as "true"/"false".
type goldenRow struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
}

func goldenValues(vals ...any) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		switch v := v.(type) {
		case float64:
			out[i] = strconv.FormatUint(math.Float64bits(v), 16)
		case bool:
			out[i] = strconv.FormatBool(v)
		default:
			panic("goldenValues: unsupported type")
		}
	}
	return out
}

// experimentsGolden is the layout of testdata/experiments_golden.json:
// the rows of the experiments whose runs resolve through the run cache,
// then the packet-level hierarchy and Table 2 rows, in the order each
// experiment returns them.
type experimentsGolden struct {
	Robustness      []goldenRow `json:"robustness"`
	ChaosRobustness []goldenRow `json:"robustness_chaos"`
	ParkingLot      []goldenRow `json:"parking_lot"`
	Figure1Checks   []goldenRow `json:"figure1_checks"`
	Theorem3        []goldenRow `json:"theorem3"`
	MoreAggressive  []goldenRow `json:"more_aggressive"`
	Hierarchy       []goldenRow `json:"hierarchy"`
	Table2          []goldenRow `json:"table2"`
}

// goldenPacketSeconds is the simulated time of every packet run in the
// hierarchy and Table 2 fixture rows.
const goldenPacketSeconds = 10

// goldenSteps is the short horizon every experiment fixture row runs at.
const goldenSteps = 800

func measureExperimentsGolden(t *testing.T) experimentsGolden {
	t.Helper()
	var g experimentsGolden
	opt := metrics.Options{Steps: goldenSteps}

	rob, err := RobustnessSweep(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range rob {
		g.Robustness = append(g.Robustness, goldenRow{e.Name, goldenValues(e.Threshold, e.UtilAtHalfPercent)})
	}

	chaosRob, err := ChaosRobustnessSweep(opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range chaosRob {
		g.ChaosRobustness = append(g.ChaosRobustness, goldenRow{e.Name,
			goldenValues(e.Threshold, e.UtilAtHalfPercent, e.UtilBurstyLoss, e.UtilFlappyLink)})
	}

	lot, err := ParkingLotExperiment([]int{1, 2, 3}, goldenSteps, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range lot {
		g.ParkingLot = append(g.ParkingLot, goldenRow{strconv.Itoa(e.Hops) + " hops",
			goldenValues(e.WindowRatio, e.GoodputRatio, e.LinkUtil)})
	}

	checks, err := Figure1SpotChecks([][2]float64{{1, 0.5}, {2, 0.5}, {1, 0.8}, {0.5, 0.5}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range checks {
		g.Figure1Checks = append(g.Figure1Checks, goldenRow{
			"AIMD(" + strconv.FormatFloat(c.Alpha, 'g', -1, 64) + "," + strconv.FormatFloat(c.Beta, 'g', -1, 64) + ")",
			goldenValues(c.BoundFriendly, c.MeasuredFriendly, c.MeasuredFast, c.MeasuredEff)})
	}

	thm3, err := CheckTheorem3(nil, opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range thm3 {
		g.Theorem3 = append(g.Theorem3, goldenRow{"eps=" + strconv.FormatFloat(c.Eps, 'g', -1, 64),
			goldenValues(c.Bound, c.NonRobustCeiling, c.Measured, c.Holds)})
	}

	cfg := FluidLink(20, 20)
	seeded := opt
	seeded.InitConfigs = [][]float64{{1, 1}, {30, 1}}
	for _, pair := range []struct {
		name string
		p, q protocol.Protocol
		opt  metrics.Options
	}{
		{"Scalable vs Reno", protocol.Scalable(), protocol.Reno(), opt},
		{"Reno vs AIMD(2,0.5) from {1,1},{30,1}", protocol.Reno(), protocol.NewAIMD(2, 0.5), seeded},
	} {
		more, err := MoreAggressive(cfg, pair.p, pair.q, pair.opt)
		if err != nil {
			t.Fatal(err)
		}
		g.MoreAggressive = append(g.MoreAggressive, goldenRow{pair.name, goldenValues(more)})
	}

	hier, err := Hierarchy(HierarchyConfig{
		Senders:    []int{2, 3},
		Bandwidths: []float64{20},
		Buffers:    []int{10, 100},
		Duration:   goldenPacketSeconds,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range hier.Cells {
		for i, name := range c.Names {
			g.Hierarchy = append(g.Hierarchy, goldenRow{
				fmt.Sprintf("n=%d bw=%g buf=%d %s", c.N, c.Mbps, c.Buffer, name),
				goldenValues(c.Efficiency[i], c.Loss[i], c.Fairness[i], c.Convergence[i])})
		}
	}

	t2, err := Table2(Table2Config{
		Senders:    []int{2, 3},
		Bandwidths: []float64{20},
		Duration:   goldenPacketSeconds,
		Seeds:      2,
		Seed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range t2.Cells {
		g.Table2 = append(g.Table2, goldenRow{fmt.Sprintf("(%d,%g)", c.N, c.Mbps),
			goldenValues(c.RAIMD, c.PCC, c.Improvement)})
	}
	return g
}

// TestExperimentsGolden pins, bit for bit, the rows of the robustness
// sweeps, the parking lot, the Figure 1 spot checks, the Theorem 3 check,
// two MoreAggressive relations, and a small §5.1 hierarchy grid and
// Table 2 grid on the packet simulator (testdata/experiments_golden.json).
// The route each experiment's runs take through the run cache may
// change freely; any drift in a value's bits fails here. Regenerate only
// for an intentional change: `go test ./internal/experiment -run
// TestExperimentsGolden -update`.
func TestExperimentsGolden(t *testing.T) {
	got := measureExperimentsGolden(t)
	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')
	path := filepath.Join("testdata", "experiments_golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if bytes.Equal(raw, want) {
		return
	}
	var fx experimentsGolden
	if err := json.Unmarshal(want, &fx); err != nil {
		t.Fatal(err)
	}
	diff := func(section string, got, want []goldenRow) {
		for i := 0; i < len(got) || i < len(want); i++ {
			switch {
			case i >= len(want):
				t.Errorf("%s row %d %q: not in fixture", section, i, got[i].Name)
			case i >= len(got):
				t.Errorf("%s row %d %q: missing", section, i, want[i].Name)
			default:
				if a, b := mustJSON(t, got[i]), mustJSON(t, want[i]); a != b {
					t.Errorf("%s row %d:\n got %s\nwant %s", section, i, a, b)
				}
			}
		}
	}
	diff("robustness", got.Robustness, fx.Robustness)
	diff("robustness_chaos", got.ChaosRobustness, fx.ChaosRobustness)
	diff("parking_lot", got.ParkingLot, fx.ParkingLot)
	diff("figure1_checks", got.Figure1Checks, fx.Figure1Checks)
	diff("theorem3", got.Theorem3, fx.Theorem3)
	diff("more_aggressive", got.MoreAggressive, fx.MoreAggressive)
	diff("hierarchy", got.Hierarchy, fx.Hierarchy)
	diff("table2", got.Table2, fx.Table2)
	if !t.Failed() {
		t.Errorf("fixture bytes differ from the measured rows:\n%s", raw)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}
