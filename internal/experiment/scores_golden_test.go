package experiment

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/chaos"
	"repro/internal/metrics"
	"repro/internal/protocol"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata golden fixtures of the tests that run")

// scoreBits renders an 8-tuple as the hex of each metric's IEEE-754 bit
// pattern, in Table 1's column order.
func scoreBits(s metrics.Scores) [8]string {
	var out [8]string
	for i, v := range []float64{
		s.Efficiency, s.FastUtilization, s.LossAvoidance, s.Fairness,
		s.Convergence, s.Robustness, s.TCPFriendliness, s.LatencyAvoidance,
	} {
		out[i] = strconv.FormatUint(math.Float64bits(v), 16)
	}
	return out
}

// scoresGolden is the fixture layout: one bit-exact 8-tuple per measured
// cell, keyed by protocol (and topology for the multi-bottleneck rows).
type scoresGolden struct {
	Table1      map[string][8]string `json:"table1"`
	TopoAxioms  map[string][8]string `json:"topo_axioms"`
	ChaosCharac [8]string            `json:"characterize_chaos"`
}

// goldenOpt is the short horizon every fixture cell runs at.
func goldenOpt() metrics.Options { return metrics.Options{Steps: 800} }

func measureScoresGolden(t *testing.T) scoresGolden {
	t.Helper()
	g := scoresGolden{Table1: map[string][8]string{}, TopoAxioms: map[string][8]string{}}
	rows, err := Table1Empirical(FluidLink(20, 100), 2, goldenOpt())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		g.Table1[r.Name] = scoreBits(r.Empirical)
	}
	trows, err := TopoAxioms(goldenOpt())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range trows {
		g.TopoAxioms[r.Protocol+" @ "+r.Topology] = scoreBits(metrics.Scores(r.Scores))
	}
	opt := goldenOpt()
	opt.Chaos = chaos.BurstyLoss(0.05, 0.3, 0.2)
	opt.ChaosSeed = 7
	s, err := metrics.Characterize(FluidLink(20, 100), protocol.Reno(), 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	g.ChaosCharac = scoreBits(s)
	return g
}

// TestScoresGolden pins, bit for bit, the empirical 8-tuples of
// Table1Empirical and TopoAxioms and of one Characterize call under a
// bursty-loss chaos schedule (testdata/scores_golden.json). The
// estimator layer may be restructured freely; any drift in a score's
// bits, a cell appearing or a cell vanishing fails here. Regenerate only
// for an intentional score change: `go test ./internal/experiment -run
// TestScoresGolden -update`.
func TestScoresGolden(t *testing.T) {
	got := measureScoresGolden(t)
	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')
	path := filepath.Join("testdata", "scores_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
	var fx scoresGolden
	if err := json.Unmarshal(want, &fx); err != nil {
		t.Fatal(err)
	}
	diff := func(section string, got, want map[string][8]string) {
		for k, w := range want {
			if g, ok := got[k]; !ok {
				t.Errorf("%s %q: missing", section, k)
			} else if g != w {
				t.Errorf("%s %q:\n got %v\nwant %v", section, k, g, w)
			}
		}
		for k := range got {
			if _, ok := want[k]; !ok {
				t.Errorf("%s %q: not in fixture", section, k)
			}
		}
	}
	diff("table1", got.Table1, fx.Table1)
	diff("topo_axioms", got.TopoAxioms, fx.TopoAxioms)
	if got.ChaosCharac != fx.ChaosCharac {
		t.Errorf("characterize_chaos:\n got %v\nwant %v", got.ChaosCharac, fx.ChaosCharac)
	}
	if !t.Failed() {
		t.Errorf("fixture bytes differ from the measured scores:\n%s", raw)
	}
}
