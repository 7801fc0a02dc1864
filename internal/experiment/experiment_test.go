package experiment

import (
	"math"
	"strings"
	"testing"

	"repro/internal/axioms"
	"repro/internal/metrics"
	"repro/internal/protocol"
)

var opt = metrics.Options{Steps: 1500}

func TestEmulabLinkConversion(t *testing.T) {
	cfg := EmulabLink(20, 100)
	// 20 Mbps = 1666.67 MSS/s; C = B·2Θ ≈ 70 MSS.
	if math.Abs(cfg.Bandwidth-20e6/8/1500) > 1e-9 {
		t.Fatalf("bandwidth = %v", cfg.Bandwidth)
	}
	if math.Abs(cfg.Capacity()-cfg.Bandwidth*PaperRTT) > 1e-9 {
		t.Fatalf("capacity = %v", cfg.Capacity())
	}
	if cfg.Buffer != 100 {
		t.Fatalf("buffer = %d", cfg.Buffer)
	}
	fl := FluidLink(20, 100)
	if math.Abs(fl.Capacity()-cfg.Capacity()) > 1e-9 {
		t.Fatalf("fluid capacity %v != packet capacity %v", fl.Capacity(), cfg.Capacity())
	}
}

func TestLinkParams(t *testing.T) {
	lp := LinkParams(FluidLink(20, 100), 3)
	if lp.N != 3 || lp.Tau != 100 {
		t.Fatalf("lp = %+v", lp)
	}
	if math.Abs(lp.C-70) > 0.1 {
		t.Fatalf("C = %v, want ≈ 70", lp.C)
	}
}

func TestTable1TheoryRender(t *testing.T) {
	rows := Table1Theory(axioms.Link{C: 100, Tau: 20, N: 2})
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	out := RenderTable1Theory(rows)
	for _, name := range []string{"AIMD(1,0.5)", "MIMD(1.01,0.875)", "BIN(1,0.5,0.5,0.5)", "CUBIC(0.4,0.8)", "RobustAIMD(1,0.8,0.01)"} {
		if !strings.Contains(out, name) {
			t.Errorf("render missing %s:\n%s", name, out)
		}
	}
	if !strings.Contains(out, "∞") {
		t.Errorf("render missing MIMD's ∞ fast-utilization:\n%s", out)
	}
}

func TestTable1EmpiricalTrends(t *testing.T) {
	scores, err := Table1Empirical(FluidLink(20, 20), 2, metrics.Options{Steps: 1200})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 5 {
		t.Fatalf("scores = %d", len(scores))
	}
	byName := map[string]ProtocolScores{}
	for _, s := range scores {
		byName[s.Name] = s
	}
	reno := byName["AIMD(1,0.5)"]
	scal := byName["MIMD(1.01,0.875)"]
	ra := byName["RobustAIMD(1,0.8,0.01)"]

	// Hierarchy per §5.1: efficiency ordering follows the decrease factor.
	if scal.Empirical.Efficiency <= reno.Empirical.Efficiency {
		t.Errorf("efficiency: Scalable %v ≤ Reno %v", scal.Empirical.Efficiency, reno.Empirical.Efficiency)
	}
	// Fairness: AIMD ≈ 1, MIMD ≈ 0.
	if reno.Empirical.Fairness < 0.85 || scal.Empirical.Fairness > 0.2 {
		t.Errorf("fairness: Reno %v, Scalable %v", reno.Empirical.Fairness, scal.Empirical.Fairness)
	}
	// Robustness: only Robust-AIMD is non-zero.
	if reno.Empirical.Robustness != 0 || scal.Empirical.Robustness != 0 {
		t.Errorf("robustness: Reno %v, Scalable %v", reno.Empirical.Robustness, scal.Empirical.Robustness)
	}
	if ra.Empirical.Robustness <= 0 {
		t.Errorf("Robust-AIMD robustness = %v, want > 0", ra.Empirical.Robustness)
	}
	// Render exercises every column.
	out := RenderTable1Empirical(scores)
	if !strings.Contains(out, "thy/meas") || !strings.Contains(out, "AIMD(1,0.5)") {
		t.Errorf("empirical render malformed:\n%s", out)
	}
}

func TestMetricOrdering(t *testing.T) {
	names := []string{"a", "b", "c"}
	// Higher better: worst first = ascending.
	got := MetricOrdering(names, []float64{0.5, 0.2, 0.9}, true)
	if got[0] != "b" || got[2] != "c" {
		t.Fatalf("ordering = %v", got)
	}
	// Lower better: worst first = descending.
	got = MetricOrdering(names, []float64{0.5, 0.2, 0.9}, false)
	if got[0] != "c" || got[2] != "b" {
		t.Fatalf("ordering = %v", got)
	}
}

func TestTable2SmallGrid(t *testing.T) {
	res, err := Table2(Table2Config{
		Senders:    []int{2},
		Bandwidths: []float64{20},
		Duration:   30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 1 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	c := res.Cells[0]
	if c.RAIMD <= 0 || c.PCC < 0 {
		t.Fatalf("cell = %+v", c)
	}
	// The paper's core claim: Robust-AIMD is friendlier than PCC.
	if c.Improvement <= 1 {
		t.Fatalf("improvement = %v, want > 1 (R-AIMD friendlier than PCC)", c.Improvement)
	}
	out := res.Render()
	if !strings.Contains(out, "(2,20)") || !strings.Contains(out, "mean") {
		t.Errorf("render malformed:\n%s", out)
	}
}

func TestHierarchySmallGrid(t *testing.T) {
	res, err := Hierarchy(HierarchyConfig{
		Senders:    []int{2},
		Bandwidths: []float64{20},
		Buffers:    []int{100},
		Duration:   40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 1 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	cell := res.Cells[0]
	if len(cell.Names) != 3 {
		t.Fatalf("protocols = %v", cell.Names)
	}
	for i, e := range cell.Efficiency {
		if e <= 0 || e > 1.05 {
			t.Errorf("%s efficiency = %v", cell.Names[i], e)
		}
	}
	// Scalable's fairness must be the worst of the three (ratio
	// preservation from staggered starts).
	if got := worstName(cell.Names, cell.Fairness); got != "MIMD(1.01,0.875)" {
		t.Errorf("worst fairness = %s, want Scalable (values %v)", got, cell.Fairness)
	}
	out := res.Render()
	if !strings.Contains(out, "ordering agreement") {
		t.Errorf("render malformed:\n%s", out)
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

func TestFigure1SurfaceAndRender(t *testing.T) {
	pts := Figure1(5, 4)
	if len(pts) != 20 {
		t.Fatalf("surface points = %d, want 20", len(pts))
	}
	out := RenderFigure1(pts)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 21 {
		t.Fatalf("render lines = %d, want header+20", len(lines))
	}
}

func TestFigure1SpotChecksRenoCorner(t *testing.T) {
	checks, err := Figure1SpotChecks([][2]float64{{1, 0.5}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	c := checks[0]
	if c.BoundFriendly != 1 {
		t.Fatalf("bound = %v, want 1", c.BoundFriendly)
	}
	// AIMD(1, 0.5) IS Reno: measured friendliness ≈ 1, eff ≈ 0.5 on the
	// bufferless link, fast ≈ 1.
	if math.Abs(c.MeasuredFriendly-1) > 0.2 {
		t.Errorf("measured friendliness = %v, want ≈ 1", c.MeasuredFriendly)
	}
	if math.Abs(c.MeasuredEff-0.5) > 0.1 {
		t.Errorf("measured efficiency = %v, want ≈ 0.5", c.MeasuredEff)
	}
	if math.Abs(c.MeasuredFast-1) > 0.1 {
		t.Errorf("measured fast-utilization = %v, want ≈ 1", c.MeasuredFast)
	}
	if out := RenderFigure1Checks(checks); !strings.Contains(out, "AIMD(1,0.5)") {
		t.Errorf("render malformed:\n%s", out)
	}
}

func TestCheckClaim1(t *testing.T) {
	ev, err := CheckClaim1(opt)
	if err != nil {
		t.Fatal(err)
	}
	if ev.TailLoss != 0 {
		t.Errorf("probe tail loss = %v, want 0", ev.TailLoss)
	}
	if ev.FastUtil > 1e-9 {
		t.Errorf("probe fast-utilization = %v, want 0", ev.FastUtil)
	}
	if ev.Efficiency < 0.4 {
		t.Errorf("probe efficiency = %v, want ≥ 0.4 (it nearly fills the link)", ev.Efficiency)
	}
	if !ev.Holds {
		t.Error("Claim 1 evidence does not hold")
	}
}

func TestCheckTheorem1(t *testing.T) {
	checks, err := CheckTheorem1(opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) == 0 {
		t.Fatal("no checks")
	}
	for _, c := range checks {
		if !c.Holds {
			t.Errorf("Theorem 1 violated for %s: conv=%v fast=%v eff=%v bound=%v",
				c.Name, c.Convergence, c.FastUtil, c.Efficiency, c.Bound)
		}
	}
}

func TestCheckTheorem2TightnessAndBound(t *testing.T) {
	checks, err := CheckTheorem2(nil, opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range checks {
		if !c.Holds {
			t.Errorf("Theorem 2 violated for AIMD(%v,%v): measured %v > bound %v",
				c.A, c.B, c.Measured, c.Bound)
		}
		// Tightness: AIMD attains the bound to within estimation noise.
		if c.Tightness < 0.6 || c.Tightness > 1.15 {
			t.Errorf("AIMD(%v,%v) tightness = %v, want ≈ 1", c.A, c.B, c.Tightness)
		}
	}
}

// TestQuickTheorem2TightnessRandomParams drives the tightness result over
// randomized AIMD parameters: for any valid (a, b), the measured
// friendliness on a bufferless link lands on the Theorem 2 expression.
func TestQuickTheorem2TightnessRandomParams(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized sweep")
	}
	seeds := [][2]float64{{0.7, 0.35}, {1.3, 0.62}, {2.4, 0.45}, {0.4, 0.75}, {1.8, 0.55}}
	checks, err := CheckTheorem2(seeds, metrics.Options{Steps: 2500}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range checks {
		if !c.Holds {
			t.Errorf("AIMD(%v,%v): measured %v above bound %v", c.A, c.B, c.Measured, c.Bound)
		}
		if c.Tightness < 0.8 || c.Tightness > 1.1 {
			t.Errorf("AIMD(%v,%v): tightness %v strayed from 1", c.A, c.B, c.Tightness)
		}
	}
}

func TestCheckTheorem3(t *testing.T) {
	checks, err := CheckTheorem3(nil, opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) != 3 {
		t.Fatalf("checks = %d", len(checks))
	}
	for _, c := range checks {
		if !c.Holds {
			t.Errorf("Theorem 3 check failed at ε=%v: measured %v, bound %v, non-robust ceiling %v",
				c.Eps, c.Measured, c.Bound, c.NonRobustCeiling)
		}
	}
	// Monotone in ε: more tolerance ⇒ no friendlier (small slack for
	// estimation noise).
	for i := 1; i < len(checks); i++ {
		if checks[i].Measured > checks[i-1].Measured*1.15+0.01 {
			t.Errorf("friendliness rose with ε: %v@%v -> %v@%v",
				checks[i-1].Measured, checks[i-1].Eps, checks[i].Measured, checks[i].Eps)
		}
	}
}

func TestMoreAggressive(t *testing.T) {
	cfg := FluidLink(20, 20)
	agg, err := MoreAggressive(cfg, protocol.Scalable(), protocol.Reno(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !agg {
		t.Error("Scalable not more aggressive than Reno")
	}
	rev, err := MoreAggressive(cfg, protocol.Reno(), protocol.Scalable(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if rev {
		t.Error("Reno claimed more aggressive than Scalable")
	}
}

func TestCheckTheorem4(t *testing.T) {
	checks, err := CheckTheorem4(opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) != 4 {
		t.Fatalf("checks = %d", len(checks))
	}
	for _, c := range checks {
		if !c.QMoreAggressive {
			t.Errorf("%s should be more aggressive than Reno", c.Q)
		}
		if !c.Holds {
			t.Errorf("Theorem 4 violated for P=%s Q=%s: friendly-to-Reno %v, friendly-to-Q %v",
				c.P, c.Q, c.FriendlyToReno, c.FriendlyToQ)
		}
	}
}

func TestCheckTheorem5(t *testing.T) {
	checks, err := CheckTheorem5(opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range checks {
		if c.LossBasedEff <= 0 {
			t.Errorf("%s efficiency = %v, precondition broken", c.LossBased, c.LossBasedEff)
		}
		if c.AvoiderLatency > 0.1 {
			t.Errorf("Vegas alone latency = %v, want ≈ 0", c.AvoiderLatency)
		}
		if !c.Holds {
			t.Errorf("Theorem 5 violated: %s → %s friendliness %v",
				c.LossBased, c.LatencyAvoider, c.Friendliness)
		}
	}
}
