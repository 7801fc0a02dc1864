package metrics

import (
	"math"
	"testing"

	"repro/internal/fluid"
	"repro/internal/protocol"
)

// cap100 is a 100-MSS-capacity link with a 20-MSS buffer and 42ms RTT.
func cap100() fluid.Config {
	theta := 0.021
	return fluid.Config{
		Bandwidth: 100 / (2 * theta),
		PropDelay: theta,
		Buffer:    20,
	}
}

var fastOpt = Options{Steps: 2000}

func TestEfficiencyReno(t *testing.T) {
	// Theory (Table 1): AIMD(1,0.5) efficiency = min(1, b(1+τ/C)) = 0.6.
	got, err := Efficiency(cap100(), protocol.Reno(), 1, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if got < 0.55 || got > 0.70 {
		t.Fatalf("Reno efficiency = %v, want ≈ 0.6", got)
	}
}

func TestEfficiencyOrderingByDecreaseFactor(t *testing.T) {
	// b = 0.8 (Cubic-like AIMD) must beat b = 0.5 (Reno): gentler backoff
	// keeps the link fuller.
	reno, err := Efficiency(cap100(), protocol.Reno(), 1, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	gentle, err := Efficiency(cap100(), protocol.NewAIMD(1, 0.8), 1, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if gentle <= reno {
		t.Fatalf("AIMD(1,0.8) efficiency %v ≤ Reno %v", gentle, reno)
	}
}

func TestLossAvoidanceGrowsWithSenders(t *testing.T) {
	// Table 1: AIMD loss bound 1 − (C+τ)/(C+τ+na) grows with n.
	l1, err := LossAvoidance(cap100(), protocol.Reno(), 1, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	l4, err := LossAvoidance(cap100(), protocol.Reno(), 4, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if l4 <= l1 {
		t.Fatalf("loss with 4 senders (%v) ≤ loss with 1 (%v)", l4, l1)
	}
	// And both stay near the theory's scale: n·a/(C+τ+n·a).
	if l1 > 0.05 {
		t.Fatalf("single Reno loss = %v, want ≤ a/(C+τ+a) ≈ 0.008 scale", l1)
	}
}

func TestFairnessAIMDVsMIMD(t *testing.T) {
	// Table 1: AIMD <1>-fair, MIMD <0>-fair. The skewed initial config
	// exposes MIMD's ratio-preservation.
	aimd, err := Fairness(cap100(), protocol.Reno(), 2, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	mimd, err := Fairness(cap100(), protocol.Scalable(), 2, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if aimd < 0.85 {
		t.Fatalf("AIMD fairness = %v, want ≥ 0.85", aimd)
	}
	if mimd > 0.2 {
		t.Fatalf("MIMD fairness = %v, want ≈ 0 (ratio preservation)", mimd)
	}
	if mimd >= aimd {
		t.Fatalf("hierarchy violated: MIMD %v ≥ AIMD %v", mimd, aimd)
	}
}

func TestFairnessNeedsTwoSenders(t *testing.T) {
	if _, err := Fairness(cap100(), protocol.Reno(), 1, fastOpt); err == nil {
		t.Fatal("Fairness with 1 sender should error")
	}
}

func TestConvergenceAIMDMatchesTheory(t *testing.T) {
	// Table 1: AIMD convergence = 2b/(1+b); for Reno that is 2/3.
	got, err := Convergence(cap100(), protocol.Reno(), 1, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	want := 2.0 / 3.0
	if math.Abs(got-want) > 0.08 {
		t.Fatalf("Reno convergence = %v, want ≈ %v", got, want)
	}
}

func TestConvergenceOrderingByDecreaseFactor(t *testing.T) {
	// 2b/(1+b) is increasing in b: AIMD(1,0.8) converges tighter.
	reno, err := Convergence(cap100(), protocol.Reno(), 1, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	gentle, err := Convergence(cap100(), protocol.NewAIMD(1, 0.8), 1, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if gentle <= reno {
		t.Fatalf("AIMD(1,0.8) convergence %v ≤ Reno %v", gentle, reno)
	}
}

func TestFastUtilizationAIMDScoresA(t *testing.T) {
	for _, a := range []float64{1, 2} {
		got, err := FastUtilization(protocol.NewAIMD(a, 0.5), fastOpt)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-a) > 0.05 {
			t.Fatalf("AIMD(%v,0.5) fast-utilization = %v, want ≈ %v", a, got, a)
		}
	}
}

func TestFastUtilizationMIMDExplodes(t *testing.T) {
	// MIMD is ∞-fast-utilizing: its empirical score grows without bound
	// in the horizon. Check both the level and the growth.
	at2k, err := FastUtilization(protocol.Scalable(), Options{Steps: 2000})
	if err != nil {
		t.Fatal(err)
	}
	at4k, err := FastUtilization(protocol.Scalable(), Options{Steps: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if at2k < 3 {
		t.Fatalf("MIMD fast-utilization at 2k steps = %v, want > AIMD's 1", at2k)
	}
	if at4k < 50*at2k {
		t.Fatalf("MIMD score did not explode with horizon: %v -> %v", at2k, at4k)
	}
}

func TestFastUtilizationBinomialKPositiveVanishes(t *testing.T) {
	// Table 1: BIN is <0>-fast-utilizing for k > 0.
	got, err := FastUtilization(protocol.IIAD(), fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if got > 0.1 {
		t.Fatalf("IIAD fast-utilization = %v, want ≈ 0", got)
	}
}

func TestRobustnessScores(t *testing.T) {
	// Plain AIMD collapses under any constant loss: 0-robust.
	renoOK, err := RobustTo(protocol.Reno(), 0.005, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if renoOK {
		t.Fatal("Reno robust to 0.5% constant loss; should collapse")
	}
	// Robust-AIMD(1, 0.8, 0.02) tolerates 1% and fails at 3%.
	ra := protocol.NewRobustAIMD(1, 0.8, 0.02)
	ok, err := RobustTo(ra, 0.01, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("Robust-AIMD(ε=0.02) not robust to 1% loss")
	}
	ok, err = RobustTo(ra, 0.03, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("Robust-AIMD(ε=0.02) claimed robust to 3% loss")
	}
}

func TestRobustnessBisection(t *testing.T) {
	// The located threshold for Robust-AIMD(1,0.8,ε) is ≈ ε.
	ra := protocol.NewRobustAIMD(1, 0.8, 0.02)
	got, err := Robustness(ra, 0.5, 2e-3, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.02) > 5e-3 {
		t.Fatalf("Robust-AIMD robustness = %v, want ≈ 0.02", got)
	}
	reno, err := Robustness(protocol.Reno(), 0.5, 2e-3, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if reno != 0 {
		t.Fatalf("Reno robustness = %v, want 0", reno)
	}
}

func TestRobustnessValidation(t *testing.T) {
	if _, err := Robustness(protocol.Reno(), 0, 1e-3, fastOpt); err == nil {
		t.Fatal("maxRate=0 accepted")
	}
	if _, err := Robustness(protocol.Reno(), 0.5, 0, fastOpt); err == nil {
		t.Fatal("tol=0 accepted")
	}
}

func TestTCPFriendlinessRenoVsReno(t *testing.T) {
	// Reno against itself is just fairness: ≈ 1.
	got, err := TCPFriendliness(cap100(), protocol.Reno(), 1, 1, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if got < 0.85 || got > 1.2 {
		t.Fatalf("Reno-vs-Reno friendliness = %v, want ≈ 1", got)
	}
}

func TestTCPFriendlinessHierarchy(t *testing.T) {
	// The Table 2 story: Robust-AIMD is markedly friendlier to Reno than
	// PCC, and both are less friendly than Reno itself.
	ra, err := TCPFriendliness(cap100(), protocol.NewRobustAIMD(1, 0.8, 0.01), 1, 1, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	pcc, err := TCPFriendliness(cap100(), protocol.DefaultPCC(), 1, 1, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if ra <= pcc {
		t.Fatalf("R-AIMD friendliness %v ≤ PCC %v; Table 2 trend violated", ra, pcc)
	}
}

func TestTCPFriendlinessScalableAggressive(t *testing.T) {
	got, err := TCPFriendliness(cap100(), protocol.Scalable(), 1, 1, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if got > 0.5 {
		t.Fatalf("Scalable friendliness = %v, want ≪ 1", got)
	}
}

func TestFriendlinessValidation(t *testing.T) {
	if _, err := Friendliness(cap100(), protocol.Reno(), protocol.Reno(), 0, 1, fastOpt); err == nil {
		t.Fatal("nP=0 accepted")
	}
}

func TestLatencyAvoidanceVegasVsReno(t *testing.T) {
	// Vegas keeps at most β packets queued; Reno fills the buffer and
	// triggers timeouts. On a large link Vegas's inflation is near 0.
	bigLink := fluid.Config{
		Bandwidth: 1000 / 0.042,
		PropDelay: 0.021,
		Buffer:    200,
	}
	vegas, err := LatencyAvoidance(bigLink, protocol.DefaultVegas(), 1, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	reno, err := LatencyAvoidance(bigLink, protocol.Reno(), 1, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if vegas > 0.1 {
		t.Fatalf("Vegas latency inflation = %v, want ≈ 0", vegas)
	}
	if reno <= vegas {
		t.Fatalf("Reno latency %v ≤ Vegas %v", reno, vegas)
	}
}

func TestCharacterizeReno(t *testing.T) {
	s, err := Characterize(cap100(), protocol.Reno(), 2, Options{Steps: 1200})
	if err != nil {
		t.Fatal(err)
	}
	if s.Efficiency < 0.5 || s.Efficiency > 1 {
		t.Errorf("efficiency = %v", s.Efficiency)
	}
	if math.Abs(s.FastUtilization-1) > 0.1 {
		t.Errorf("fast-utilization = %v, want ≈ 1", s.FastUtilization)
	}
	if s.Robustness != 0 {
		t.Errorf("robustness = %v, want 0", s.Robustness)
	}
	if s.Fairness < 0.8 {
		t.Errorf("fairness = %v", s.Fairness)
	}
	if s.TCPFriendliness < 0.8 {
		t.Errorf("TCP-friendliness = %v", s.TCPFriendliness)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestCharacterizeSingleSenderFairnessNaN(t *testing.T) {
	s, err := Characterize(cap100(), protocol.Reno(), 1, Options{Steps: 800})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(s.Fairness) {
		t.Fatalf("single-sender fairness = %v, want NaN", s.Fairness)
	}
}

// TestNegativeHorizonIsAnError: Steps < 0 reaches the engine, which
// rejects it; no estimator may panic allocating a negative-length trace.
func TestNegativeHorizonIsAnError(t *testing.T) {
	opt := Options{Steps: -5}
	if _, err := Characterize(cap100(), protocol.Reno(), 2, opt); err == nil {
		t.Error("Characterize accepted Steps -5")
	}
	if _, err := ConvergenceTime(cap100(), protocol.Reno(), 2, 0.25, opt); err == nil {
		t.Error("ConvergenceTime accepted Steps -5")
	}
}

func TestDefaultInitConfigs(t *testing.T) {
	cfgs := DefaultInitConfigs(cap100(), 3)
	if len(cfgs) != 3 {
		t.Fatalf("got %d configs", len(cfgs))
	}
	for _, c := range cfgs {
		if len(c) != 3 {
			t.Fatalf("config width %d, want 3", len(c))
		}
	}
	// The skewed config must actually be skewed.
	skew := cfgs[2]
	if skew[0] <= skew[1] {
		t.Fatalf("skewed config not skewed: %v", skew)
	}
	// Infinite links still produce finite configs.
	inf := DefaultInitConfigs(fluid.Config{Infinite: true, PropDelay: 0.021}, 2)
	for _, c := range inf {
		for _, w := range c {
			if math.IsInf(w, 0) || math.IsNaN(w) {
				t.Fatalf("infinite-link init config contains %v", w)
			}
		}
	}
}
