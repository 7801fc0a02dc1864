package fluid

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/protocol"
	"repro/internal/stats"
)

// testCfg is a 100-MSS-capacity link: B = 1190.48 MSS/s, Θ = 42ms/2.
func testCfg() Config {
	theta := 0.021
	return Config{
		Bandwidth: 100 / (2 * theta), // C = B·2Θ = 100 MSS
		PropDelay: theta,
		Buffer:    20,
	}
}

// series is what a test reads of a run: per step, each sender's window
// and the link's RTT, congestion loss and aggregate window.
type series struct {
	windows          [][]float64 // windows[i][t] is sender i's window at step t
	rtt, loss, total []float64
}

// runLink steps l steps times and returns the series its steps report.
func runLink(l *Link, steps int) series {
	s := series{windows: make([][]float64, len(l.b.win))}
	for range steps {
		res := l.Step()
		total := 0.0
		for i, w := range res.Windows {
			s.windows[i] = append(s.windows[i], w)
			total += w
		}
		s.rtt = append(s.rtt, res.RTT)
		s.loss = append(s.loss, res.CongLoss)
		s.total = append(s.total, total)
	}
	return s
}

// runSenders runs senders on cfg for steps steps.
func runSenders(t *testing.T, cfg Config, senders []Sender, steps int) series {
	t.Helper()
	l, err := New(cfg, senders...)
	if err != nil {
		t.Fatal(err)
	}
	return runLink(l, steps)
}

// runHomogeneous runs n clones of proto from init on cfg for steps steps.
func runHomogeneous(t *testing.T, cfg Config, proto protocol.Protocol, n int, init []float64, steps int) series {
	t.Helper()
	senders, err := HomogeneousSenders(proto, n, init)
	if err != nil {
		t.Fatal(err)
	}
	return runSenders(t, cfg, senders, steps)
}

// tailMean is sender i's mean window over the last quarter of the run.
func (s series) tailMean(i int) float64 { return stats.Mean(stats.Tail(s.windows[i], 0.75)) }

func TestCapacity(t *testing.T) {
	cfg := testCfg()
	if got := cfg.Capacity(); math.Abs(got-100) > 1e-9 {
		t.Fatalf("Capacity = %v, want 100", got)
	}
	if got := cfg.BaseRTT(); math.Abs(got-0.042) > 1e-12 {
		t.Fatalf("BaseRTT = %v, want 0.042", got)
	}
	inf := Config{Infinite: true, PropDelay: 0.021}
	if !math.IsInf(inf.Capacity(), 1) {
		t.Fatalf("infinite capacity = %v", inf.Capacity())
	}
}

func TestMbpsToMSSps(t *testing.T) {
	// 12 Mbps = 12e6/8/1500 = 1000 MSS/s.
	if got := MbpsToMSSps(12); math.Abs(got-1000) > 1e-9 {
		t.Fatalf("MbpsToMSSps(12) = %v, want 1000", got)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Bandwidth: 0, PropDelay: 0.02},            // zero bandwidth
		{Bandwidth: 100, PropDelay: 0},             // zero delay
		{Bandwidth: 100, PropDelay: 1, Buffer: -1}, // negative buffer
		{Bandwidth: 100, PropDelay: math.NaN()},
		{Bandwidth: 100, PropDelay: math.Inf(1)},
		{Bandwidth: 100, PropDelay: math.Inf(-1)},
		{Bandwidth: math.NaN(), PropDelay: 0.02},
		{Bandwidth: math.Inf(1), PropDelay: 0.02},
		{Bandwidth: math.Inf(-1), PropDelay: 0.02},
		{Bandwidth: 100, PropDelay: 0.02, Buffer: math.NaN()},
		{Infinite: true, PropDelay: math.NaN()},
	}
	for i, cfg := range bad {
		if _, err := New(cfg, Sender{Proto: protocol.Reno(), Init: 1}); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := New(testCfg()); err == nil {
		t.Error("empty sender set accepted")
	}
	if _, err := New(testCfg(), Sender{Proto: nil}); err == nil {
		t.Error("nil protocol accepted")
	}
	// Infinite link needs no bandwidth.
	if _, err := New(Config{Infinite: true, PropDelay: 0.02}, Sender{Proto: protocol.Reno(), Init: 1}); err != nil {
		t.Errorf("infinite link rejected: %v", err)
	}
}

func TestRTTRegimes(t *testing.T) {
	l := MustNew(testCfg(), Sender{Proto: protocol.Reno(), Init: 1})
	base := l.config().BaseRTT()

	// Under capacity: RTT = 2Θ.
	rtt, loss := l.congestion(50)
	if rtt != base || loss != 0 {
		t.Fatalf("X=50: rtt=%v loss=%v, want (%v, 0)", rtt, loss, base)
	}
	// Queue building: C < X < C+τ ⇒ RTT = (X−C)/B + 2Θ.
	rtt, loss = l.congestion(110)
	want := 10/l.config().Bandwidth + base
	if math.Abs(rtt-want) > 1e-12 || loss != 0 {
		t.Fatalf("X=110: rtt=%v loss=%v, want (%v, 0)", rtt, loss, want)
	}
	// Exactly at C+τ: still the queueing branch per eq. 1 (X < C+τ is
	// false at equality, so the timeout branch applies).
	rtt, loss = l.congestion(120)
	if rtt != l.config().TimeoutRTT || loss != 0 {
		t.Fatalf("X=C+τ: rtt=%v loss=%v, want (Δ=%v, 0)", rtt, loss, l.config().TimeoutRTT)
	}
	// Overflow: loss = 1 − (C+τ)/X and RTT = Δ.
	rtt, loss = l.congestion(240)
	if rtt != l.config().TimeoutRTT {
		t.Fatalf("X=240: rtt=%v, want Δ=%v", rtt, l.config().TimeoutRTT)
	}
	if math.Abs(loss-0.5) > 1e-12 {
		t.Fatalf("X=240: loss=%v, want 0.5", loss)
	}
}

func TestTimeoutRTTDefault(t *testing.T) {
	cfg := testCfg().withDefaults()
	want := 2 * (cfg.BaseRTT() + cfg.Buffer/cfg.Bandwidth)
	if math.Abs(cfg.TimeoutRTT-want) > 1e-12 {
		t.Fatalf("TimeoutRTT default = %v, want %v", cfg.TimeoutRTT, want)
	}
}

func TestSingleRenoSawtooth(t *testing.T) {
	tr := runHomogeneous(t, testCfg(), protocol.Reno(), 1, []float64{1}, 2000)
	// From some point onwards, a single Reno flow oscillates between
	// roughly (C+τ)/2 and C+τ: tail utilization ≥ b(1+τ/C) = 0.6·C.
	tail := stats.Tail(tr.total, 0.5)
	if mn := stats.Min(tail); mn < 0.59*100 {
		t.Fatalf("tail min X = %v, want ≥ 59", mn)
	}
	if mx := stats.Max(tail); mx > 125 {
		t.Fatalf("tail max X = %v, want ≤ C+τ+a", mx)
	}
	// Loss recurs forever (AIMD keeps probing).
	if lossSum := stats.Sum(stats.Tail(tr.loss, 0.5)); lossSum == 0 {
		t.Fatal("AIMD stopped probing: no loss in tail")
	}
}

func TestTwoRenosConverge(t *testing.T) {
	// Start maximally unfair: windows 1 and 100.
	tr := runHomogeneous(t, testCfg(), protocol.Reno(), 2, []float64{1, 100}, 4000)
	a := tr.tailMean(0)
	b := tr.tailMean(1)
	ratio := math.Min(a, b) / math.Max(a, b)
	if ratio < 0.9 {
		t.Fatalf("Reno fairness ratio = %v, want ≥ 0.9", ratio)
	}
}

func TestMIMDPreservesRatios(t *testing.T) {
	// Both MIMD senders multiply by the same factor every step (shared
	// feedback), so the window ratio never changes: MIMD is 0-fair.
	tr := runHomogeneous(t, testCfg(), protocol.Scalable(), 2, []float64{5, 50}, 1000)
	first := tr.windows[0][0] / tr.windows[1][0]
	last := tr.windows[0][len(tr.total)-1] / tr.windows[1][len(tr.total)-1]
	if math.Abs(first-last)/first > 0.01 {
		t.Fatalf("MIMD ratio drifted: %v -> %v", first, last)
	}
}

func TestInfiniteLinkNoCongestion(t *testing.T) {
	cfg := Config{Infinite: true, PropDelay: 0.021, MaxWindow: 1e6}
	tr := runHomogeneous(t, cfg, protocol.Reno(), 1, []float64{1}, 500)
	if mx := stats.Max(tr.loss); mx != 0 {
		t.Fatalf("infinite link produced loss %v", mx)
	}
	// AIMD grows by 1 per step unimpeded.
	if got := tr.windows[0][499]; got != 500 {
		t.Fatalf("window after 500 steps = %v, want 500", got)
	}
	for _, rtt := range tr.rtt {
		if rtt != cfg.BaseRTT() {
			t.Fatalf("infinite link RTT = %v, want %v", rtt, cfg.BaseRTT())
		}
	}
}

func TestAIMDNotRobustToConstantLoss(t *testing.T) {
	// Metric VI scenario: infinite link, constant 1% loss. Reno sees loss
	// every step and pins at the window floor — AIMD is 0-robust.
	cfg := Config{Infinite: true, PropDelay: 0.021, Loss: NewConstantLoss(0.01)}
	tr := runHomogeneous(t, cfg, protocol.Reno(), 1, []float64{1000}, 300)
	if got := tr.windows[0][len(tr.total)-1]; got > 2 {
		t.Fatalf("Reno window under constant loss = %v, want collapse to floor", got)
	}
}

func TestRobustAIMDSurvivesConstantLoss(t *testing.T) {
	// Robust-AIMD(1, 0.8, 0.02) tolerates 1% constant loss and keeps
	// growing without bound — it is 0.02-robust.
	cfg := Config{Infinite: true, PropDelay: 0.021, Loss: NewConstantLoss(0.01), MaxWindow: 1e6}
	tr := runHomogeneous(t, cfg, protocol.NewRobustAIMD(1, 0.8, 0.02), 1, []float64{1}, 2000)
	if got := tr.windows[0][len(tr.total)-1]; got < 1900 {
		t.Fatalf("Robust-AIMD window = %v, want ≈2000 (unimpeded growth)", got)
	}
}

func TestDeterministicRuns(t *testing.T) {
	mk := func() *Link {
		cfg := Config{Infinite: true, PropDelay: 0.021, Loss: NewPacketLoss(0.05), Seed: 99}
		return MustNew(cfg, Sender{Proto: protocol.Reno(), Init: 50})
	}
	tr1 := runLink(mk(), 300)
	tr2 := runLink(mk(), 300)
	for i := range tr1.windows[0] {
		if tr1.windows[0][i] != tr2.windows[0][i] {
			t.Fatalf("same-seed runs diverged at step %d", i)
		}
	}
}

func TestPacketLossSamplingMean(t *testing.T) {
	// With a large window the binomial sample concentrates near R.
	pl := NewPacketLoss(0.1)
	rng := newTestRNG()
	sum := 0.0
	const trials = 200
	for i := 0; i < trials; i++ {
		sum += pl.Rate(i, 0, 1000, rng)
	}
	mean := sum / trials
	if math.Abs(mean-0.1) > 0.01 {
		t.Fatalf("PacketLoss empirical mean = %v, want ≈0.1", mean)
	}
}

func TestPacketLossTinyWindow(t *testing.T) {
	pl := NewPacketLoss(0.5)
	rng := newTestRNG()
	if got := pl.Rate(0, 0, 0.4, rng); got != 0 {
		t.Fatalf("PacketLoss below one segment = %v, want 0", got)
	}
	// One-segment window: rate is 0 or 1.
	for i := 0; i < 50; i++ {
		r := pl.Rate(i, 0, 1, rng)
		if r != 0 && r != 1 {
			t.Fatalf("one-segment loss rate = %v, want 0 or 1", r)
		}
	}
}

func TestOnOffLossSchedule(t *testing.T) {
	ol := NewOnOffLoss(0.2, 2, 5)
	rng := newTestRNG()
	want := []float64{0.2, 0.2, 0, 0, 0, 0.2, 0.2, 0, 0, 0}
	for step, w := range want {
		if got := ol.Rate(step, 0, 100, rng); got != w {
			t.Fatalf("step %d: rate = %v, want %v", step, got, w)
		}
	}
}

func TestLossProcessConstructorsPanic(t *testing.T) {
	cases := []func(){
		func() { NewConstantLoss(-0.1) },
		func() { NewConstantLoss(1) },
		func() { NewPacketLoss(1.5) },
		func() { NewOnOffLoss(0.1, 0, 5) },
		func() { NewOnOffLoss(0.1, 6, 5) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			f()
		}()
	}
}

func TestMixedLink(t *testing.T) {
	tr := runSenders(t, testCfg(), MixedSenders([]protocol.Protocol{protocol.Reno(), protocol.Scalable()}, []float64{10, 10}), 2000)
	// Scalable (MIMD) outcompetes Reno on a shared link.
	reno := tr.tailMean(0)
	scal := tr.tailMean(1)
	if scal <= reno {
		t.Fatalf("Scalable (%v) did not beat Reno (%v)", scal, reno)
	}
}

func TestWindowClamping(t *testing.T) {
	cfg := testCfg()
	cfg.MaxWindow = 50
	// An MIMD sender would blow past 50 quickly; the link must clamp.
	tr := runHomogeneous(t, cfg, protocol.NewMIMD(2, 0.5), 1, []float64{1}, 100)
	if mx := stats.Max(tr.windows[0]); mx > 50 {
		t.Fatalf("window exceeded M: %v", mx)
	}
	if mn := stats.Min(tr.windows[0]); mn < protocol.MinWindow {
		t.Fatalf("window below floor: %v", mn)
	}
}

func TestStepResultFields(t *testing.T) {
	l := MustNew(testCfg(), Sender{Proto: protocol.Reno(), Init: 130})
	res := l.Step()
	if res.Step != 0 {
		t.Fatalf("Step index = %d", res.Step)
	}
	if res.Windows[0] != 130 {
		t.Fatalf("Windows = %v", res.Windows)
	}
	if res.CongLoss <= 0 {
		t.Fatalf("X=130 > C+τ=120 must lose; got %v", res.CongLoss)
	}
	if res.Loss[0] != res.CongLoss {
		t.Fatalf("per-sender loss %v != congestion loss %v", res.Loss[0], res.CongLoss)
	}
	// Next step must reflect the halved window.
	res2 := l.Step()
	if res2.Windows[0] != 65 {
		t.Fatalf("window after loss = %v, want 65", res2.Windows[0])
	}
}

// Property: the loss formula always yields L in [0, 1) and RTT ≥ 2Θ.
func TestQuickCongestionBounds(t *testing.T) {
	l := MustNew(testCfg(), Sender{Proto: protocol.Reno(), Init: 1})
	f := func(raw float64) bool {
		x := math.Abs(math.Mod(raw, 1e9))
		if math.IsNaN(x) {
			return true
		}
		rtt, loss := l.congestion(x)
		return loss >= 0 && loss < 1 && rtt >= l.config().BaseRTT()-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: relabeling homogeneous senders does not change the sorted
// window outcome (sender anonymity).
func TestQuickSenderAnonymity(t *testing.T) {
	f := func(seed uint8) bool {
		w1 := float64(seed%50) + 1
		w2 := float64(seed%31) + 10
		tr1 := runHomogeneous(t, testCfg(), protocol.Reno(), 2, []float64{w1, w2}, 200)
		tr2 := runHomogeneous(t, testCfg(), protocol.Reno(), 2, []float64{w2, w1}, 200)
		last := len(tr1.total) - 1
		a1, b1 := tr1.windows[0][last], tr1.windows[1][last]
		a2, b2 := tr2.windows[0][last], tr2.windows[1][last]
		return math.Min(a1, b1) == math.Min(a2, b2) && math.Max(a1, b1) == math.Max(a2, b2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
