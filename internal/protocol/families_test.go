package protocol

import (
	"math"
	"testing"
	"testing/quick"
)

func fbNoLoss(w float64) Feedback  { return Feedback{Window: w, RTT: 0.042, Loss: 0} }
func fbLoss(w, l float64) Feedback { return Feedback{Window: w, RTT: 0.042, Loss: l} }

func TestAIMDUpdateRule(t *testing.T) {
	p := NewAIMD(2, 0.5)
	if got := p.Next(fbNoLoss(10)); got != 12 {
		t.Fatalf("AIMD increase: got %v, want 12", got)
	}
	if got := p.Next(fbLoss(12, 0.01)); got != 6 {
		t.Fatalf("AIMD decrease: got %v, want 6", got)
	}
}

func TestRenoIsAIMD1Half(t *testing.T) {
	p := Reno()
	if p.A != 1 || p.B != 0.5 {
		t.Fatalf("Reno = AIMD(%v,%v), want AIMD(1,0.5)", p.A, p.B)
	}
	if p.Name() != "AIMD(1,0.5)" {
		t.Fatalf("Reno.Name() = %q", p.Name())
	}
}

func TestAIMDConstructorPanics(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct{ a, b float64 }{
		{0, 0.5}, {-1, 0.5}, {1, 0}, {1, 1}, {1, 1.5},
		{nan, 0.5}, {1, nan}, {inf, 0.5}, {1, inf},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewAIMD(%v,%v) did not panic", c.a, c.b)
				}
			}()
			NewAIMD(c.a, c.b)
		}()
	}
}

func TestMIMDUpdateRule(t *testing.T) {
	p := NewMIMD(1.1, 0.5)
	if got := p.Next(fbNoLoss(10)); math.Abs(got-11) > 1e-12 {
		t.Fatalf("MIMD increase: got %v, want 11", got)
	}
	if got := p.Next(fbLoss(10, 0.2)); got != 5 {
		t.Fatalf("MIMD decrease: got %v, want 5", got)
	}
}

func TestScalableParams(t *testing.T) {
	p := Scalable()
	if p.A != 1.01 || p.B != 0.875 {
		t.Fatalf("Scalable = MIMD(%v,%v)", p.A, p.B)
	}
	q := ScalableAIMD()
	if q.A != 1 || q.B != 0.875 {
		t.Fatalf("ScalableAIMD = AIMD(%v,%v)", q.A, q.B)
	}
}

func TestMIMDConstructorPanics(t *testing.T) {
	for _, c := range []struct{ a, b float64 }{{1, 0.5}, {0.9, 0.5}, {1.1, 0}, {1.1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMIMD(%v,%v) did not panic", c.a, c.b)
				}
			}()
			NewMIMD(c.a, c.b)
		}()
	}
}

func TestBinomialUpdateRule(t *testing.T) {
	// BIN(a,b,k,l): x + a/x^k on no loss; x − b·x^l on loss.
	p := NewBinomial(2, 0.5, 1, 0.5)
	if got := p.Next(fbNoLoss(4)); math.Abs(got-4.5) > 1e-12 {
		t.Fatalf("BIN increase: got %v, want 4.5", got)
	}
	if got := p.Next(fbLoss(4, 0.1)); math.Abs(got-3) > 1e-12 {
		t.Fatalf("BIN decrease: got %v, want 3 (4 − 0.5·2)", got)
	}
}

func TestBinomialK0L1IsAIMD(t *testing.T) {
	// BIN(a, b, 0, 1) must coincide with AIMD(a, 1−?): increase x+a,
	// decrease x − b·x = (1−b)x.
	bin := NewBinomial(1, 0.5, 0, 1)
	aimd := NewAIMD(1, 0.5)
	for _, w := range []float64{1, 2, 10, 123.5} {
		if g, want := bin.Next(fbNoLoss(w)), aimd.Next(fbNoLoss(w)); math.Abs(g-want) > 1e-12 {
			t.Fatalf("increase mismatch at w=%v: %v vs %v", w, g, want)
		}
		if g, want := bin.Next(fbLoss(w, 0.1)), aimd.Next(fbLoss(w, 0.1)); math.Abs(g-want) > 1e-12 {
			t.Fatalf("decrease mismatch at w=%v: %v vs %v", w, g, want)
		}
	}
}

func TestBinomialGuardsTinyWindow(t *testing.T) {
	// a/x^k with x below the floor must not explode.
	p := NewBinomial(1, 1, 2, 0)
	got := p.Next(fbNoLoss(0.001))
	if got > MinWindow+1+1e-9 {
		t.Fatalf("BIN at tiny window = %v, want ≤ %v", got, MinWindow+1)
	}
}

func TestCubicCurveShape(t *testing.T) {
	p := NewCubic(0.4, 0.8)
	// Prime with one loss at window 100: next window = 80, xmax = 100.
	if got := p.Next(fbLoss(100, 0.1)); math.Abs(got-80) > 1e-12 {
		t.Fatalf("CUBIC after loss: got %v, want 80", got)
	}
	// K = (100·0.2/0.4)^(1/3) = 50^(1/3) ≈ 3.684.
	k := math.Cbrt(50)
	// After exactly K steps the curve re-crosses xmax = 100. Step through
	// floor(K) steps and check we are still below, then pass K.
	var w float64
	steps := 0
	for w = 80; steps < 10; steps++ {
		w = p.Next(fbNoLoss(w))
		if float64(steps+1) < k && w > 100+1e-9 {
			t.Fatalf("window crossed xmax before inflection: step %d w=%v", steps+1, w)
		}
		if float64(steps+1) >= k+1 && w < 100 {
			t.Fatalf("window below xmax after inflection: step %d w=%v", steps+1, w)
		}
	}
	// Cubic growth: far beyond the plateau, the increment accelerates.
	d1 := p.Next(fbNoLoss(w)) - w
	w2 := w + d1
	d2 := p.Next(fbNoLoss(w2)) - w2
	if d2 <= d1 {
		t.Fatalf("cubic not accelerating: d1=%v d2=%v", d1, d2)
	}
}

func TestCubicPrimesFromInitialWindow(t *testing.T) {
	p := NewCubic(0.4, 0.8)
	// With no loss ever, the first step must not collapse the window.
	got := p.Next(fbNoLoss(50))
	if got < 50 {
		t.Fatalf("CUBIC first loss-free step shrank window: %v < 50", got)
	}
}

func TestCubicPlateauNearXmax(t *testing.T) {
	p := NewCubic(0.4, 0.8)
	p.Next(fbLoss(1000, 0.1)) // xmax = 1000, w = 800
	// Near the inflection the per-step change is small relative to xmax.
	w := 800.0
	k := math.Cbrt(1000 * 0.2 / 0.4)
	for i := 1; float64(i) <= k; i++ {
		w = p.Next(fbNoLoss(w))
	}
	// w should now be within a few MSS of xmax = 1000.
	if math.Abs(w-1000) > 25 {
		t.Fatalf("window at inflection = %v, want ≈1000", w)
	}
}

func TestRobustAIMDToleratesLossBelowEps(t *testing.T) {
	p := NewRobustAIMD(1, 0.8, 0.01)
	if got := p.Next(fbLoss(100, 0.005)); got != 101 {
		t.Fatalf("R-AIMD under tolerable loss: got %v, want 101", got)
	}
	if got := p.Next(fbLoss(100, 0.01)); got != 80 {
		t.Fatalf("R-AIMD at eps loss: got %v, want 80", got)
	}
	if got := p.Next(fbLoss(100, 0.5)); got != 80 {
		t.Fatalf("R-AIMD heavy loss: got %v, want 80", got)
	}
	if got := p.Next(fbNoLoss(100)); got != 101 {
		t.Fatalf("R-AIMD no loss: got %v, want 101", got)
	}
}

func TestLossBasedFlags(t *testing.T) {
	cases := []struct {
		p    Protocol
		want bool
	}{
		{Reno(), true},
		{Scalable(), true},
		{IIAD(), true},
		{CubicLinux(), true},
		{NewRobustAIMD(1, 0.8, 0.01), true},
		{DefaultPCC(), true},
		{DefaultVegas(), false},
		{NewProbeUntilLoss(1), true},
	}
	for _, c := range cases {
		if got := c.p.LossBased(); got != c.want {
			t.Errorf("%s.LossBased() = %v, want %v", c.p.Name(), got, c.want)
		}
	}
}

func TestCloneResetsState(t *testing.T) {
	// Drive a Cubic into a post-loss state, clone, and verify the clone
	// behaves like a fresh instance.
	p := NewCubic(0.4, 0.8)
	p.Next(fbLoss(100, 0.1))
	p.Next(fbNoLoss(80))

	clone := p.Clone().(*Cubic)
	fresh := NewCubic(0.4, 0.8)
	for i := 0; i < 5; i++ {
		fb := fbNoLoss(50 + float64(i))
		if g, w := clone.Next(fb), fresh.Next(fb); math.Abs(g-w) > 1e-12 {
			t.Fatalf("step %d: clone %v != fresh %v", i, g, w)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	// Two clones of the same stateful protocol must not share state.
	orig := DefaultPCC()
	a := orig.Clone()
	b := orig.Clone()
	a.Next(fbLoss(100, 0.2))
	a.Next(fbLoss(90, 0.2))
	// b's first decision must be unaffected by a's history.
	fresh := DefaultPCC()
	if g, w := b.Next(fbNoLoss(100)), fresh.Next(fbNoLoss(100)); g != w {
		t.Fatalf("clone b contaminated by a: %v != %v", g, w)
	}
}

func TestDeterminism(t *testing.T) {
	// Same feedback sequence ⇒ same window sequence, for every family.
	protos := []func() Protocol{
		func() Protocol { return Reno() },
		func() Protocol { return Scalable() },
		func() Protocol { return SQRT() },
		func() Protocol { return CubicLinux() },
		func() Protocol { return NewRobustAIMD(1, 0.8, 0.01) },
		func() Protocol { return DefaultPCC() },
		func() Protocol { return DefaultVegas() },
		func() Protocol { return NewProbeUntilLoss(1) },
	}
	fbs := []Feedback{
		fbNoLoss(10), fbNoLoss(11), fbLoss(12, 0.05), fbNoLoss(6),
		fbLoss(7, 0.2), fbNoLoss(4), fbNoLoss(5), fbNoLoss(6),
	}
	for _, mk := range protos {
		p1, p2 := mk(), mk()
		for i, fb := range fbs {
			if g1, g2 := p1.Next(fb), p2.Next(fb); g1 != g2 {
				t.Errorf("%s: nondeterministic at step %d: %v != %v", p1.Name(), i, g1, g2)
			}
		}
	}
}

func TestProbeUntilLossFreezes(t *testing.T) {
	p := NewProbeUntilLoss(1)
	w := 10.0
	for i := 0; i < 5; i++ {
		nw := p.Next(fbNoLoss(w))
		if nw != w+1 {
			t.Fatalf("probe should increase by 1: %v -> %v", w, nw)
		}
		w = nw
	}
	frozen := p.Next(fbLoss(w, 0.1))
	if frozen != w/2 {
		t.Fatalf("freeze value = %v, want %v", frozen, w/2)
	}
	// Forever after, the window stays frozen even with no loss.
	for i := 0; i < 100; i++ {
		if got := p.Next(fbNoLoss(frozen)); got != frozen {
			t.Fatalf("probe moved after freezing: %v != %v", got, frozen)
		}
	}
}

func TestVegasSteersQueueOccupancy(t *testing.T) {
	p := DefaultVegas()
	base := 0.042
	// First observation sets baseRTT; diff = 0 < α ⇒ increase.
	if got := p.Next(Feedback{Window: 10, RTT: base}); got != 11 {
		t.Fatalf("Vegas initial increase: got %v, want 11", got)
	}
	// RTT doubled: diff = w·(1−base/rtt) = 10 ⇒ above β = 4 ⇒ decrease.
	if got := p.Next(Feedback{Window: 20, RTT: 2 * base}); got != 19 {
		t.Fatalf("Vegas decrease: got %v, want 19", got)
	}
	// diff within [α, β]: hold. w=30, need diff in [2,4]: RTT such that
	// 30·(1−base/rtt) = 3 ⇒ rtt = base/(1−0.1) ≈ base·1.111.
	rtt := base / (1 - 0.1)
	if got := p.Next(Feedback{Window: 30, RTT: rtt}); got != 30 {
		t.Fatalf("Vegas hold: got %v, want 30", got)
	}
	// Loss: halve.
	if got := p.Next(Feedback{Window: 30, RTT: base, Loss: 0.1}); got != 15 {
		t.Fatalf("Vegas on loss: got %v, want 15", got)
	}
}

func TestPCCToleratesModerateLoss(t *testing.T) {
	// Under sustained 2% loss (below δ=20's ~4.8% tolerance), PCC keeps
	// growing from a starting window.
	p := DefaultPCC()
	w := 100.0
	for i := 0; i < 50; i++ {
		w = p.Next(Feedback{Step: i, Window: w, RTT: 0.042, Loss: 0.02})
	}
	if w <= 100 {
		t.Fatalf("PCC collapsed under 2%% loss: w = %v", w)
	}
}

func TestPCCBacksOffUnderHeavyLoss(t *testing.T) {
	// Under 20% loss, utility is negative and shrinking the window
	// improves it, so PCC must come down.
	p := DefaultPCC()
	w := 1000.0
	for i := 0; i < 200; i++ {
		w = p.Next(Feedback{Step: i, Window: w, RTT: 0.042, Loss: 0.2})
	}
	if w >= 1000 {
		t.Fatalf("PCC did not back off under 20%% loss: w = %v", w)
	}
}

func TestPCCMoreAggressiveThanReno(t *testing.T) {
	// Loss-free growth over 50 steps: PCC (multiplicative) must outgrow
	// Reno (additive) from the same starting window. This is the paper's
	// "strictly more aggressive than MIMD(1.01,0.99)" sanity direction.
	pcc, reno := DefaultPCC(), Reno()
	wp, wr := 100.0, 100.0
	for i := 0; i < 50; i++ {
		wp = pcc.Next(Feedback{Step: i, Window: wp})
		wr = reno.Next(Feedback{Step: i, Window: wr})
	}
	if wp <= wr {
		t.Fatalf("PCC (%v) did not outgrow Reno (%v) in 50 loss-free steps", wp, wr)
	}
}

func TestClampBounds(t *testing.T) {
	if got := Clamp(0.5, 100); got != MinWindow {
		t.Fatalf("Clamp low = %v", got)
	}
	if got := Clamp(150, 100); got != 100 {
		t.Fatalf("Clamp high = %v", got)
	}
	if got := Clamp(50, 100); got != 50 {
		t.Fatalf("Clamp mid = %v", got)
	}
}

// Property: AIMD's update is monotone in the window for both branches.
func TestQuickAIMDMonotone(t *testing.T) {
	p := Reno()
	f := func(w1, w2 float64) bool {
		a := math.Abs(math.Mod(w1, 1e6)) + 1
		b := math.Abs(math.Mod(w2, 1e6)) + 1
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		inc := p.Next(fbNoLoss(a)) <= p.Next(fbNoLoss(b))
		dec := p.Next(fbLoss(a, 0.1)) <= p.Next(fbLoss(b, 0.1))
		return inc && dec
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: every family's decrease branch shrinks the window
// (for windows above the floor).
func TestQuickDecreaseShrinks(t *testing.T) {
	f := func(raw float64) bool {
		w := math.Abs(math.Mod(raw, 1e6)) + 2
		if math.IsNaN(w) {
			return true
		}
		for _, p := range []Protocol{Reno(), Scalable(), SQRT(), NewRobustAIMD(1, 0.8, 0.01)} {
			if p.Next(fbLoss(w, 0.5)) >= w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
