package axioms

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTheorem1Bound(t *testing.T) {
	cases := []struct{ alpha, want float64 }{
		{0, 0},
		{1, 1},
		{0.5, 1.0 / 3},
		{0.9, 0.9 / 1.1},
	}
	for _, c := range cases {
		if got := Theorem1Bound(c.alpha); !near(got, c.want, 1e-12) {
			t.Errorf("Theorem1Bound(%v) = %v, want %v", c.alpha, got, c.want)
		}
	}
}

func TestTheorem1BoundPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for α > 1")
		}
	}()
	Theorem1Bound(1.5)
}

func TestTheorem2Bound(t *testing.T) {
	// Reno's parameters give exactly 1: AIMD(1, 0.5) is 1-TCP-friendly.
	if got := Theorem2Bound(1, 0.5); !near(got, 1, 1e-12) {
		t.Errorf("Theorem2Bound(1,0.5) = %v, want 1", got)
	}
	// Higher efficiency costs friendliness: β = 0.8 ⇒ 3·0.2/1.8 = 1/3.
	if got := Theorem2Bound(1, 0.8); !near(got, 1.0/3, 1e-12) {
		t.Errorf("Theorem2Bound(1,0.8) = %v, want 1/3", got)
	}
	// Faster utilization costs friendliness: α = 2 halves the bound.
	if got := Theorem2Bound(2, 0.5); !near(got, 0.5, 1e-12) {
		t.Errorf("Theorem2Bound(2,0.5) = %v, want 0.5", got)
	}
}

func TestTheorem2Panics(t *testing.T) {
	for i, f := range []func(){
		func() { Theorem2Bound(0, 0.5) },
		func() { Theorem2Bound(1, -0.1) },
		func() { Theorem2Bound(1, 1.1) },
	} {
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

func TestTheorem3Bound(t *testing.T) {
	// At ε = 0, Theorem 3's denominator term 4(C+τ) replaces Theorem 2's
	// α·(C+τ)-free form; the bound is strictly below Theorem 2's for any
	// realistic link (C+τ ≫ α).
	t2 := Theorem2Bound(1, 0.8)
	t3 := Theorem3Bound(1, 0.8, 0.01, 100, 20)
	if t3 >= t2 {
		t.Errorf("Theorem3 (%v) not tighter than Theorem2 (%v)", t3, t2)
	}
	// Exact value: 3·0.2 / ((4·120/0.99 − 1)·1.8).
	want := 0.6 / ((4*120/0.99 - 1) * 1.8)
	if !near(t3, want, 1e-12) {
		t.Errorf("Theorem3Bound = %v, want %v", t3, want)
	}
}

func TestTheorem3MonotoneInEps(t *testing.T) {
	// More robustness ⇒ (weakly) less TCP-friendliness allowed.
	prev := Theorem3Bound(1, 0.8, 0.001, 100, 20)
	for _, eps := range []float64{0.01, 0.05, 0.1, 0.3} {
		cur := Theorem3Bound(1, 0.8, eps, 100, 20)
		if cur > prev {
			t.Fatalf("bound rose with ε: %v -> %v at ε=%v", prev, cur, eps)
		}
		prev = cur
	}
}

func TestTheorem3Panics(t *testing.T) {
	for i, f := range []func(){
		func() { Theorem3Bound(1, 0.8, -0.1, 100, 20) },
		func() { Theorem3Bound(1, 0.8, 1, 100, 20) },
		func() { Theorem3Bound(10, 0.8, 0.01, 2, 0) }, // C+τ ≤ α/2
	} {
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

func TestClaim1Holds(t *testing.T) {
	// A loss-based protocol measured 0-loss and fast-utilizing violates
	// the claim.
	if Claim1Holds(true, 0, 1, 1e-9) {
		t.Error("0-loss + fast-utilizing should violate Claim 1")
	}
	// 0-loss but not fast-utilizing: fine (the Claim 1 probe).
	if !Claim1Holds(true, 0, 0, 1e-9) {
		t.Error("0-loss + stalled should satisfy Claim 1")
	}
	// Lossy and fast-utilizing: fine (AIMD).
	if !Claim1Holds(true, 0.01, 1, 1e-9) {
		t.Error("lossy + fast should satisfy Claim 1")
	}
	// Non-loss-based protocols are unconstrained.
	if !Claim1Holds(false, 0, 1, 1e-9) {
		t.Error("claim must not constrain RTT-based protocols")
	}
}

func TestFeasible(t *testing.T) {
	// Reno's own point is feasible (it's on the frontier).
	if !Feasible(1, 0.5, 1) {
		t.Error("Reno's point must be feasible")
	}
	// Anything above the bound is infeasible.
	if Feasible(1, 0.5, 1.01) {
		t.Error("point above Theorem 2 accepted")
	}
	// α = 0 is unconstrained.
	if !Feasible(0, 0.99, 100) {
		t.Error("α=0 must be unconstrained")
	}
}

func TestFeasibleRobust(t *testing.T) {
	bound := Theorem3Bound(1, 0.8, 0.01, 100, 20)
	if !FeasibleRobust(1, 0.8, 0.01, bound, 100, 20) {
		t.Error("the Theorem 3 point itself must be feasible")
	}
	if FeasibleRobust(1, 0.8, 0.01, bound*1.1, 100, 20) {
		t.Error("point above Theorem 3 accepted")
	}
	// ε = 0 falls back to Theorem 2.
	if !FeasibleRobust(1, 0.5, 0, 1, 100, 20) {
		t.Error("ε=0 must use Theorem 2's bound")
	}
}

func TestMaxRobustFriendliness(t *testing.T) {
	if got := MaxRobustFriendliness(1, 0.5, 0, 100, 20); got != Theorem2Bound(1, 0.5) {
		t.Errorf("ε=0: got %v", got)
	}
	if got := MaxRobustFriendliness(1, 0.5, 0.01, 100, 20); got != Theorem3Bound(1, 0.5, 0.01, 100, 20) {
		t.Errorf("ε>0: got %v", got)
	}
}

// Property: Theorem 2's bound is decreasing in both α and β.
func TestQuickTheorem2Monotone(t *testing.T) {
	f := func(a1, a2, b1, b2 float64) bool {
		alpha1 := math.Mod(math.Abs(a1), 5) + 0.1
		alpha2 := math.Mod(math.Abs(a2), 5) + 0.1
		beta1 := math.Mod(math.Abs(b1), 0.98)
		beta2 := math.Mod(math.Abs(b2), 0.98)
		for _, v := range []float64{alpha1, alpha2, beta1, beta2} {
			if math.IsNaN(v) {
				return true
			}
		}
		if alpha1 > alpha2 {
			alpha1, alpha2 = alpha2, alpha1
		}
		if beta1 > beta2 {
			beta1, beta2 = beta2, beta1
		}
		return Theorem2Bound(alpha1, beta1) >= Theorem2Bound(alpha2, beta1)-1e-12 &&
			Theorem2Bound(alpha1, beta1) >= Theorem2Bound(alpha1, beta2)-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Theorem 3's bound never exceeds Theorem 2's on realistic links
// (C+τ ≥ 1 ≥ α/4 suffices for the denominator comparison).
func TestQuickTheorem3TighterThanTheorem2(t *testing.T) {
	f := func(aRaw, bRaw, eRaw float64) bool {
		alpha := math.Mod(math.Abs(aRaw), 2) + 0.1
		beta := math.Mod(math.Abs(bRaw), 0.98)
		eps := math.Mod(math.Abs(eRaw), 0.5) + 0.001
		for _, v := range []float64{alpha, beta, eps} {
			if math.IsNaN(v) {
				return true
			}
		}
		c, tau := 100.0, 20.0
		return Theorem3Bound(alpha, beta, eps, c, tau) <= Theorem2Bound(alpha, beta)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
