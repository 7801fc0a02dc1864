package axioms

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/protocol"
)

var testLink = Link{C: 100, Tau: 20, N: 2}

func near(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestLinkValidate(t *testing.T) {
	if err := testLink.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Link{
		{C: 0, Tau: 0, N: 1},
		{C: 100, Tau: -1, N: 1},
		{C: 100, Tau: 0, N: 0},
		{C: math.NaN(), Tau: 0, N: 1},
		{C: math.Inf(1), Tau: 0, N: 1},
		{C: math.Inf(-1), Tau: 0, N: 1},
		{C: 100, Tau: math.NaN(), N: 1},
		{C: 100, Tau: math.Inf(1), N: 1},
		{C: 100, Tau: math.Inf(-1), N: 1},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("case %d: invalid link accepted", i)
		}
	}
}

func TestAIMDRowReno(t *testing.T) {
	r := AIMDRow(1, 0.5, testLink)
	// Efficiency: min(1, 0.5·(1+0.2)) = 0.6.
	if !near(r.At.Efficiency, 0.6, 1e-12) {
		t.Errorf("efficiency = %v, want 0.6", r.At.Efficiency)
	}
	// Loss: 1 − 120/(120+2·1) = 2/122.
	if !near(r.At.LossAvoidance, 2.0/122, 1e-12) {
		t.Errorf("loss = %v, want %v", r.At.LossAvoidance, 2.0/122)
	}
	if r.At.FastUtilization != 1 {
		t.Errorf("fast = %v, want 1", r.At.FastUtilization)
	}
	// Friendliness: 3·0.5/(1·1.5) = 1 — Reno is 1-friendly to itself.
	if !near(r.At.TCPFriendliness, 1, 1e-12) {
		t.Errorf("friendliness = %v, want 1", r.At.TCPFriendliness)
	}
	if r.At.Fairness != 1 {
		t.Errorf("fairness = %v, want 1", r.At.Fairness)
	}
	// Convergence: 2·0.5/1.5 = 2/3.
	if !near(r.At.Convergence, 2.0/3, 1e-12) {
		t.Errorf("convergence = %v, want 2/3", r.At.Convergence)
	}
	if r.At.Robustness != 0 {
		t.Errorf("robustness = %v, want 0", r.At.Robustness)
	}
	// Worst cases: <b>, <1>, <a>, same friendliness, <1>, <2b/(1+b)>.
	if r.WorstCase.Efficiency != 0.5 || r.WorstCase.LossAvoidance != 1 {
		t.Errorf("worst case = %+v", r.WorstCase)
	}
}

func TestAIMDEfficiencyCapsAtOne(t *testing.T) {
	// Deep buffer: b(1+τ/C) > 1 must clamp.
	r := AIMDRow(1, 0.9, Link{C: 100, Tau: 50, N: 1})
	if r.At.Efficiency != 1 {
		t.Errorf("efficiency = %v, want capped 1", r.At.Efficiency)
	}
}

func TestMIMDRowScalable(t *testing.T) {
	r := MIMDRow(1.01, 0.875, testLink)
	if !near(r.At.Efficiency, math.Min(1, 0.875*1.2), 1e-12) {
		t.Errorf("efficiency = %v", r.At.Efficiency)
	}
	// Loss bound under the factor form: (a−1)/a.
	if !near(r.At.LossAvoidance, 0.01/1.01, 1e-12) {
		t.Errorf("loss = %v, want %v", r.At.LossAvoidance, 0.01/1.01)
	}
	if !math.IsInf(r.At.FastUtilization, 1) {
		t.Errorf("fast = %v, want +Inf", r.At.FastUtilization)
	}
	if r.At.Fairness != 0 || r.WorstCase.Fairness != 0 {
		t.Errorf("MIMD fairness must be 0, got %v/%v", r.At.Fairness, r.WorstCase.Fairness)
	}
	if r.WorstCase.TCPFriendliness != 0 {
		t.Errorf("MIMD worst-case friendliness = %v, want 0", r.WorstCase.TCPFriendliness)
	}
	// Nuanced friendliness: rec/(C+τ−rec) with rec = 2·ln(1/b)/ln(a).
	rec := 2 * math.Log(1/0.875) / math.Log(1.01)
	want := rec / (120 - rec)
	if !near(r.At.TCPFriendliness, want, 1e-9) {
		t.Errorf("friendliness = %v, want %v", r.At.TCPFriendliness, want)
	}
}

func TestMIMDTinyLinkDegenerate(t *testing.T) {
	// When 2·log_a(1/b) exceeds C+τ the nuanced entry is vacuous (+Inf).
	r := MIMDRow(1.01, 0.5, Link{C: 10, Tau: 0, N: 1})
	if !math.IsInf(r.At.TCPFriendliness, 1) {
		t.Errorf("tiny-link friendliness = %v, want +Inf", r.At.TCPFriendliness)
	}
}

func TestBinRowReducesToAIMDAtK0L1(t *testing.T) {
	bin := BinRow(1, 0.5, 0, 1, testLink)
	aimd := AIMDRow(1, 0.5, testLink)
	if !near(bin.At.Efficiency, aimd.At.Efficiency, 1e-12) {
		t.Errorf("efficiency %v != %v", bin.At.Efficiency, aimd.At.Efficiency)
	}
	if !near(bin.At.LossAvoidance, aimd.At.LossAvoidance, 1e-12) {
		t.Errorf("loss %v != %v", bin.At.LossAvoidance, aimd.At.LossAvoidance)
	}
	if bin.At.FastUtilization != 1 {
		t.Errorf("fast = %v, want 1", bin.At.FastUtilization)
	}
}

func TestBinRowSQRT(t *testing.T) {
	// SQRT = BIN(1, 0.5, 0.5, 0.5): k > 0 ⇒ 0-fast-utilizing; l+k = 1 ⇒
	// friendliness √1.5·(b/a)^(1/2).
	r := BinRow(1, 0.5, 0.5, 0.5, testLink)
	if r.At.FastUtilization != 0 {
		t.Errorf("fast = %v, want 0", r.At.FastUtilization)
	}
	want := math.Sqrt(1.5) * math.Pow(0.5, 1/2.0)
	if !near(r.At.TCPFriendliness, want, 1e-12) {
		t.Errorf("friendliness = %v, want %v", r.At.TCPFriendliness, want)
	}
	// Convergence: (2−2b)/(2−b) = 1/1.5.
	if !near(r.At.Convergence, 1/1.5, 1e-12) {
		t.Errorf("convergence = %v, want %v", r.At.Convergence, 1/1.5)
	}
}

func TestBinRowFriendlinessZeroBelowUnitExponent(t *testing.T) {
	// l + k < 1 ⇒ <0>-TCP-friendly.
	r := BinRow(1, 0.5, 0.2, 0.2, testLink)
	if r.At.TCPFriendliness != 0 {
		t.Errorf("friendliness = %v, want 0", r.At.TCPFriendliness)
	}
}

func TestCubicRowLinux(t *testing.T) {
	r := CubicRow(0.4, 0.8, testLink)
	if !near(r.At.Efficiency, math.Min(1, 0.8*1.2), 1e-12) {
		t.Errorf("efficiency = %v", r.At.Efficiency)
	}
	if !near(r.At.LossAvoidance, 1-120/(120+2*0.4), 1e-12) {
		t.Errorf("loss = %v", r.At.LossAvoidance)
	}
	if r.At.FastUtilization != 0.4 {
		t.Errorf("fast = %v, want c = 0.4", r.At.FastUtilization)
	}
	want := math.Sqrt(1.5) * math.Pow(4*0.2/(0.4*3.8*120), 0.25)
	if !near(r.At.TCPFriendliness, want, 1e-12) {
		t.Errorf("friendliness = %v, want %v", r.At.TCPFriendliness, want)
	}
	// Cubic friendliness decays with capacity (the (C+τ)^(−1/4) factor).
	big := CubicRow(0.4, 0.8, Link{C: 10000, Tau: 20, N: 2})
	if big.At.TCPFriendliness >= r.At.TCPFriendliness {
		t.Errorf("Cubic friendliness must shrink with capacity")
	}
}

func TestRobustAIMDRow(t *testing.T) {
	r := RobustAIMDRow(1, 0.8, 0.01, testLink)
	// Efficiency: min(1, b(1+τ/C)/(1−k)) = min(1, 0.96/0.99).
	if !near(r.At.Efficiency, 0.96/0.99, 1e-12) {
		t.Errorf("efficiency = %v, want %v", r.At.Efficiency, 0.96/0.99)
	}
	// Loss: ((C+τ)k + na(1−k)) / ((C+τ) + na(1−k)).
	want := (120*0.01 + 2*0.99) / (120 + 2*0.99)
	if !near(r.At.LossAvoidance, want, 1e-12) {
		t.Errorf("loss = %v, want %v", r.At.LossAvoidance, want)
	}
	if r.At.Robustness != 0.01 {
		t.Errorf("robustness = %v, want ε = 0.01", r.At.Robustness)
	}
	// Friendliness equals Theorem 3's bound at (a, b, ε, C, τ).
	if !near(r.At.TCPFriendliness, Theorem3Bound(1, 0.8, 0.01, 100, 20), 1e-12) {
		t.Errorf("friendliness = %v", r.At.TCPFriendliness)
	}
}

func TestRobustAIMDMoreEfficientThanAIMDSameB(t *testing.T) {
	// The 1/(1−k) factor buys efficiency relative to plain AIMD(a,b).
	ra := RobustAIMDRow(1, 0.5, 0.1, testLink)
	plain := AIMDRow(1, 0.5, testLink)
	if ra.At.Efficiency <= plain.At.Efficiency {
		t.Errorf("Robust-AIMD efficiency %v ≤ AIMD %v", ra.At.Efficiency, plain.At.Efficiency)
	}
}

func TestFamilyRowDispatch(t *testing.T) {
	cases := []struct {
		p    protocol.Protocol
		want string
	}{
		{protocol.Reno(), "AIMD(1,0.5)"},
		{protocol.Scalable(), "MIMD(1.01,0.875)"},
		{protocol.SQRT(), "BIN(1,0.5,0.5,0.5)"},
		{protocol.CubicLinux(), "CUBIC(0.4,0.8)"},
		{protocol.NewRobustAIMD(1, 0.8, 0.01), "RobustAIMD(1,0.8,0.01)"},
	}
	for _, c := range cases {
		r, err := FamilyRow(c.p, testLink)
		if err != nil {
			t.Errorf("%s: %v", c.p.Name(), err)
			continue
		}
		if r.Name != c.want {
			t.Errorf("row name = %q, want %q", r.Name, c.want)
		}
	}
	if _, err := FamilyRow(protocol.DefaultPCC(), testLink); err == nil {
		t.Error("PCC has no Table 1 row; expected error")
	}
	if _, err := FamilyRow(protocol.Reno(), Link{}); err == nil {
		t.Error("invalid link accepted")
	}
}

func TestTable1RowCount(t *testing.T) {
	rows := Table1(testLink)
	if len(rows) != 5 {
		t.Fatalf("Table1 has %d rows, want 5", len(rows))
	}
	// Only Robust-AIMD is robust.
	for _, r := range rows {
		isRA := r.Name == "RobustAIMD(1,0.8,0.01)"
		if (r.At.Robustness > 0) != isRA {
			t.Errorf("%s robustness = %v", r.Name, r.At.Robustness)
		}
	}
}

// Property: AIMD efficiency formula stays in (0, 1] for valid parameters.
func TestQuickAIMDEfficiencyBounds(t *testing.T) {
	f := func(bRaw, tauRaw float64) bool {
		b := math.Mod(math.Abs(bRaw), 0.98) + 0.01
		tau := math.Mod(math.Abs(tauRaw), 1000)
		if math.IsNaN(b) || math.IsNaN(tau) {
			return true
		}
		r := AIMDRow(1, b, Link{C: 100, Tau: tau, N: 2})
		return r.At.Efficiency > 0 && r.At.Efficiency <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: loss-avoidance entries are valid rates in [0, 1).
func TestQuickLossEntriesAreRates(t *testing.T) {
	f := func(nRaw uint8, aRaw float64) bool {
		n := int(nRaw%20) + 1
		a := math.Mod(math.Abs(aRaw), 10) + 0.1
		if math.IsNaN(a) {
			return true
		}
		lp := Link{C: 100, Tau: 20, N: n}
		rows := []Row{
			AIMDRow(a, 0.5, lp),
			BinRow(a, 0.5, 0.5, 0.5, lp),
			CubicRow(a, 0.8, lp),
			RobustAIMDRow(a, 0.8, 0.01, lp),
		}
		for _, r := range rows {
			if r.At.LossAvoidance < 0 || r.At.LossAvoidance >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
