// Package axioms encodes the theory of Sections 4 and 5.1 of "An Axiomatic
// Approach to Congestion Control": the closed-form protocol
// characterizations of Table 1 and the bounds of Claim 1 and Theorems 1-5.
//
// Table 1 gives, for each protocol family, its score in each metric as a
// function of the protocol parameters and the link parameters (capacity C,
// buffer τ, sender count n), plus a worst-case bound across all link
// parameters (the paper's angle-bracket values). Rows here expose both.
//
// Transcription notes (kept faithful to the printed table, with two
// reconstructions documented inline):
//
//   - §2 defines MIMD(a,b) as multiplication by the factor a on loss-free
//     steps (so TCP Scalable is MIMD(1.01, 0.875)). Table 1's MIMD
//     loss-avoidance entry <a/(1+a)> is stated for the increment form
//     x←x(1+a); under the factor form used everywhere else in this
//     repository the same bound reads (a−1)/a, which is what MIMDRow
//     returns (identical quantity, reparameterized).
//   - Table 1's BIN loss-avoidance entry prints as
//     1 − (C+τ)/(C+τ+a((C+τ)/n)^k); evaluated at k = 0 it fails to reduce
//     to the AIMD entry (n·a missing). BinRow uses the derivation the
//     paper's model implies: near X = C+τ every sender holds x ≈ (C+τ)/n
//     and increases by a/x^k, so the aggregate per-step increase is
//     n·a·(n/(C+τ))^k and the post-overshoot loss rate is
//     1 − (C+τ)/(C+τ + n·a·(n/(C+τ))^k), which reduces to the AIMD entry
//     at k = 0.
package axioms

import (
	"fmt"
	"math"
)

// Link carries the network parameters Table 1's nuanced (non-worst-case)
// entries depend on.
type Link struct {
	C   float64 // capacity B·2Θ in MSS
	Tau float64 // buffer size τ in MSS
	N   int     // number of senders
}

// Validate reports whether the link parameters are usable.
func (l Link) Validate() error {
	if !(l.C > 0) || math.IsInf(l.C, 1) {
		return fmt.Errorf("axioms: capacity must be positive and finite, got %v", l.C)
	}
	if !(l.Tau >= 0) || math.IsInf(l.Tau, 1) {
		return fmt.Errorf("axioms: buffer must be non-negative and finite, got %v", l.Tau)
	}
	if l.N < 1 {
		return fmt.Errorf("axioms: need at least one sender, got %d", l.N)
	}
	return nil
}

// Scores holds one protocol's theoretical metric values. Orientation
// follows the paper: Efficiency, FastUtilization, TCPFriendliness,
// Fairness, Convergence and Robustness are better when larger;
// LossAvoidance is better when smaller. FastUtilization may be +Inf
// (MIMD).
type Scores struct {
	Efficiency      float64
	LossAvoidance   float64
	FastUtilization float64
	TCPFriendliness float64
	Fairness        float64
	Convergence     float64
	Robustness      float64
}

// Row is one line of Table 1: the parameter-dependent scores evaluated at
// a concrete link, and the worst-case (angle-bracket) bounds that hold
// across all link parameters.
type Row struct {
	Name      string
	At        Scores // evaluated at the given Link
	WorstCase Scores // the paper's angle-bracket values
}

// AIMDRow returns Table 1's AIMD(a,b) row at link lp.
func AIMDRow(a, b float64, lp Link) Row {
	eff := math.Min(1, b*(1+lp.Tau/lp.C))
	loss := 1 - (lp.C+lp.Tau)/(lp.C+lp.Tau+float64(lp.N)*a)
	friendly := 3 * (1 - b) / (a * (1 + b))
	conv := 2 * b / (1 + b)
	return Row{
		Name: fmt.Sprintf("AIMD(%g,%g)", a, b),
		At: Scores{
			Efficiency:      eff,
			LossAvoidance:   loss,
			FastUtilization: a,
			TCPFriendliness: friendly,
			Fairness:        1,
			Convergence:     conv,
			Robustness:      0,
		},
		WorstCase: Scores{
			Efficiency:      b,
			LossAvoidance:   1,
			FastUtilization: a,
			TCPFriendliness: friendly,
			Fairness:        1,
			Convergence:     conv,
			Robustness:      0,
		},
	}
}

// MIMDRow returns Table 1's MIMD(a,b) row at link lp, with a the loss-free
// multiplicative factor (a > 1), per §2's definition. See the package
// comment for the loss-avoidance reparameterization.
func MIMDRow(a, b float64, lp Link) Row {
	eff := math.Min(1, b*(1+lp.Tau/lp.C))
	// Worst-case single-step overshoot: X grows by factor a past C+τ.
	lossWorst := (a - 1) / a
	// TCP-friendliness: the nuanced entry from Table 1. The number of
	// loss-free steps MIMD needs to recover a factor-b decrease is
	// log_a(1/b); the entry charges two such recoveries against the
	// link's C+τ budget.
	rec := 2 * math.Log(1/b) / math.Log(a)
	friendly := 0.0
	if lp.C+lp.Tau > rec {
		friendly = rec / (lp.C + lp.Tau - rec)
	} else {
		friendly = math.Inf(1) // degenerate tiny link; bound vacuous
	}
	conv := 2 * b / (1 + b)
	return Row{
		Name: fmt.Sprintf("MIMD(%g,%g)", a, b),
		At: Scores{
			Efficiency:      eff,
			LossAvoidance:   lossWorst,
			FastUtilization: math.Inf(1),
			TCPFriendliness: friendly,
			Fairness:        0,
			Convergence:     conv,
			Robustness:      0,
		},
		WorstCase: Scores{
			Efficiency:      b,
			LossAvoidance:   lossWorst,
			FastUtilization: math.Inf(1),
			TCPFriendliness: 0,
			Fairness:        0,
			Convergence:     conv,
			Robustness:      0,
		},
	}
}

// BinRow returns Table 1's BIN(a,b,k,l) row at link lp. Parameter order
// follows §2's definition BIN(a,b,k,l): k is the increase exponent
// (x += a/x^k), l the decrease exponent (x −= b·x^l).
func BinRow(a, b, k, l float64, lp Link) Row {
	// Decrease at window x removes b·x^l; for the efficiency bound the
	// paper evaluates the relative decrease at l = 1 scale: factor (1−b).
	eff := math.Min(1, (1-b)*(1+lp.Tau/lp.C))
	x := (lp.C + lp.Tau) / float64(lp.N)
	aggInc := float64(lp.N) * a / math.Pow(x, k)
	loss := aggInc / (lp.C + lp.Tau + aggInc)
	fast := a
	fastWorst := a
	if k > 0 {
		fast = 0
		fastWorst = 0
	}
	var friendly float64
	if l+k >= 1 {
		friendly = math.Sqrt(1.5) * math.Pow(b/a, 1/(1+l+k))
	}
	conv := (2 - 2*b) / (2 - b)
	return Row{
		Name: fmt.Sprintf("BIN(%g,%g,%g,%g)", a, b, k, l),
		At: Scores{
			Efficiency:      eff,
			LossAvoidance:   loss,
			FastUtilization: fast,
			TCPFriendliness: friendly,
			Fairness:        1,
			Convergence:     conv,
			Robustness:      0,
		},
		WorstCase: Scores{
			Efficiency:      1 - b,
			LossAvoidance:   1,
			FastUtilization: fastWorst,
			TCPFriendliness: friendly,
			Fairness:        1,
			Convergence:     conv,
			Robustness:      0,
		},
	}
}

// CubicRow returns Table 1's CUBIC(c,b) row at link lp.
func CubicRow(c, b float64, lp Link) Row {
	eff := math.Min(1, b*(1+lp.Tau/lp.C))
	loss := 1 - (lp.C+lp.Tau)/(lp.C+lp.Tau+float64(lp.N)*c)
	friendly := math.Sqrt(1.5) * math.Pow(4*(1-b)/(c*(3+b)*(lp.C+lp.Tau)), 0.25)
	conv := 2 * b / (1 + b)
	return Row{
		Name: fmt.Sprintf("CUBIC(%g,%g)", c, b),
		At: Scores{
			Efficiency:      eff,
			LossAvoidance:   loss,
			FastUtilization: c,
			TCPFriendliness: friendly,
			Fairness:        1,
			Convergence:     conv,
			Robustness:      0,
		},
		WorstCase: Scores{
			Efficiency:      b,
			LossAvoidance:   1,
			FastUtilization: c,
			TCPFriendliness: 0,
			Fairness:        1,
			Convergence:     conv,
			Robustness:      0,
		},
	}
}

// RobustAIMDRow returns Table 1's Robust-AIMD(a,b,k) row at link lp, where
// k is the tolerated loss rate ε.
func RobustAIMDRow(a, b, k float64, lp Link) Row {
	eff := math.Min(1, b*(1+lp.Tau/lp.C)/(1-k))
	na := float64(lp.N) * a
	loss := ((lp.C+lp.Tau)*k + na*(1-k)) / ((lp.C + lp.Tau) + na*(1-k))
	friendly := Theorem3Bound(a, b, k, lp.C, lp.Tau)
	conv := 2 * b / (1 + b)
	return Row{
		Name: fmt.Sprintf("RobustAIMD(%g,%g,%g)", a, b, k),
		At: Scores{
			Efficiency:      eff,
			LossAvoidance:   loss,
			FastUtilization: a,
			TCPFriendliness: friendly,
			Fairness:        1,
			Convergence:     conv,
			Robustness:      k,
		},
		WorstCase: Scores{
			Efficiency:      math.Min(1, b/(1-k)),
			LossAvoidance:   1,
			FastUtilization: a,
			TCPFriendliness: 0,
			Fairness:        1,
			Convergence:     conv,
			Robustness:      k,
		},
	}
}
