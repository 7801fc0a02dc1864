package axioms

import (
	"fmt"
	"math"

	"repro/internal/protocol"
)

// Theorem1Bound returns the efficiency guaranteed by Theorem 1: any
// protocol that is α-convergent and β-fast-utilizing for some β > 0 is at
// least α/(2−α)-efficient. alpha must lie in [0, 1].
func Theorem1Bound(alpha float64) float64 {
	if alpha < 0 || alpha > 1 {
		panic(fmt.Sprintf("axioms: convergence α must be in [0,1], got %v", alpha))
	}
	return alpha / (2 - alpha)
}

// Theorem2Bound returns the TCP-friendliness ceiling of Theorem 2: any
// loss-based protocol that is α-fast-utilizing and β-efficient is at most
// 3(1−β)/(α(1+β))-TCP-friendly. The bound is tight: AIMD(α,β) attains it.
func Theorem2Bound(alphaFast, betaEff float64) float64 {
	if alphaFast <= 0 {
		panic(fmt.Sprintf("axioms: fast-utilization α must be positive, got %v", alphaFast))
	}
	if betaEff < 0 || betaEff > 1 {
		panic(fmt.Sprintf("axioms: efficiency β must be in [0,1], got %v", betaEff))
	}
	return 3 * (1 - betaEff) / (alphaFast * (1 + betaEff))
}

// Theorem3Bound returns the TCP-friendliness ceiling of Theorem 3: any
// loss-based protocol that is α-fast-utilizing, β-efficient and ε-robust
// (ε > 0) is at most
//
//	3(1−β) / ( (4·(C+τ)/(1−ε) − α) · (1+β) )
//
// TCP-friendly. The paper assumes C+τ > α/2, which keeps the denominator
// positive.
func Theorem3Bound(alphaFast, betaEff, eps, c, tau float64) float64 {
	if eps < 0 || eps >= 1 {
		panic(fmt.Sprintf("axioms: robustness ε must be in [0,1), got %v", eps))
	}
	if c+tau <= alphaFast/2 {
		panic(fmt.Sprintf("axioms: theorem 3 requires C+τ > α/2 (C+τ=%v, α=%v)", c+tau, alphaFast))
	}
	den := (4*(c+tau)/(1-eps) - alphaFast) * (1 + betaEff)
	return 3 * (1 - betaEff) / den
}

// Claim1Holds states Claim 1 as a checkable predicate over measured
// scores: a loss-based protocol cannot be both 0-loss and α-fast-utilizing
// for α > 0. Given a protocol's measured tail loss and fast-utilization
// score, it returns true when the claim's exclusion is respected (i.e.
// the combination "0-loss and fast-utilizing" does NOT occur). tol guards
// against floating-point noise in the measurements.
func Claim1Holds(lossBased bool, tailLoss, fastUtil, tol float64) bool {
	if !lossBased {
		return true // the claim only constrains loss-based protocols
	}
	zeroLoss := tailLoss <= tol
	fast := fastUtil > tol
	return !(zeroLoss && fast)
}

// FamilyRow maps a protocol instance from the internal/protocol package to
// its Table 1 row evaluated at link lp. It returns an error for protocols
// outside the table (PCC, Vegas, probes, custom functions).
func FamilyRow(p protocol.Protocol, lp Link) (Row, error) {
	if err := lp.Validate(); err != nil {
		return Row{}, err
	}
	switch q := p.(type) {
	case *protocol.AIMD:
		return AIMDRow(q.A, q.B, lp), nil
	case *protocol.MIMD:
		return MIMDRow(q.A, q.B, lp), nil
	case *protocol.Binomial:
		return BinRow(q.A, q.B, q.K, q.L, lp), nil
	case *protocol.Cubic:
		return CubicRow(q.C, q.B, lp), nil
	case *protocol.RobustAIMD:
		return RobustAIMDRow(q.A, q.B, q.Eps, lp), nil
	default:
		return Row{}, fmt.Errorf("axioms: no Table 1 row for %s", p.Name())
	}
}

// Table1 returns the five rows of Table 1 for the paper's evaluated
// parameterizations — Reno, Scalable, the SQRT binomial, Linux Cubic and
// Robust-AIMD(1, 0.8, 0.01) — at link lp.
func Table1(lp Link) []Row {
	return []Row{
		AIMDRow(1, 0.5, lp),
		MIMDRow(1.01, 0.875, lp),
		BinRow(1, 0.5, 0.5, 0.5, lp),
		CubicRow(0.4, 0.8, lp),
		RobustAIMDRow(1, 0.8, 0.01, lp),
	}
}

// Feasible reports whether a (fast-utilization, efficiency,
// TCP-friendliness) triple is feasible for loss-based protocols per
// Theorem 2: friendliness may not exceed Theorem2Bound(fast, eff).
func Feasible(fast, eff, friendly float64) bool {
	if fast <= 0 {
		// Theorem 2 constrains only α > 0; anything is feasible at α = 0.
		return true
	}
	return friendly <= Theorem2Bound(fast, eff)+1e-12
}

// FeasibleRobust reports whether a (fast-utilization, efficiency,
// robustness, TCP-friendliness) 4-tuple is feasible per Theorem 3.
func FeasibleRobust(fast, eff, eps, friendly, c, tau float64) bool {
	if fast <= 0 || eps <= 0 {
		return Feasible(fast, eff, friendly)
	}
	return friendly <= Theorem3Bound(fast, eff, eps, c, tau)+1e-12
}

// MaxRobustFriendliness returns, for a protocol constrained to be
// α-fast-utilizing, β-efficient and ε-robust on a link (C, τ), the largest
// TCP-friendliness it may attain (Theorem 3), or Theorem 2's bound when
// ε = 0.
func MaxRobustFriendliness(alphaFast, betaEff, eps, c, tau float64) float64 {
	if eps <= 0 {
		return Theorem2Bound(alphaFast, betaEff)
	}
	return Theorem3Bound(alphaFast, betaEff, eps, c, tau)
}

// Infinity is a convenience for comparing against MIMD's unbounded
// fast-utilization score.
var Infinity = math.Inf(1)
