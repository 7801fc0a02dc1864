// Package metrics turns the eight axioms of Section 3 of "An Axiomatic
// Approach to Congestion Control" into measurable quantities.
//
// Each axiom is parameterized ("a protocol is α-efficient", "α-fair", …)
// and quantified over initial window configurations and over "some time T
// onwards". The estimators realize those quantifiers empirically: a
// Stream observer reduces one run to the tail-window scores of its
// StreamSummary (the formulas in formulas.go), and the scenario-level
// functions in scenario.go fold each Metric into its worst case across a
// set of initial configurations, exactly as the axioms demand.
//
// Scores follow the paper's orientation for each metric, which
// Metric.Sign states once: for efficiency, fast-utilization, fairness,
// convergence, robustness and friendliness a larger α is better; for
// loss-avoidance and latency-avoidance a smaller α is better.
package metrics

import "math"

// DefaultTailFrac is the fraction of a trace treated as "from some time T
// onwards": estimators evaluate the last quarter of the run by default.
const DefaultTailFrac = 0.75

// FastUtilizationFromSeries estimates Metric II (fast-utilization) from a
// window series known to be free of loss and of RTT increases. The axiom
// says P is α-fast-utilizing when there EXISTS a T > 0 such that for ALL
// spans Δt ≥ T starting at t₁,
//
//	Σ_{t=t₁}^{t₁+Δt} (x(t) − x(t₁)) ≥ α·Δt²/2
//
// With g(Δt) = 2·S(Δt)/Δt² for t₁ = 0, the estimate realizes both
// quantifiers on the finite horizon H:
//
//	α̂ = max over T ∈ [1, H/2] of ( min over Δt ∈ [T, H] of g(Δt) )
//
// i.e. the protocol may pick its favorite T (the ∃), but must then sustain
// the growth for every longer span (the ∀). T is capped at H/2 so that the
// inner minimum always covers a non-trivial range of spans. AIMD(a,·)
// scores ≈ a; MIMD's exponential growth makes the suffix minima explode,
// matching its ∞ score in Table 1; sublinear protocols (BIN with k > 0)
// decay toward 0 as the horizon grows.
//
// The series should start from the protocol's minimum window — the hardest
// starting point for growth-accelerating protocols — which is how
// FastUtilization produces it.
func FastUtilizationFromSeries(window []float64) float64 {
	h := len(window) - 1
	if h < 2 {
		return math.NaN()
	}
	x0 := window[0]
	// g[dt] = 2·S(dt)/dt² for dt = 1..h.
	g := make([]float64, h+1)
	sum := window[0] - x0
	for dt := 1; dt <= h; dt++ {
		sum += window[dt] - x0
		g[dt] = 2 * sum / (float64(dt) * float64(dt))
	}
	// Suffix minima, then maximize over T ≤ h/2.
	suffixMin := math.Inf(1)
	alpha := math.Inf(-1)
	for dt := h; dt >= 1; dt-- {
		if g[dt] < suffixMin {
			suffixMin = g[dt]
		}
		if dt <= h/2 && suffixMin > alpha {
			alpha = suffixMin
		}
	}
	if alpha < 0 {
		return 0
	}
	return alpha
}
