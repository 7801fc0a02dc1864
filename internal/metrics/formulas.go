package metrics

import (
	"math"

	"repro/internal/stats"
)

// The tail-window axiom formulas, one body each. They are pure functions
// of the retained tail samples, so the streaming Stream, the per-link/
// per-flow restatements in TopoStream, and the recorded-trace oracle the
// tests keep in oracle_test.go all score with the same arithmetic, in the
// same order, and agree bit for bit on the same samples.

// efficiency is Metric I (link-utilization) over a tail: the largest α
// such that X(t) ≥ αC throughout, i.e. min over the tail of X(t)/C.
// Returns 0 for an infinite-capacity link.
func efficiency(total []float64, capacity float64) float64 {
	if math.IsInf(capacity, 1) || capacity <= 0 {
		return 0
	}
	return stats.Min(total) / capacity
}

// utilization is the mean of X(t)/C over a tail, each sample divided as
// trace.Utilization divides it (0 on a link of no capacity). It
// overwrites total with the per-sample ratios.
func utilization(total []float64, capacity float64) float64 {
	for i, x := range total {
		if capacity > 0 {
			total[i] = x / capacity
		} else {
			total[i] = 0
		}
	}
	return stats.Mean(total)
}

// lossAvoidance is Metric III (loss-avoidance) over a tail: the smallest
// α such that L(t) ≤ α throughout, i.e. the max tail loss rate. Lower is
// better; 0 means "0-loss".
func lossAvoidance(loss []float64) float64 {
	return stats.Max(loss)
}

// fairness is Metric IV (fairness) over a homogeneous population: the
// largest α such that every sender's average tail window is at least an
// α-fraction of every other sender's, i.e. min over max of avgs.
func fairness(avgs []float64) float64 {
	return stats.MinOverMax(avgs)
}

// convergence is Metric V (convergence) over n senders' tails: the
// largest α ∈ [0, 1] such that, taking x*ᵢ to be sender i's average tail
// window, every tail sample satisfies αx*ᵢ ≤ xᵢ(t) ≤ (2−α)x*ᵢ. A
// perfectly constant tail scores 1; wild oscillation around the mean
// scores near 0. The worst sender governs.
func convergence(n int, tail func(i int) []float64) float64 {
	alpha := 1.0
	for i := 0; i < n; i++ {
		t := tail(i)
		star := stats.Mean(t)
		if star <= 0 {
			return 0
		}
		for _, x := range t {
			r := x / star
			// αx* ≤ x ⇒ α ≤ r; x ≤ (2−α)x* ⇒ α ≤ 2−r.
			a := math.Min(r, 2-r)
			if a < alpha {
				alpha = a
			}
		}
	}
	return math.Max(alpha, 0)
}

// friendliness is Metric VII (friendliness): with avg(i) sender i's
// average tail window, pIdx the P-senders and qIdx the Q-senders, P is
// α-friendly to Q for
//
//	α = min over (i ∈ P, j ∈ Q) of avg(j) / avg(i)
//
// A score of 1 means Q-senders keep up with P-senders; 0 means P starves
// Q. The result may exceed 1 if Q outcompetes P, and is NaN when either
// set is empty.
func friendliness(avg func(i int) float64, pIdx, qIdx []int) float64 {
	if len(pIdx) == 0 || len(qIdx) == 0 {
		return math.NaN()
	}
	worstP := math.Inf(-1) // largest P window (the strongest competitor)
	for _, i := range pIdx {
		if a := avg(i); a > worstP {
			worstP = a
		}
	}
	worstQ := math.Inf(1) // smallest Q window (the weakest victim)
	for _, j := range qIdx {
		if a := avg(j); a < worstQ {
			worstQ = a
		}
	}
	if worstP <= 0 {
		return 1
	}
	return worstQ / worstP
}

// latencyInflation is Metric VIII (latency-avoidance) over a tail: the
// smallest α such that RTT(t) < (1+α)·base throughout, i.e. max over the
// tail of RTT/base − 1. Lower is better; 0 means the path stays at its
// propagation delay. NaN when base is not positive.
func latencyInflation(rtt []float64, base float64) float64 {
	if base <= 0 {
		return math.NaN()
	}
	return math.Max(0, stats.Max(rtt)/base-1)
}
