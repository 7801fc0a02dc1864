package metrics

import (
	"repro/internal/stats"
	"repro/internal/trace"
)

// The recorded-trace forms of the scores: no production path reads a
// score from a trace any more. They stay here as the oracle StreamSummary
// is checked against: the same formula bodies over stats.Tail of the full
// series.

// EfficiencyFromTrace scores Metric I (see efficiency) on a finished
// run's tail. Returns 0 for an infinite-capacity link.
func EfficiencyFromTrace(tr *trace.Trace, tailFrac float64) float64 {
	return efficiency(stats.Tail(tr.Total(), tailFrac), tr.Capacity())
}

// LossAvoidanceFromTrace scores Metric III (see lossAvoidance) on a
// finished run's tail. Lower is better; 0 means "0-loss".
func LossAvoidanceFromTrace(tr *trace.Trace, tailFrac float64) float64 {
	return lossAvoidance(stats.Tail(tr.Loss(), tailFrac))
}

// FairnessFromTrace scores Metric IV (see fairness) on a finished run of
// a homogeneous sender population.
func FairnessFromTrace(tr *trace.Trace, tailFrac float64) float64 {
	avgs := make([]float64, tr.Senders())
	for i := range avgs {
		avgs[i] = tr.AvgWindow(i, tailFrac)
	}
	return fairness(avgs)
}

// LatencyAvoidanceFromTrace scores Metric VIII (see latencyInflation) on
// a finished run's tail against the link's base RTT 2Θ.
func LatencyAvoidanceFromTrace(tr *trace.Trace, tailFrac float64) float64 {
	return latencyInflation(stats.Tail(tr.RTT(), tailFrac), tr.BaseRTT())
}

// ConvergenceFromTrace scores Metric V (see convergence) on a finished
// run's per-sender tails.
func ConvergenceFromTrace(tr *trace.Trace, tailFrac float64) float64 {
	return convergence(tr.Senders(), func(i int) []float64 { return stats.Tail(tr.Window(i), tailFrac) })
}

// FriendlinessFromTrace scores Metric VII (see friendliness) on a
// finished mixed run, with pIdx the indices of P-senders and qIdx the
// indices of Q-senders.
func FriendlinessFromTrace(tr *trace.Trace, pIdx, qIdx []int, tailFrac float64) float64 {
	return friendliness(func(i int) float64 { return tr.AvgWindow(i, tailFrac) }, pIdx, qIdx)
}
