package metrics

import (
	"repro/internal/stats"
	"repro/internal/trace"
)

// The recorded-trace forms of the scores no production path reads from a
// trace any more. They stay here as the oracle StreamSummary is checked
// against: the same formula bodies over stats.Tail of the full series.

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
