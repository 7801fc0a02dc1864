package metrics

import (
	"repro/internal/engine"
	"repro/internal/stats"
)

// Stream is an engine.Observer that maintains just enough state online to
// score the tail-window axiom estimators, without materializing a full
// *trace.Trace: per-sender window and goodput rings, plus aggregate
// window, RTT, and loss rings, each sized to the run's tail. As long as
// the substrate's Horizon hint was within the ring slack, the tail
// accessors return exactly stats.Tail of the recorded series and Summary
// is bit-identical to the same formulas applied to a recorded trace of
// the run, because the retained tail and the summation order are the
// same.
type Stream struct {
	tailFrac float64
	capacity float64
	baseRTT  float64
	windows  []*stats.Ring
	goodput  []*stats.Ring
	total    *stats.Ring
	rtt      *stats.Ring
	loss     *stats.Ring
	scratch  []float64 // goodput staging for ObserveStrip, grown lazily
}

// horizonSlack absorbs the packet substrate's ±1 tick-count ambiguity
// (and leaves margin for future substrates with fuzzier horizons).
const horizonSlack = 8

// NewStream sizes a streaming observer for a substrate described by meta.
// tailFrac 0 selects DefaultTailFrac.
func NewStream(meta engine.Meta, tailFrac float64) *Stream {
	if tailFrac == 0 {
		tailFrac = DefaultTailFrac
	}
	capGoal := stats.TailLen(meta.Horizon, tailFrac) + horizonSlack
	s := &Stream{
		tailFrac: tailFrac,
		capacity: meta.Capacity,
		baseRTT:  meta.BaseRTT,
		windows:  make([]*stats.Ring, meta.Flows),
		goodput:  make([]*stats.Ring, meta.Flows),
		total:    stats.NewRing(capGoal),
		rtt:      stats.NewRing(capGoal),
		loss:     stats.NewRing(capGoal),
	}
	for i := range s.windows {
		s.windows[i] = stats.NewRing(capGoal)
		s.goodput[i] = stats.NewRing(capGoal)
	}
	return s
}

// TailSteps implements engine.TailObserver: nothing older than the
// rings retain can reach a score, so the engine may withhold the steps
// before them.
func (s *Stream) TailSteps() int { return s.total.Cap() }

// skipTo accounts for steps the engine withheld (see
// engine.TailObserver). A step index past the samples seen so far means
// the steps between were never emitted, so every ring skips them. A
// withheld step is a push that later pushes overwrite, so the rings end
// up retaining the same samples in the same order. An index at or behind
// Count, as a replay that always sends index 0, pushes as before.
func (s *Stream) skipTo(index int) {
	gap := index - s.total.Count()
	if gap <= 0 {
		return
	}
	for i := range s.windows {
		s.windows[i].Skip(gap)
		s.goodput[i].Skip(gap)
	}
	s.total.Skip(gap)
	s.rtt.Skip(gap)
	s.loss.Skip(gap)
}

// Observe implements engine.Observer.
func (s *Stream) Observe(st engine.Step) {
	s.skipTo(st.Index)
	for i, w := range st.Windows {
		s.windows[i].Push(w)
		g := 0.0
		if st.RTT > 0 {
			g = w * (1 - st.Loss) / st.RTT
		}
		s.goodput[i].Push(g)
	}
	s.total.Push(st.Total)
	s.rtt.Push(st.RTT)
	s.loss.Push(st.Loss)
}

// ObserveStrip implements engine.StripObserver: the grid-batch path
// delivers runs of consecutive steps in one call. Strip.Windows is
// flow-major, so each window ring ingests its flow's contiguous column
// with a single PushSlice; goodput is computed column-at-a-time into a
// reused scratch slice and bulk-pushed the same way. Every ring receives
// exactly the samples, values, and order that repeated Observe calls
// would have pushed — goodput uses the same guarded w·(1−loss)/RTT
// expression — so the resulting stream state is bit-identical.
func (s *Stream) ObserveStrip(st engine.Strip) {
	s.skipTo(st.Start)
	c := st.Count
	for i := range s.windows {
		s.windows[i].PushSlice(st.Windows[i*c : (i+1)*c])
	}
	if len(s.goodput) > 0 {
		if cap(s.scratch) < c {
			s.scratch = make([]float64, c)
		}
		g := s.scratch[:c]
		for i := range s.goodput {
			col := st.Windows[i*c : (i+1)*c]
			for k := 0; k < c; k++ {
				v := 0.0
				if st.RTT[k] > 0 {
					v = col[k] * (1 - st.Loss[k]) / st.RTT[k]
				}
				g[k] = v
			}
			s.goodput[i].PushSlice(g)
		}
	}
	s.total.PushSlice(st.Totals)
	s.rtt.PushSlice(st.RTT)
	s.loss.PushSlice(st.Loss)
}

// Steps returns the number of samples observed, withheld ones included.
func (s *Stream) Steps() int { return s.total.Count() }

// TailFrac returns the tail fraction the stream scores over.
func (s *Stream) TailFrac() float64 { return s.tailFrac }

// TailWindow returns sender i's retained tail-window series, equal to
// stats.Tail of the full series.
func (s *Stream) TailWindow(i int) []float64 { return s.windows[i].LastTail(s.tailFrac) }

// TailRTT returns the retained tail of the RTT series.
func (s *Stream) TailRTT() []float64 { return s.rtt.LastTail(s.tailFrac) }

// TailLoss returns the retained tail of the loss-rate series.
func (s *Stream) TailLoss() []float64 { return s.loss.LastTail(s.tailFrac) }

// Summary freezes the finished run into the handful of scalars the
// axiom estimators need. Call it once the run has ended; the Session
// caches, persists and folds over summaries, never over the rings. Every
// field is computed by the same formula body, over the same retained
// tail samples in the same order, as the trace-level score of a recorded
// trace of the same run (the oracle of
// TestStreamSummaryMatchesTraceEstimatorsRandom).
func (s *Stream) Summary() *StreamSummary {
	n := len(s.windows)
	sum := &StreamSummary{
		AvgWindows:  make([]float64, n),
		AvgGoodputs: make([]float64, n),
	}
	// One buffer serves every tail in turn: each is fully consumed before
	// the next is read.
	var buf []float64
	tail := func(r *stats.Ring) []float64 {
		buf = r.AppendTail(buf[:0], s.tailFrac)
		return buf
	}
	for i := 0; i < n; i++ {
		sum.AvgWindows[i] = stats.Mean(tail(s.windows[i]))
		sum.AvgGoodputs[i] = stats.Mean(tail(s.goodput[i]))
	}
	total := tail(s.total)
	sum.Efficiency = efficiency(total, s.capacity)
	sum.Utilization = utilization(total, s.capacity)
	loss := tail(s.loss)
	sum.LossAvoidance = lossAvoidance(loss)
	sum.MeanLoss = stats.Mean(loss)
	rtt := tail(s.rtt)
	sum.LatencyAvoidance = latencyInflation(rtt, s.baseRTT)
	sum.MeanRTT = stats.Mean(rtt)
	sum.Convergence = convergence(n, func(i int) []float64 { return tail(s.windows[i]) })
	return sum
}

// StreamSummary is one finished single-link run reduced to what its
// scores read: seven tail scalars and each sender's tail means. It
// is what the Session caches and the run store persists, a few hundred
// bytes whatever the horizon. Cached summaries are shared between
// callers and must be treated as read-only.
type StreamSummary struct {
	Efficiency       float64 // Metric I (see efficiency): min tail X(t)/C
	LossAvoidance    float64 // Metric III (see lossAvoidance): max tail loss rate
	Convergence      float64 // Metric V (see convergence), worst sender
	LatencyAvoidance float64 // Metric VIII (see latencyInflation): max tail RTT inflation
	Utilization      float64 // mean tail X(t)/C (see utilization)
	MeanLoss         float64 // mean tail loss rate, as stats.Mean(stats.Tail(trace.Loss()))
	MeanRTT          float64 // mean tail RTT in seconds, as stats.Mean(stats.Tail(trace.RTT()))

	AvgWindows  []float64 // per sender: mean tail window, as trace.AvgWindow
	AvgGoodputs []float64 // per sender: mean tail goodput, as trace.AvgGoodput
}

// Fairness scores Metric IV (see fairness): min-over-max of mean tail
// windows.
func (s *StreamSummary) Fairness() float64 { return fairness(s.AvgWindows) }

// Friendliness scores Metric VII (see friendliness): the weakest
// Q-sender's mean tail window relative to the strongest P-sender's.
func (s *StreamSummary) Friendliness(pIdx, qIdx []int) float64 {
	return friendliness(func(i int) float64 { return s.AvgWindows[i] }, pIdx, qIdx)
}
