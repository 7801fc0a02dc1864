package metrics

import (
	"sync"

	"repro/internal/engine"
	"repro/internal/obs"
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
//
// A stream's life follows its run. The rings are taken at the first
// observed step, on the goroutine running the cell. When the run has
// succeeded, the engine calls Finish on that goroutine, which freezes the
// summary. An owner that needs nothing but the summary then hands the
// rings back with Release.
type Stream struct {
	tailFrac float64
	capacity float64
	baseRTT  float64
	flows    int
	retain   int // ring capacity
	windows  []*stats.Ring
	goodput  []*stats.Ring
	total    *stats.Ring // nil until the first observed step
	rtt      *stats.Ring
	loss     *stats.Ring
	scratch  []float64      // goodput staging for ObserveStrip, grown lazily
	frozen   *StreamSummary // set by Finish
}

// horizonSlack absorbs the packet substrate's ±1 tick-count ambiguity
// (and leaves margin for future substrates with fuzzier horizons).
const horizonSlack = 8

// NewStream sizes a streaming observer for a substrate described by meta.
// tailFrac 0 selects DefaultTailFrac. The rings are not taken until the
// first observed step.
func NewStream(meta engine.Meta, tailFrac float64) *Stream {
	if tailFrac == 0 {
		tailFrac = DefaultTailFrac
	}
	return &Stream{
		tailFrac: tailFrac,
		capacity: meta.Capacity,
		baseRTT:  meta.BaseRTT,
		flows:    meta.Flows,
		retain:   stats.TailLen(meta.Horizon, tailFrac) + horizonSlack,
	}
}

// rings takes the stream's rings from the pool if it has none yet.
func (s *Stream) rings() {
	if s.total != nil {
		return
	}
	s.windows = make([]*stats.Ring, s.flows)
	s.goodput = make([]*stats.Ring, s.flows)
	for i := range s.windows {
		s.windows[i] = stats.NewRing(s.retain)
		s.goodput[i] = stats.NewRing(s.retain)
	}
	s.total = stats.NewRing(s.retain)
	s.rtt = stats.NewRing(s.retain)
	s.loss = stats.NewRing(s.retain)
}

// Release hands the stream's rings back to the pool stats.NewRing draws
// from. Call it only when nothing will read the stream again but its
// frozen Summary.
func (s *Stream) Release() {
	if s.total == nil {
		return
	}
	for i := range s.windows {
		s.windows[i].Release()
		s.goodput[i].Release()
	}
	s.total.Release()
	s.rtt.Release()
	s.loss.Release()
	s.windows, s.goodput, s.total, s.rtt, s.loss = nil, nil, nil, nil, nil
}

// TailSteps implements engine.TailObserver: nothing older than the
// rings retain can reach a score, so the engine may withhold the steps
// before them.
func (s *Stream) TailSteps() int { return s.retain }

// skipTo takes the rings at the first observed step and accounts for
// steps the engine withheld (see engine.TailObserver). A step index past
// the samples seen so far means the steps between were never emitted, so
// every ring skips them. A withheld step is a push that later pushes
// overwrite, so the rings end up retaining the same samples in the same
// order. An index at or behind Count, as a replay that always sends
// index 0, pushes as before.
func (s *Stream) skipTo(index int) {
	s.rings()
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
func (s *Stream) Steps() int {
	if s.total == nil {
		return 0
	}
	return s.total.Count()
}

// TailFrac returns the tail fraction the stream scores over.
func (s *Stream) TailFrac() float64 { return s.tailFrac }

// TailWindow returns sender i's retained tail-window series, equal to
// stats.Tail of the full series.
func (s *Stream) TailWindow(i int) []float64 {
	s.rings()
	return s.windows[i].LastTail(s.tailFrac)
}

// TailRTT returns the retained tail of the RTT series.
func (s *Stream) TailRTT() []float64 {
	s.rings()
	return s.rtt.LastTail(s.tailFrac)
}

// TailLoss returns the retained tail of the loss-rate series.
func (s *Stream) TailLoss() []float64 {
	s.rings()
	return s.loss.LastTail(s.tailFrac)
}

// Finish implements engine.Finisher: it freezes the finished run's
// summary on the goroutine that ran it, so Summary returns it without
// reading the rings again.
func (s *Stream) Finish() {
	sp := obs.StartLeafSpan("metrics.stream.finish")
	s.frozen = s.summarize()
	sp.End()
}

// Summary reduces the finished run to the handful of scalars the axiom
// estimators need: the value Finish froze, or, on a stream the engine
// did not finish, the same reduction of the rings now. Call it once the
// run has ended; the Session caches, persists and folds over summaries,
// never over the rings.
func (s *Stream) Summary() *StreamSummary {
	if s.frozen != nil {
		return s.frozen
	}
	return s.summarize()
}

// summarize computes the summary. Every field is computed by the same
// formula body, over the same retained tail samples in the same order,
// as the trace-level score of a recorded trace of the same run (the
// oracle of TestStreamSummaryMatchesTraceEstimatorsRandom).
func (s *Stream) summarize() *StreamSummary {
	s.rings()
	n := len(s.windows)
	sum := &StreamSummary{
		AvgWindows:  make([]float64, n),
		AvgGoodputs: make([]float64, n),
	}
	tails := newTailCopier(s.tailFrac)
	defer tails.release()
	tail := tails.tail
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

// tailBufs recycles the buffers summaries copy retained tails into, so
// freezing a grid's summaries does not allocate a tail copy per run.
var tailBufs = sync.Pool{New: func() any { return new([]float64) }}

// tailCopier copies ring tails into one pooled buffer. Each tail it
// returns is valid until the next call, so every tail must be fully
// consumed before the next is read.
type tailCopier struct {
	frac float64
	buf  *[]float64
}

func newTailCopier(frac float64) tailCopier {
	return tailCopier{frac: frac, buf: tailBufs.Get().(*[]float64)}
}

// tail returns r's retained tail at the copier's fraction.
func (c tailCopier) tail(r *stats.Ring) []float64 {
	*c.buf = r.AppendTail((*c.buf)[:0], c.frac)
	return *c.buf
}

// release hands the buffer back to the pool.
func (c tailCopier) release() { tailBufs.Put(c.buf) }

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
