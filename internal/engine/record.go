package engine

import "repro/internal/trace"

// Recorder is the observer that records a run into a *trace.Trace: every
// step's windows, RTT and loss, and the windows' sum. It is how a run is
// recorded on any substrate; a topology run has no single RTT or loss, so
// its trace holds zeros there (see Step). A Recorder is not a
// TailObserver, so a run it observes emits every step.
type Recorder struct {
	tr *trace.Trace
}

// maxPresizedSteps caps the steps a Recorder sizes its trace for up
// front; a longer run grows the trace as it goes.
const maxPresizedSteps = 1 << 20

// NewRecorder returns a Recorder for a substrate of the given shape:
// m.Flows senders on a link of capacity m.Capacity and base RTT
// m.BaseRTT, with room for m.Horizon steps.
func NewRecorder(m Meta) *Recorder {
	return &Recorder{tr: trace.New(m.Flows, m.Capacity, m.BaseRTT, min(max(m.Horizon, 0), maxPresizedSteps))}
}

// Observe implements Observer.
func (r *Recorder) Observe(s Step) { r.tr.Append(s.Windows, s.RTT, s.Loss) }

// ObserveStrip implements StripObserver: each flow's column is appended
// whole, and the strip's Totals are the sums Append would compute.
func (r *Recorder) ObserveStrip(s Strip) {
	r.tr.AppendColumns(s.Count, s.Windows, s.Totals, s.RTT, s.Loss)
}

// Trace returns the recorded trace. It aliases the Recorder's storage,
// which a run still observing appends to.
func (r *Recorder) Trace() *trace.Trace { return r.tr }
