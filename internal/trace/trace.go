// Package trace records the time evolution of a simulated link: per-sender
// congestion windows, the shared RTT and loss-rate series, and derived
// per-sender goodput, whether produced by the fluid-flow model or the
// packet-level testbed. A run records one through an engine.Recorder,
// for drawing or dumping its whole series (axiomsim's -tsv and -svg) and
// for the estimators that scan a series whole; the tail-window axiom
// scores are streamed by internal/metrics instead.
package trace

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/stats"
)

// Trace is a column-oriented record of a simulation run. The zero value is
// not usable; construct with New.
type Trace struct {
	n       int
	windows [][]float64 // windows[i][t] = sender i's window at step t
	rtt     []float64   // rtt[t] = RTT duration of step t (seconds)
	loss    []float64   // loss[t] = shared loss rate at step t
	total   []float64   // total[t] = sum of windows at step t
	baseRTT float64     // 2Θ, the minimum possible RTT (seconds)
	capac   float64     // C, link capacity in MSS (may be +Inf)
}

// New returns an empty trace for n senders on a link with the given
// capacity (in MSS) and base RTT 2Θ (in seconds). steps is a capacity hint.
func New(n int, capacity, baseRTT float64, steps int) *Trace {
	tr := &Trace{
		n:       n,
		windows: make([][]float64, n),
		rtt:     make([]float64, 0, steps),
		loss:    make([]float64, 0, steps),
		total:   make([]float64, 0, steps),
		baseRTT: baseRTT,
		capac:   capacity,
	}
	for i := range tr.windows {
		tr.windows[i] = make([]float64, 0, steps)
	}
	return tr
}

// Append records one time step. windows must have length n.
func (tr *Trace) Append(windows []float64, rtt, loss float64) {
	if len(windows) != tr.n {
		panic(fmt.Sprintf("trace: Append with %d windows, want %d", len(windows), tr.n))
	}
	sum := 0.0
	for i, w := range windows {
		tr.windows[i] = append(tr.windows[i], w)
		sum += w
	}
	tr.rtt = append(tr.rtt, rtt)
	tr.loss = append(tr.loss, loss)
	tr.total = append(tr.total, sum)
}

// AppendColumns records count steps at once. windows holds them
// flow-major: sender i's windows are windows[i*count : (i+1)*count].
// total, rtt and loss hold count entries each, and total[t] must be the
// sum of step t's windows taken in sender order, as Append computes it.
func (tr *Trace) AppendColumns(count int, windows, total, rtt, loss []float64) {
	if len(windows) != tr.n*count {
		panic(fmt.Sprintf("trace: AppendColumns with %d windows, want %d×%d", len(windows), tr.n, count))
	}
	for i := range tr.windows {
		tr.windows[i] = append(tr.windows[i], windows[i*count:(i+1)*count]...)
	}
	tr.rtt = append(tr.rtt, rtt[:count]...)
	tr.loss = append(tr.loss, loss[:count]...)
	tr.total = append(tr.total, total[:count]...)
}

// Len returns the number of recorded steps.
func (tr *Trace) Len() int { return len(tr.total) }

// Senders returns the number of senders.
func (tr *Trace) Senders() int { return tr.n }

// Capacity returns the link capacity C in MSS the trace was recorded on.
func (tr *Trace) Capacity() float64 { return tr.capac }

// BaseRTT returns the link's minimum RTT (2Θ) in seconds.
func (tr *Trace) BaseRTT() float64 { return tr.baseRTT }

// Window returns the window series of sender i. The returned slice aliases
// the trace's storage and must not be modified.
func (tr *Trace) Window(i int) []float64 { return tr.windows[i] }

// RTT returns the RTT series. The returned slice aliases trace storage.
func (tr *Trace) RTT() []float64 { return tr.rtt }

// Loss returns the loss-rate series. The returned slice aliases storage.
func (tr *Trace) Loss() []float64 { return tr.loss }

// Total returns the series of aggregate window size X(t).
func (tr *Trace) Total() []float64 { return tr.total }

// Goodput returns sender i's goodput series in MSS/s:
// x_i(t)·(1−L(t))/RTT(t).
func (tr *Trace) Goodput(i int) []float64 {
	out := make([]float64, tr.Len())
	w := tr.windows[i]
	for t := range out {
		if tr.rtt[t] > 0 {
			out[t] = w[t] * (1 - tr.loss[t]) / tr.rtt[t]
		}
	}
	return out
}

// AvgWindow returns the mean window of sender i over the tail fraction f
// of the trace (f=0.75 averages the last quarter).
func (tr *Trace) AvgWindow(i int, tailFrac float64) float64 {
	return stats.Mean(stats.Tail(tr.windows[i], tailFrac))
}

// AvgGoodput returns the mean goodput of sender i over the tail fraction f.
func (tr *Trace) AvgGoodput(i int, tailFrac float64) float64 {
	return stats.Mean(stats.Tail(tr.Goodput(i), tailFrac))
}

// Utilization returns the series X(t)/C. For an infinite-capacity link all
// entries are 0.
func (tr *Trace) Utilization() []float64 {
	out := make([]float64, tr.Len())
	for t, x := range tr.total {
		if tr.capac > 0 {
			out[t] = x / tr.capac
		}
	}
	return out
}

// WriteTSV writes the trace as a tab-separated table with a header row:
// step, per-sender windows, total, rtt, loss.
func (tr *Trace) WriteTSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString("step")
	for i := 0; i < tr.n; i++ {
		fmt.Fprintf(&b, "\tw%d", i)
	}
	b.WriteString("\ttotal\trtt\tloss\n")
	if _, err := io.WriteString(w, b.String()); err != nil {
		return err
	}
	for t := 0; t < tr.Len(); t++ {
		b.Reset()
		fmt.Fprintf(&b, "%d", t)
		for i := 0; i < tr.n; i++ {
			fmt.Fprintf(&b, "\t%.4f", tr.windows[i][t])
		}
		fmt.Fprintf(&b, "\t%.4f\t%.6f\t%.6f\n", tr.total[t], tr.rtt[t], tr.loss[t])
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// Summary returns a one-line human-readable digest of the trace tail.
func (tr *Trace) Summary(tailFrac float64) string {
	if tr.Len() == 0 {
		return "empty trace"
	}
	util := stats.Mean(stats.Tail(tr.Utilization(), tailFrac))
	loss := stats.Mean(stats.Tail(tr.loss, tailFrac))
	avg := make([]float64, tr.n)
	for i := range avg {
		avg[i] = tr.AvgWindow(i, tailFrac)
	}
	return fmt.Sprintf("steps=%d util=%.3f loss=%.4f jain=%.3f",
		tr.Len(), util, loss, stats.JainIndex(avg))
}
