package fluid

import (
	"fmt"
	"math"

	"repro/internal/protocol"
	"repro/internal/rand64"
)

// This file holds the model's one stepper: many independent links
// ("cells" — typically the cells of a sweep grid, or the single cell of a
// Link) advanced in lockstep by one loop per time step. Windows, losses
// and kernels for all cells live contiguously (structure of arrays).
//
// A synchronized sender (Period ≤ 1) steps through its protocol.Kernel
// when the protocol has one, with no interface dispatch or Feedback
// construction. Every other sender steps through its protocol's Next, and
// one with Period > 1 observes its epoch's aggregated loss and mean RTT;
// the epoch accumulators exist only when the input has such senders and
// are updated only for them. Per-sender kernel state lives in the kern
// array — Kernel.Step mutates its receiver, so a stateful family like
// Cubic evolves exactly as its Next would, including across churn
// (departed flows are never stepped, and re-arrival resets the window
// and the epoch accumulators but not the protocol state).

// BatchCell is one link in a Batch: the same (Config, Senders) pair that
// would be passed to New.
type BatchCell struct {
	Cfg     Config
	Senders []Sender
}

// Batchable reports whether a (Config, Senders) pair can be stepped,
// returning nil when it can and a descriptive error naming the first
// obstacle otherwise. New and NewBatch apply it to every cell; any
// protocol, kernelized or not, and any Period/Phase pair it accepts is
// steppable.
func Batchable(cfg Config, senders []Sender) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if len(senders) == 0 {
		return fmt.Errorf("fluid: at least one sender required")
	}
	for i, s := range senders {
		if s.Proto == nil {
			return fmt.Errorf("fluid: sender %d has nil protocol", i)
		}
		if math.IsNaN(s.Init) {
			return fmt.Errorf("fluid: sender %d has a NaN initial window", i)
		}
		if s.Period < 0 || s.Phase < 0 {
			return fmt.Errorf("fluid: sender %d has negative period or phase", i)
		}
		if s.Period > 1 && s.Phase >= s.Period {
			return fmt.Errorf("fluid: sender %d phase %d ≥ period %d", i, s.Phase, s.Period)
		}
	}
	return nil
}

// batchLink is the per-cell scalar state of a Batch; the per-sender state
// lives in the Batch's contiguous arrays, indexed by [off, off+n).
type batchLink struct {
	cfg      Config // defaulted
	senders  []Sender
	off, n   int
	rng      *rand64.Source
	err      error   // first divergence, sticky
	rtt      float64 // RTT of the last executed step
	congLoss float64 // congestion loss of the last executed step
}

// fail records the cell's first divergence; later ones are ignored.
func (c *batchLink) fail(step, sender int, v float64) {
	if c.err == nil {
		c.err = &DivergedError{Step: step, Sender: sender, Value: v}
	}
}

// Batch steps a set of cells in lockstep. Create with NewBatch, advance
// with Step, read per-cell results with Windows/RTT/CongLoss/Err.
type Batch struct {
	step  int
	cells []batchLink

	// Structure-of-arrays per-sender state, all cells concatenated.
	win  []float64         // current windows
	cur  []float64         // windows in effect during the last step (result buffer)
	loss []float64         // total loss of the last step (result buffer)
	kern []protocol.Kernel // closed-form update rules; Op 0 steps through Proto.Next
	act  []bool            // churn state; consulted only for cells with Perturb

	// Epoch accumulators, allocated only when some sender has Period > 1
	// and consulted only for such senders: Π(1−loss), the RTT sum and the
	// step count since the sender's last update.
	survive    []float64
	rttSum     []float64
	epochSteps []int
}

// NewBatch returns a batch over the given cells, or an error naming the
// first cell that is invalid. Kernels are extracted once here — each
// synchronized sender gets its own Kernel copy, which is where stateful
// kernels keep per-sender state — and that sender's protocol is never
// called again. Every other sender is stepped through its own Proto, so
// cells must not share those instances.
func NewBatch(cells []BatchCell) (*Batch, error) {
	if len(cells) == 0 {
		return nil, fmt.Errorf("fluid: batch needs at least one cell")
	}
	for ci, cell := range cells {
		if err := Batchable(cell.Cfg, cell.Senders); err != nil {
			return nil, fmt.Errorf("fluid: batch cell %d: %w", ci, err)
		}
	}
	return newBatch(cells), nil
}

// newBatch builds a batch over cells that Batchable accepts.
func newBatch(cells []BatchCell) *Batch {
	total, epochs := 0, false
	for _, cell := range cells {
		total += len(cell.Senders)
		for _, s := range cell.Senders {
			epochs = epochs || s.Period > 1
		}
	}
	b := &Batch{
		cells: make([]batchLink, len(cells)),
		win:   make([]float64, total),
		cur:   make([]float64, total),
		loss:  make([]float64, total),
		kern:  make([]protocol.Kernel, total),
		act:   make([]bool, total),
	}
	if epochs {
		b.survive = make([]float64, total)
		b.rttSum = make([]float64, total)
		b.epochSteps = make([]int, total)
	}
	off := 0
	for ci, cell := range cells {
		cfg := cell.Cfg.withDefaults()
		c := &b.cells[ci]
		c.cfg = cfg
		c.senders = cell.Senders
		c.off, c.n = off, len(cell.Senders)
		c.rng = rand64.New(cfg.Seed)
		for i, s := range cell.Senders {
			b.win[off+i] = protocol.Clamp(s.Init, cfg.MaxWindow)
			if s.Period > 1 {
				b.survive[off+i] = 1
				continue
			}
			if bs, ok := s.Proto.(protocol.BatchStepper); ok {
				if k, ok := bs.Kernel(); ok && k.Valid() {
					b.kern[off+i] = k
				}
			}
		}
		off += len(cell.Senders)
	}
	return b
}

// Err returns cell c's first divergence (nil if none). A diverged cell
// keeps stepping, with each non-finite window replaced by
// protocol.MinWindow, but its results are meaningless from the failing
// step on; callers stop reading it there.
func (b *Batch) Err(c int) error { return b.cells[c].err }

// Windows returns cell c's windows in effect during the last executed
// step (departed flows report 0, like StepResult.Windows). The slice is
// BORROWED: it aliases a batch buffer the next Step overwrites.
func (b *Batch) Windows(c int) []float64 {
	cell := &b.cells[c]
	return b.cur[cell.off : cell.off+cell.n]
}

// RTT returns cell c's RTT for the last executed step.
func (b *Batch) RTT(c int) float64 { return b.cells[c].rtt }

// CongLoss returns cell c's congestion loss rate for the last executed
// step.
func (b *Batch) CongLoss(c int) float64 { return b.cells[c].congLoss }

// Step advances every cell one time step. It is allocation-free unless a
// protocol's Next allocates.
func (b *Batch) Step() {
	for ci := range b.cells {
		b.stepCell(&b.cells[ci], b.step)
	}
	b.step++
}

// stepCell is the model's step for one cell: it computes RTT(t) and L(t)
// from the current windows, lets every sender observe its feedback, and
// installs the clamped next windows.
func (b *Batch) stepCell(c *batchLink, step int) {
	off, n := c.off, c.n
	p := c.cfg.Perturb
	if p != nil {
		for i := 0; i < n; i++ {
			on := p.FlowActive(step, i)
			if on && !b.act[off+i] && step > 0 {
				// (Re)arrival mid-run: restart from the initial window
				// with fresh feedback accumulators.
				b.win[off+i] = protocol.Clamp(c.senders[i].Init, c.cfg.MaxWindow)
				if c.senders[i].Period > 1 {
					b.survive[off+i], b.rttSum[off+i], b.epochSteps[off+i] = 1, 0, 0
				}
			}
			b.act[off+i] = on
		}
	}
	x := 0.0
	for i := 0; i < n; i++ {
		if p != nil && !b.act[off+i] {
			continue
		}
		x += b.win[off+i]
	}
	if math.IsNaN(x) || math.IsInf(x, 0) {
		c.fail(step, -1, x)
	}
	rtt, congLoss := congestionAt(&c.cfg, step, x)
	if p != nil {
		rtt += p.RTTOffset(step, 0)
		if rtt < minPerturbedRTT {
			rtt = minPerturbedRTT
		}
	}
	c.rtt, c.congLoss = rtt, congLoss

	// Snapshot the in-effect windows before the updates below mutate win.
	// Slicing the cell's senders once lets the compiler drop the loop's
	// bounds checks.
	win := b.win[off : off+n]
	cur, lossOut, kern := b.cur[off:off+n], b.loss[off:off+n], b.kern[off:off+n]
	copy(cur, win)
	lp, maxW := c.cfg.Loss, c.cfg.MaxWindow
	for i := range win {
		if p != nil && !b.act[off+i] {
			// Departed flow: no packets in flight, no feedback, window
			// frozen until re-arrival resets it.
			cur[i], lossOut[i] = 0, 0
			continue
		}
		loss := congLoss
		if lp != nil {
			r := lp.Rate(step, i, win[i], c.rng)
			loss = 1 - (1-loss)*(1-r)
		}
		if p != nil {
			if r := p.ExtraLoss(step, i); r > 0 {
				loss = 1 - (1-loss)*(1-r)
			}
		}
		lossOut[i] = loss
		var next float64
		if k := &kern[i]; k.Op != 0 {
			next = k.Step(win[i], loss) // a one-step epoch, see next
		} else {
			var held bool
			if next, held = b.next(c, i, step, rtt, loss); held {
				continue // window held until this sender's update step
			}
		}
		if math.IsNaN(next) || math.IsInf(next, 0) {
			c.fail(step, i, next)
			next = protocol.MinWindow
		}
		w := protocol.Clamp(next, maxW)
		if math.IsInf(w, 0) || w < 0 {
			// Reachable when MaxWindow is +Inf and the protocol runs away.
			c.fail(step, i, w)
			w = protocol.MinWindow
		}
		win[i] = w
	}
}

// next is the update of sender i of cell c when it has no kernel or has
// Period > 1: its protocol's Next, fed the epoch's aggregated loss
// 1 − Π(1−loss) and mean RTT. A synchronized sender's epoch is the one
// step, which observes loss and rtt. That is the epoch's 1 − (1 − loss)
// exactly: every loss the step produces is fl(1 − y) with y in [0, 1],
// and for such an L the subtraction 1 − L is exact (Sterbenz's lemma, or
// a representable result), so fl(1 − fl(1 − L)) = L. held reports a step
// between the updates of a sender with Period > 1, whose window is held.
func (b *Batch) next(c *batchLink, i, step int, rtt, loss float64) (next float64, held bool) {
	s := &c.senders[i]
	obsLoss, obsRTT := loss, rtt
	if s.Period > 1 {
		j := c.off + i
		b.survive[j] *= 1 - loss
		b.rttSum[j] += rtt
		b.epochSteps[j]++
		if step%s.Period != s.Phase {
			return 0, true
		}
		obsLoss, obsRTT = 1-b.survive[j], b.rttSum[j]/float64(b.epochSteps[j])
		b.survive[j], b.rttSum[j], b.epochSteps[j] = 1, 0, 0
	}
	return s.Proto.Next(protocol.Feedback{Step: step, Window: b.win[c.off+i], RTT: obsRTT, Loss: obsLoss}), false
}
