package fluid

import (
	"fmt"
	"math"

	"repro/internal/protocol"
	"repro/internal/rand64"
)

// This file implements batched structure-of-arrays (SoA) stepping: many
// independent links ("cells" — typically the cells of a sweep grid)
// advanced in lockstep by one tight loop per time step, instead of one
// interpreted Link.Step call per cell. Windows and kernels for all cells
// live contiguously, and the per-sender protocol dispatch of the scalar
// path (interface call, Feedback construction, epoch accumulators)
// collapses into a closed-form protocol.Kernel.Step.
//
// The contract is bit-identity with the scalar path: for any cell,
// Batch.Step must produce the exact float64 sequence Link.Step would.
// That is why Batchable restricts cells to the conditions under which the
// scalar path's extra machinery is provably inert: kernelized (loss-based,
// with any protocol state reduced to the kernel's scalar slots) protocols
// only, and Period ≤ 1 so every epoch is a single step and the epoch
// accumulators always hold their reset values when read. Per-sender kernel
// state lives in the kern array — Kernel.Step mutates its receiver, so a
// stateful family like Cubic evolves exactly as its scalar Next would,
// including across churn (departed flows are never stepped, and re-arrival
// resets the window but not the protocol state, on both paths). The
// congestion computation itself is shared code (congestionAt), identical
// by construction.

// BatchCell is one link in a Batch: the same (Config, Senders) pair that
// would be passed to New for scalar stepping.
type BatchCell struct {
	Cfg     Config
	Senders []Sender
}

// Batchable reports whether a (Config, Senders) pair can be stepped by a
// Batch with bit-identical results to a scalar Link, returning nil when it
// can and a descriptive error naming the first obstacle otherwise. The
// requirements beyond New's are: every sender's protocol must expose a
// closed-form kernel (protocol.BatchStepper with ok = true), and senders
// must use synchronized feedback (Period ≤ 1), since batched stepping has
// no epoch accumulators.
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
		if s.Period < 0 || s.Phase < 0 {
			return fmt.Errorf("fluid: sender %d has negative period or phase", i)
		}
		if s.Period > 1 {
			return fmt.Errorf("fluid: sender %d has period %d: unsynchronized feedback is not batchable", i, s.Period)
		}
		bs, ok := s.Proto.(protocol.BatchStepper)
		if !ok {
			return fmt.Errorf("fluid: sender %d protocol %s has no batch kernel", i, s.Proto.Name())
		}
		if k, ok := bs.Kernel(); !ok || !k.Valid() {
			return fmt.Errorf("fluid: sender %d protocol %s has no batch kernel", i, s.Proto.Name())
		}
	}
	return nil
}

// batchLink is the per-cell scalar state of a Batch; the per-sender state
// lives in the Batch's contiguous arrays, indexed by [off, off+n).
type batchLink struct {
	cfg      Config // defaulted
	off, n   int
	rng      *rand64.Source
	err      error   // first divergence, sticky; the cell freezes after
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
	win   []float64         // current windows (the scalar path's l.x)
	cur   []float64         // windows in effect during the last step (result buffer)
	initW []float64         // raw Sender.Init, for churn re-arrival resets
	kern  []protocol.Kernel // closed-form update rules
	act   []bool            // churn state; consulted only for cells with Perturb
}

// NewBatch returns a batch over the given cells, or an error naming the
// first cell that is invalid or not batchable. Kernels are extracted once
// here — each sender gets its own Kernel copy, which is where stateful
// kernels keep per-sender state — and the sender protocols themselves are
// never called again, so cells may share protocol instances freely.
func NewBatch(cells []BatchCell) (*Batch, error) {
	if len(cells) == 0 {
		return nil, fmt.Errorf("fluid: batch needs at least one cell")
	}
	total := 0
	for ci, cell := range cells {
		if err := Batchable(cell.Cfg, cell.Senders); err != nil {
			return nil, fmt.Errorf("fluid: batch cell %d: %w", ci, err)
		}
		total += len(cell.Senders)
	}
	b := &Batch{
		cells: make([]batchLink, len(cells)),
		win:   make([]float64, total),
		cur:   make([]float64, total),
		initW: make([]float64, total),
		kern:  make([]protocol.Kernel, total),
		act:   make([]bool, total),
	}
	off := 0
	for ci, cell := range cells {
		cfg := cell.Cfg.withDefaults()
		c := &b.cells[ci]
		c.cfg = cfg
		c.off, c.n = off, len(cell.Senders)
		c.rng = rand64.New(cfg.Seed)
		for i, s := range cell.Senders {
			b.win[off+i] = protocol.Clamp(s.Init, cfg.MaxWindow)
			b.initW[off+i] = s.Init
			k, _ := s.Proto.(protocol.BatchStepper).Kernel()
			b.kern[off+i] = k
		}
		off += len(cell.Senders)
	}
	return b, nil
}

// Cells returns the number of cells in the batch.
func (b *Batch) Cells() int { return len(b.cells) }

// StepIndex returns the index of the next step to execute.
func (b *Batch) StepIndex() int { return b.step }

// Config returns cell c's (defaulted) configuration.
func (b *Batch) Config(c int) Config { return b.cells[c].cfg }

// Err returns cell c's first divergence (nil if none). A diverged cell is
// frozen: subsequent Step calls skip it, matching the scalar engine path,
// which stops stepping a link after divergence. Other cells continue.
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

// Step advances every live cell one time step. It is the batched
// counterpart of Link.Step and allocation-free.
func (b *Batch) Step() {
	step := b.step
	for ci := range b.cells {
		c := &b.cells[ci]
		if c.err != nil {
			continue
		}
		b.stepCell(c, step)
	}
	b.step++
}

// stepCell is Link.Step transcribed onto the SoA state for one cell: the
// same operations in the same order, with the protocol's Next replaced by
// its kernel and the single-step epoch aggregation inlined (the observed
// loss is 1 − Π(1−loss) over a one-step epoch starting from survival 1,
// i.e. 1 − (1 − loss), which is what the scalar path computes — not loss
// itself, which can differ in the last bit).
func (b *Batch) stepCell(c *batchLink, step int) {
	off, n := c.off, c.n
	p := c.cfg.Perturb
	if p != nil {
		for i := 0; i < n; i++ {
			on := p.FlowActive(step, i)
			if on && !b.act[off+i] && step > 0 {
				// (Re)arrival mid-run: restart from the initial window.
				b.win[off+i] = protocol.Clamp(b.initW[off+i], c.cfg.MaxWindow)
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
	copy(b.cur[off:off+n], b.win[off:off+n])
	for i := 0; i < n; i++ {
		if p != nil && !b.act[off+i] {
			// Departed flow: no packets in flight, no feedback, window
			// frozen until re-arrival resets it.
			b.cur[off+i] = 0
			continue
		}
		loss := congLoss
		if c.cfg.Loss != nil {
			r := c.cfg.Loss.Rate(step, i, b.win[off+i], c.rng)
			loss = 1 - (1-loss)*(1-r)
		}
		if p != nil {
			if r := p.ExtraLoss(step, i); r > 0 {
				loss = 1 - (1-loss)*(1-r)
			}
		}
		obs := 1 - (1 - loss) // one-step epoch aggregation, as the scalar path observes it
		next := b.kern[off+i].Step(b.win[off+i], obs)
		if math.IsNaN(next) || math.IsInf(next, 0) {
			c.fail(step, i, next)
			next = protocol.MinWindow
		}
		w := protocol.Clamp(next, c.cfg.MaxWindow)
		if math.IsInf(w, 0) || w < 0 {
			// Reachable when MaxWindow is +Inf and the protocol runs away.
			c.fail(step, i, w)
			w = protocol.MinWindow
		}
		b.win[off+i] = w
	}
}
