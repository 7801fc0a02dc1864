package protocol

import "math"

// KernelOp selects the closed-form update family a Kernel applies.
type KernelOp uint8

// The kernel families. Each op is the update rule of exactly one protocol
// type, whose Next steps it; see that type's documentation for the rule.
const (
	// OpAIMD is AIMD(a,b): w+A on loss-free steps, w·B on lossy ones.
	OpAIMD KernelOp = 1 + iota
	// OpMIMD is MIMD(a,b): w·A on loss-free steps, w·B on lossy ones.
	OpMIMD
	// OpBinomial is BIN(a,b,k,l): w + A/wᴷ or w − B·wᴸ.
	OpBinomial
	// OpRobustAIMD is Robust-AIMD(a,b,ε): the AIMD rule gated on the
	// measured loss rate reaching ε (stored in L).
	OpRobustAIMD
	// OpHighSpeed is HighSpeed TCP (RFC 3649): standard TCP below the
	// low-window threshold (stored in A), the interpolated response
	// table above it.
	OpHighSpeed
	// OpCubic is CUBIC(c,b): the cubic window curve anchored at the
	// last-loss window. The only stateful op — X, T, and Primed are
	// Cubic's per-sender state (xmax, steps, primed).
	OpCubic
)

// Kernel is a protocol's window-update rule reduced to closed form, so a
// stepper can advance many senders without interface dispatch or
// Feedback construction. A kernel exists only for the loss-based
// families: their Next depends on nothing but the current window, the
// observed loss rate, and (for stateful ops like OpCubic) a fixed set of
// scalar state slots the kernel itself carries — which is what makes
// lockstep structure-of-arrays stepping possible. Steppers hold one
// Kernel value per sender, so per-sender state lives in the copy.
//
// Each kernelized family's Next steps its kernel's rule, so for every
// protocol P exposing a kernel K and every (w, loss) sequence,
// K.Step(w, loss) returns the exact float64s that
// P.Next(Feedback{Window: w, Loss: loss}) would: the rule is written
// once. Feedback.Step and Feedback.RTT are not parameters because no
// kernelized family reads them (they are all LossBased).
type Kernel struct {
	Op KernelOp
	// A, B, K, L hold the family's parameters, reusing the slots per op:
	// AIMD/MIMD use A and B; Binomial uses all four; RobustAIMD stores
	// ε in L; HighSpeed stores LowWindow in A; Cubic stores c in A and
	// b in B.
	A, B, K, L float64
	// X, T, and Primed are the mutable per-sender state slots, used only
	// by stateful ops. OpCubic keeps its last-loss window in X, the step
	// count since that loss in T, and the primed flag in Primed.
	X, T   float64
	Primed bool
}

// Step returns the next window for a sender whose current window is w and
// whose observed loss rate for the step is loss, by the rule of the
// kernel's op. Stateful ops mutate the receiver's state slots, so callers
// must invoke Step on the per-sender Kernel they persist (a slice
// element, not a copy). A zero (invalid) Op returns w unchanged; steppers
// must not hold such kernels.
func (k *Kernel) Step(w, loss float64) float64 {
	switch k.Op {
	case OpAIMD:
		return k.aimd(w, loss)
	case OpMIMD:
		return k.mimd(w, loss)
	case OpBinomial:
		if w < MinWindow {
			w = MinWindow
		}
		if loss > 0 {
			return w - k.B*math.Pow(w, k.L)
		}
		return w + k.A/math.Pow(w, k.K)
	case OpRobustAIMD:
		return k.robustAIMD(w, loss)
	case OpHighSpeed:
		w = math.Max(w, MinWindow)
		if w <= k.A {
			// Standard TCP regime.
			if loss > 0 {
				return w * 0.5
			}
			return w + 1
		}
		a, b := hsParams(w)
		if loss > 0 {
			return w * (1 - b)
		}
		return w + a
	case OpCubic:
		// Before the first loss there is no "last-loss window". Seed the
		// curve so that the current window lies on it exactly at the
		// inflection point: X = current window, T = K = cbrt(X(1−B)/A).
		// The window then accelerates away from its starting point,
		// which mirrors Cubic's convex probing phase. A loss re-anchors
		// the curve; otherwise the window follows it.
		if !k.Primed {
			k.X = math.Max(w, MinWindow)
			k.T = math.Cbrt(k.X * (1 - k.B) / k.A)
			k.Primed = true
		}
		if loss > 0 {
			k.X = math.Max(w, MinWindow)
			k.T = 0
			return k.X * k.B
		}
		k.T++
		d := k.T - math.Cbrt(k.X*(1-k.B)/k.A)
		return k.X + k.A*d*d*d
	}
	return w
}

// The one-line rules have methods of their own, which Step and the
// families' Next both inline, so the rule is written once and neither
// pays a call. The rules that call into math (Binomial, HighSpeed,
// Cubic) are too large to inline: they live in Step's switch, and their
// families' Next calls Step, whose dispatch is small next to the math.

func (k *Kernel) aimd(w, loss float64) float64 {
	if loss > 0 {
		return w * k.B
	}
	return w + k.A
}

func (k *Kernel) mimd(w, loss float64) float64 {
	if loss > 0 {
		return w * k.B
	}
	return w * k.A
}

func (k *Kernel) robustAIMD(w, loss float64) float64 {
	if loss >= k.L {
		return w * k.B
	}
	return w + k.A
}

// Valid reports whether the kernel names a known op.
func (k Kernel) Valid() bool { return k.Op >= OpAIMD && k.Op <= OpCubic }

// BatchStepper is the optional interface a Protocol implements to be
// stepped without interface dispatch (internal/fluid's Batch). Kernel
// returns the closed-form kernel and true when the instance is
// expressible as one; the stepper then steps its own copy for a
// synchronized sender and never calls the protocol again.
// Implementations whose parameters or state preclude a closed form
// return ok = false and are stepped through Next.
//
// Only loss-based protocols whose state fits the Kernel's scalar slots
// may implement this: a kernel never sees RTT, so anything RTT-sensitive
// or with open-ended history (PCC's monitor intervals, BBRish's phases)
// must not claim a kernel. Stateful-but-scalar families (Cubic) may, and
// the returned kernel carries the instance's live state.
type BatchStepper interface {
	Kernel() (Kernel, bool)
}

// Kernel implements BatchStepper.
func (p *AIMD) Kernel() (Kernel, bool) {
	return Kernel{Op: OpAIMD, A: p.A, B: p.B}, true
}

// Kernel implements BatchStepper.
func (p *MIMD) Kernel() (Kernel, bool) {
	return Kernel{Op: OpMIMD, A: p.A, B: p.B}, true
}

// Kernel implements BatchStepper.
func (p *Binomial) Kernel() (Kernel, bool) {
	return Kernel{Op: OpBinomial, A: p.A, B: p.B, K: p.K, L: p.L}, true
}

// Kernel implements BatchStepper. ε travels in the L slot.
func (p *RobustAIMD) Kernel() (Kernel, bool) {
	return Kernel{Op: OpRobustAIMD, A: p.A, B: p.B, L: p.Eps}, true
}

// Kernel implements BatchStepper. LowWindow travels in the A slot.
func (p *HighSpeed) Kernel() (Kernel, bool) {
	return Kernel{Op: OpHighSpeed, A: p.LowWindow}, true
}

// Kernel implements BatchStepper. c travels in A, b in B, and the state
// slots hold the instance's live state (zero until its first step), so a
// primed Cubic's kernel continues its curve where the instance is.
func (p *Cubic) Kernel() (Kernel, bool) {
	k := p.state
	k.Op, k.A, k.B = OpCubic, p.C, p.B
	return k, true
}
