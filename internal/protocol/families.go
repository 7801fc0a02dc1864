package protocol

import (
	"fmt"
	"math"
)

// AIMD is the additive-increase multiplicative-decrease family AIMD(a,b):
// on a loss-free step the window grows by A segments; on a lossy step it is
// multiplied by B. TCP Reno in the paper's model is AIMD(1, 0.5) and TCP
// Scalable in some environments is AIMD(1, 0.875).
type AIMD struct {
	A float64 // additive increase per RTT, in MSS (a > 0)
	B float64 // multiplicative decrease factor (0 < b < 1)
}

// NewAIMD returns AIMD(a,b). It panics on parameters outside the paper's
// ranges (finite a > 0, 0 < b < 1). The comparisons are written so that
// NaN fails them.
func NewAIMD(a, b float64) *AIMD {
	if !(a > 0) || math.IsInf(a, 1) || !(b > 0 && b < 1) {
		panic(fmt.Sprintf("protocol: invalid AIMD(%v,%v)", a, b))
	}
	return &AIMD{A: a, B: b}
}

// Reno returns the paper's model of TCP Reno, AIMD(1, 0.5).
func Reno() *AIMD { return NewAIMD(1, 0.5) }

// ScalableAIMD returns AIMD(1, 0.875), the AIMD approximation of TCP
// Scalable the paper uses "in some environments".
func ScalableAIMD() *AIMD { return NewAIMD(1, 0.875) }

// Next implements Protocol.
func (p *AIMD) Next(fb Feedback) float64 {
	k, _ := p.Kernel()
	return k.aimd(fb.Window, fb.Loss)
}

// LossBased implements Protocol; AIMD ignores RTT.
func (p *AIMD) LossBased() bool { return true }

// Name implements Protocol.
func (p *AIMD) Name() string { return fmt.Sprintf("AIMD(%g,%g)", p.A, p.B) }

// Clone implements Protocol.
func (p *AIMD) Clone() Protocol { c := *p; return &c }

// MIMD is the multiplicative-increase multiplicative-decrease family
// MIMD(a,b): on a loss-free step the window is multiplied by A (> 1); on a
// lossy step it is multiplied by B. TCP Scalable is MIMD(1.01, 0.875).
type MIMD struct {
	A float64 // multiplicative increase factor (a > 1)
	B float64 // multiplicative decrease factor (0 < b < 1)
}

// NewMIMD returns MIMD(a,b). It panics on parameters outside a > 1,
// 0 < b < 1.
func NewMIMD(a, b float64) *MIMD {
	if a <= 1 || b <= 0 || b >= 1 {
		panic(fmt.Sprintf("protocol: invalid MIMD(%v,%v)", a, b))
	}
	return &MIMD{A: a, B: b}
}

// Scalable returns the paper's model of TCP Scalable, MIMD(1.01, 0.875).
func Scalable() *MIMD { return NewMIMD(1.01, 0.875) }

// Next implements Protocol.
func (p *MIMD) Next(fb Feedback) float64 {
	k, _ := p.Kernel()
	return k.mimd(fb.Window, fb.Loss)
}

// LossBased implements Protocol.
func (p *MIMD) LossBased() bool { return true }

// Name implements Protocol.
func (p *MIMD) Name() string { return fmt.Sprintf("MIMD(%g,%g)", p.A, p.B) }

// Clone implements Protocol.
func (p *MIMD) Clone() Protocol { c := *p; return &c }

// Binomial is the binomial congestion-control family BIN(a,b,k,l) of
// Bansal & Balakrishnan (INFOCOM 2001) as formalized in §2:
//
//	x(t+1) = x(t) + a/x(t)^k   if L(t) = 0
//	x(t+1) = x(t) − b·x(t)^l   if L(t) > 0
//
// k = 0, l = 1 recovers AIMD; k = −1, l = 1 would be MIMD (not expressible
// here since k ≥ 0); k = 1, l = 1 is IIAD... the paper requires a > 0,
// 0 < b ≤ 1, k ≥ 0, l ∈ [0, 1].
type Binomial struct {
	A float64 // increase numerator (a > 0)
	B float64 // decrease coefficient (0 < b ≤ 1)
	K float64 // increase exponent (k ≥ 0)
	L float64 // decrease exponent (l ∈ [0, 1])
}

// NewBinomial returns BIN(a,b,k,l). It panics on parameters outside the
// paper's ranges.
func NewBinomial(a, b, k, l float64) *Binomial {
	if a <= 0 || b <= 0 || b > 1 || k < 0 || l < 0 || l > 1 {
		panic(fmt.Sprintf("protocol: invalid BIN(%v,%v,%v,%v)", a, b, k, l))
	}
	return &Binomial{A: a, B: b, K: k, L: l}
}

// IIAD returns BIN(1, 1, 1, 0): inverse-increase additive-decrease, a
// classic member of the binomial family.
func IIAD() *Binomial { return NewBinomial(1, 1, 1, 0) }

// SQRT returns BIN(1, 0.5, 0.5, 0.5), the "SQRT" binomial protocol.
func SQRT() *Binomial { return NewBinomial(1, 0.5, 0.5, 0.5) }

// Next implements Protocol.
func (p *Binomial) Next(fb Feedback) float64 {
	k, _ := p.Kernel()
	return k.Step(fb.Window, fb.Loss)
}

// LossBased implements Protocol.
func (p *Binomial) LossBased() bool { return true }

// Name implements Protocol.
func (p *Binomial) Name() string {
	return fmt.Sprintf("BIN(%g,%g,%g,%g)", p.A, p.B, p.K, p.L)
}

// Clone implements Protocol.
func (p *Binomial) Clone() Protocol { c := *p; return &c }

// Cubic models TCP Cubic's window curve CUBIC(c,b) per §2:
//
//	x(t+1) = xmax + c·(T − (xmax(1−b)/c)^(1/3))³   if L(t) = 0
//	x(t+1) = xmax·b                                 if L(t) > 0
//
// where xmax is the window at the last loss and T the number of steps since
// then. The inflection point of the curve sits at the previous maximum, so
// the window plateaus near xmax and then accelerates — Cubic's signature
// shape. The Linux default corresponds to CUBIC(0.4, 0.8) in the paper's
// evaluation.
type Cubic struct {
	C float64 // scaling factor (c > 0)
	B float64 // rate-decrease factor (0 < b < 1)

	// state is the OpCubic kernel that steps this instance: xmax (the
	// window at the last loss) in X, T (steps since then) in T, and
	// whether xmax has been initialized in Primed.
	state Kernel
}

// NewCubic returns CUBIC(c,b). It panics on parameters outside c > 0,
// 0 < b < 1.
func NewCubic(c, b float64) *Cubic {
	if c <= 0 || b <= 0 || b >= 1 {
		panic(fmt.Sprintf("protocol: invalid CUBIC(%v,%v)", c, b))
	}
	return &Cubic{C: c, B: b}
}

// CubicLinux returns CUBIC(0.4, 0.8), the configuration the paper
// evaluates as Linux's TCP Cubic.
func CubicLinux() *Cubic { return NewCubic(0.4, 0.8) }

// Next implements Protocol: it steps the instance's own kernel, so the
// kernel's state slots are the protocol's state.
func (p *Cubic) Next(fb Feedback) float64 {
	p.state.Op, p.state.A, p.state.B = OpCubic, p.C, p.B
	return p.state.Step(fb.Window, fb.Loss)
}

// LossBased implements Protocol.
func (p *Cubic) LossBased() bool { return true }

// Name implements Protocol.
func (p *Cubic) Name() string { return fmt.Sprintf("CUBIC(%g,%g)", p.C, p.B) }

// Clone implements Protocol.
func (p *Cubic) Clone() Protocol { return NewCubic(p.C, p.B) }

// RobustAIMD is the paper's §5.2 Robust-AIMD(a,b,ε): an AIMD rule driven by
// the measured loss *rate* of each monitor interval rather than by any
// single loss event. The window is additively increased by A while the
// loss rate stays below ε and multiplicatively decreased by B otherwise:
//
//	x(t+1) = x(t) + a   if L(t) < ε
//	x(t+1) = x(t)·b     if L(t) ≥ ε
//
// Tolerating loss below ε makes the protocol ε-robust to non-congestion
// loss (Metric VI) at a quantified cost in TCP-friendliness (Theorem 3).
type RobustAIMD struct {
	A   float64 // additive increase per RTT (a > 0)
	B   float64 // multiplicative decrease factor (0 < b < 1)
	Eps float64 // loss-rate tolerance ε ∈ (0, 1)
}

// NewRobustAIMD returns Robust-AIMD(a,b,ε). It panics on invalid
// parameters.
func NewRobustAIMD(a, b, eps float64) *RobustAIMD {
	if a <= 0 || b <= 0 || b >= 1 || eps <= 0 || eps >= 1 {
		panic(fmt.Sprintf("protocol: invalid RobustAIMD(%v,%v,%v)", a, b, eps))
	}
	return &RobustAIMD{A: a, B: b, Eps: eps}
}

// Next implements Protocol.
func (p *RobustAIMD) Next(fb Feedback) float64 {
	k, _ := p.Kernel()
	return k.robustAIMD(fb.Window, fb.Loss)
}

// LossBased implements Protocol.
func (p *RobustAIMD) LossBased() bool { return true }

// Name implements Protocol.
func (p *RobustAIMD) Name() string {
	return fmt.Sprintf("RobustAIMD(%g,%g,%g)", p.A, p.B, p.Eps)
}

// Clone implements Protocol.
func (p *RobustAIMD) Clone() Protocol { c := *p; return &c }
