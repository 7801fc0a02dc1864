package protocol

import (
	"math"
	"testing"
)

// kernelCases are the batchable protocol instances the bit-identity matrix
// covers, spanning default and off-default parameters for each family.
func kernelCases() []Protocol {
	return []Protocol{
		Reno(),
		NewAIMD(1, 0.875),
		NewAIMD(0.5, 0.3),
		Scalable(),
		NewMIMD(1.05, 0.6),
		IIAD(),
		SQRT(),
		NewBinomial(1.5, 0.25, 0.75, 0.25),
		NewRobustAIMD(1, 0.5, 0.05),
		NewRobustAIMD(0.7, 0.8, 0.01),
		NewHighSpeed(),
		&HighSpeed{LowWindow: 100},
		CubicLinux(),
		NewCubic(1.2, 0.5),
	}
}

// ruleOracle is each kernelized family's update rule written out on its
// own, as the families' Next methods stated it before they stepped their
// kernels. It is the independent reference TestKernelBitIdentity holds
// Kernel.Step and Next to. Cubic's state lives in the oracle value.
type ruleOracle struct {
	p      Protocol
	xmax   float64
	steps  float64
	primed bool
}

func (o *ruleOracle) next(fb Feedback) float64 {
	switch p := o.p.(type) {
	case *AIMD:
		if fb.Loss > 0 {
			return fb.Window * p.B
		}
		return fb.Window + p.A
	case *MIMD:
		if fb.Loss > 0 {
			return fb.Window * p.B
		}
		return fb.Window * p.A
	case *Binomial:
		w := fb.Window
		if w < MinWindow {
			w = MinWindow
		}
		if fb.Loss > 0 {
			return w - p.B*math.Pow(w, p.L)
		}
		return w + p.A/math.Pow(w, p.K)
	case *RobustAIMD:
		if fb.Loss >= p.Eps {
			return fb.Window * p.B
		}
		return fb.Window + p.A
	case *HighSpeed:
		w := math.Max(fb.Window, MinWindow)
		if w <= p.LowWindow {
			if fb.Loss > 0 {
				return w * 0.5
			}
			return w + 1
		}
		a, b := hsParams(w)
		if fb.Loss > 0 {
			return w * (1 - b)
		}
		return w + a
	case *Cubic:
		inflection := func() float64 { return math.Cbrt(o.xmax * (1 - p.B) / p.C) }
		if !o.primed {
			o.xmax = math.Max(fb.Window, MinWindow)
			o.steps = inflection()
			o.primed = true
		}
		if fb.Loss > 0 {
			o.xmax = math.Max(fb.Window, MinWindow)
			o.steps = 0
			return o.xmax * p.B
		}
		o.steps++
		d := o.steps - inflection()
		return o.xmax + p.C*d*d*d
	}
	panic("no rule oracle for " + o.p.Name())
}

// TestKernelBitIdentity asserts that Kernel.Step and Next both return the
// exact float64 the family's rule oracle does, across a grid of windows
// and loss rates that exercises every branch: zero loss, sub- and
// super-threshold loss, windows at and below MinWindow, and HighSpeed
// windows on both sides of LowWindow and beyond the response-table
// endpoints. Next steps the protocol's own kernel, so this also checks
// that a kernel copy and the protocol it came from evolve alike.
func TestKernelBitIdentity(t *testing.T) {
	windows := []float64{0, 0.5, 1, 1.5, 2, 10, 37.5, 38, 38.5, 100, 1000, 90000, 1e9}
	losses := []float64{0, 1e-9, 0.005, 0.01, 0.049999, 0.05, 0.2, 0.999}

	for _, p := range kernelCases() {
		bs, ok := p.(BatchStepper)
		if !ok {
			t.Fatalf("%s does not implement BatchStepper", p.Name())
		}
		k, ok := bs.Kernel()
		if !ok {
			t.Fatalf("%s: Kernel() returned ok=false", p.Name())
		}
		if !k.Valid() {
			t.Fatalf("%s: kernel op %d invalid", p.Name(), k.Op)
		}
		// Stateful kernels (Cubic) mutate k, p and the oracle in tandem,
		// so the grid doubles as a state-trajectory identity check: every
		// (w, loss) visits all three in the same order.
		oracle := &ruleOracle{p: p.Clone()}
		for _, w := range windows {
			for _, loss := range losses {
				fb := Feedback{Window: w, Loss: loss}
				want := oracle.next(fb)
				if got := k.Step(w, loss); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s: Step(%g, %g) = %v, rule = %v", p.Name(), w, loss, got, want)
				}
				if got := p.Next(fb); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s: Next(%g, %g) = %v, rule = %v", p.Name(), w, loss, got, want)
				}
			}
		}
	}
}

// TestPrimedCubicKernelCarriesState pins that a Cubic instance with live
// state hands out a kernel holding that state, so the kernel continues
// the window curve exactly where the instance would, and that Clone
// still resets it.
func TestPrimedCubicKernelCarriesState(t *testing.T) {
	p := CubicLinux()
	k, ok := p.Kernel()
	if !ok || k.Primed {
		t.Fatalf("fresh Cubic kernel = %+v, %v; want an unprimed kernel", k, ok)
	}
	p.Next(Feedback{Window: 50, Loss: 0})
	p.Next(Feedback{Window: 60, Loss: 0.1})
	p.Next(Feedback{Window: 48, Loss: 0})
	k, ok = p.Kernel()
	if !ok || !k.Primed || k.X != 60 || k.T != 1 {
		t.Fatalf("primed Cubic kernel = %+v, %v; want xmax 60 after 1 step", k, ok)
	}
	for i, fb := range []Feedback{{Window: 49}, {Window: 51}, {Window: 55, Loss: 0.2}, {Window: 44}} {
		want := p.Next(fb)
		if got := k.Step(fb.Window, fb.Loss); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d: kernel %v, Next %v", i, got, want)
		}
	}
	clone, ok := p.Clone().(*Cubic)
	if !ok {
		t.Fatal("Cubic.Clone did not return *Cubic")
	}
	if k, _ := clone.Kernel(); k.Primed || k.X != 0 || k.T != 0 {
		t.Fatalf("cloned Cubic kernel %+v carries state; Clone must reset it", k)
	}
}

// TestKernelIgnoresRTTAndStep pins the contract that kernelized families
// are loss-based: Next must not depend on Feedback.Step or Feedback.RTT,
// or the kernel (which never sees them) could diverge.
func TestKernelIgnoresRTTAndStep(t *testing.T) {
	for _, p := range kernelCases() {
		if !p.LossBased() {
			t.Fatalf("%s has a kernel but is not loss-based", p.Name())
		}
		a := p.Next(Feedback{Step: 0, Window: 50, RTT: 0.01, Loss: 0.02})
		b := p.Next(Feedback{Step: 999, Window: 50, RTT: 3.5, Loss: 0.02})
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("%s: Next depends on Step/RTT (%v vs %v)", p.Name(), a, b)
		}
	}
}

// TestNonBatchableFamilies asserts the stateful and RTT-sensitive families
// do not claim kernels.
func TestNonBatchableFamilies(t *testing.T) {
	for _, p := range []Protocol{
		DefaultPCC(),
		DefaultVegas(),
		NewBBRish(),
		DefaultTFRC(),
		NewProbeUntilLoss(1),
		&Func{Fn: func(fb Feedback) float64 { return fb.Window + 1 }},
	} {
		if bs, ok := p.(BatchStepper); ok {
			if _, claims := bs.Kernel(); claims {
				t.Errorf("%s claims a kernel but must not", p.Name())
			}
		}
	}
}

// TestKernelZeroOp pins the defensive behavior of an unset kernel.
func TestKernelZeroOp(t *testing.T) {
	var k Kernel
	if k.Valid() {
		t.Fatal("zero kernel reports valid")
	}
	if got := k.Step(42, 0.5); got != 42 {
		t.Fatalf("zero kernel Step = %v, want identity", got)
	}
}
