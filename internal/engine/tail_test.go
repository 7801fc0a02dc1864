package engine

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/fluid"
	"repro/internal/protocol"
)

// tailCollector is a stepCollector that reads only the last tail steps,
// so the engine may withhold the ones before.
type tailCollector struct {
	stepCollector
	tail int
}

func (c *tailCollector) TailSteps() int { return c.tail }

// tailStripCollector is the strip-observing tailCollector.
type tailStripCollector struct {
	stripCollector
	tail int
}

func (c *tailStripCollector) TailSteps() int { return c.tail }

// checkSuffix asserts that got is exactly want[from:]: same indices,
// totals, feedback and window bits.
func checkSuffix(t *testing.T, name string, got, want []Step, from int) {
	t.Helper()
	want = want[from:]
	if len(got) != len(want) {
		t.Fatalf("%s: %d steps, want %d (from %d)", name, len(got), len(want), from)
	}
	for k := range want {
		g, w := got[k], want[k]
		if g.Index != w.Index || g.Total != w.Total || g.RTT != w.RTT || g.Loss != w.Loss {
			t.Fatalf("%s step %d: %+v, want %+v", name, k, g, w)
		}
		if len(g.Windows) != len(w.Windows) {
			t.Fatalf("%s step %d: %d windows, want %d", name, k, len(g.Windows), len(w.Windows))
		}
		for f := range w.Windows {
			if math.Float64bits(g.Windows[f]) != math.Float64bits(w.Windows[f]) {
				t.Fatalf("%s step %d flow %d: window %v, want %v", name, k, f, g.Windows[f], w.Windows[f])
			}
		}
	}
}

func TestFirstObserved(t *testing.T) {
	plain := &stepCollector{}
	tail := func(n int) Observer { return &tailCollector{tail: n} }
	cases := []struct {
		name      string
		observers []Observer
		want      int
	}{
		{"none", nil, 300},
		{"plain", []Observer{plain}, 0},
		{"tail", []Observer{tail(77)}, 223},
		{"longest tail wins", []Observer{tail(10), tail(77), tail(30)}, 223},
		{"plain beside tail", []Observer{tail(77), plain}, 0},
		{"tail longer than run", []Observer{tail(500)}, 0},
		{"empty tail", []Observer{tail(0)}, 300},
	}
	for _, c := range cases {
		if got := firstObserved(c.observers, 300); got != c.want {
			t.Errorf("%s: firstObserved = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestTailObserverFluidScalar: on the per-cell fluid path a TailObserver
// sees exactly the last steps with their true indices, and a plain
// observer beside it keeps both seeing every step.
func TestTailObserverFluidScalar(t *testing.T) {
	const steps = 300
	spec := func(observers ...Observer) Spec {
		senders, err := fluid.HomogeneousSenders(protocol.Reno(), 3, []float64{1, 20, 40})
		if err != nil {
			t.Fatal(err)
		}
		return Spec{Substrate: &FluidSpec{Cfg: fluidCfg(), Senders: senders, Steps: steps}, Observers: observers}
	}
	ref := &stepCollector{}
	if _, err := Run(context.Background(), spec(ref)); err != nil {
		t.Fatal(err)
	}
	for _, tail := range []int{0, 1, 77, steps - 1, steps, steps + 5} {
		tc := &tailCollector{tail: tail}
		if _, err := Run(context.Background(), spec(tc)); err != nil {
			t.Fatal(err)
		}
		checkSuffix(t, fmt.Sprintf("tail %d", tail), tc.steps, ref.steps, max(0, steps-tail))
	}
	tc, plain := &tailCollector{tail: 77}, &stepCollector{}
	if _, err := Run(context.Background(), spec(tc, plain)); err != nil {
		t.Fatal(err)
	}
	checkSuffix(t, "tail beside plain", tc.steps, ref.steps, 0)
	checkSuffix(t, "plain beside tail", plain.steps, ref.steps, 0)
}

// TestTailObserverBatch: on the grid-batch path every cell's observers
// get the steps from that cell's own first observed step on, whether
// they take strips or single steps, at every split of the group into
// chunks, in a plain and in a chaos group. Tails differ per cell, so the
// first strip starts off the emitStrip grid, some cells want nothing
// and some everything, and one cell pairs a TailObserver with a plain
// observer, which must keep both seeing every step.
func TestTailObserverBatch(t *testing.T) {
	const steps = 300
	sched := batchChaosSchedule()
	grids := []struct {
		name string
		grid func() []Spec
	}{
		{"plain", func() []Spec { return batchGrid(t, steps, mixedInits, nil) }},
		{"chaos", func() []Spec {
			return batchGrid(t, steps, pairInits, func(_ int, spec *Spec) { spec.Chaos, spec.ChaosSeed = sched, 1 })
		}},
	}
	tailOf := func(i int) int {
		switch i {
		case 0:
			return 0
		case 1:
			return steps + 10
		default:
			return 41 + 13*i
		}
	}
	const mixed = 2 // the cell with a plain observer beside its TailObserver
	for _, g := range grids {
		refSpecs := g.grid()
		refs := make([]*stepCollector, len(refSpecs))
		for i := range refSpecs {
			refs[i] = &stepCollector{}
			refSpecs[i].Observers = []Observer{refs[i]}
		}
		runPerCell(t, refSpecs)
		for _, strip := range []bool{false, true} {
			for _, workers := range splitWorkers {
				name := fmt.Sprintf("%s strip=%v workers=%d", g.name, strip, workers)
				specs := g.grid()
				got := make([]func() []Step, len(specs))
				strips := 0
				for i := range specs {
					if strip {
						c := &tailStripCollector{stripCollector: stripCollector{t: t}, tail: tailOf(i)}
						specs[i].Observers = []Observer{c}
						got[i] = func() []Step { strips += c.strips; return c.steps }
					} else {
						c := &tailCollector{tail: tailOf(i)}
						specs[i].Observers = []Observer{c}
						got[i] = func() []Step { return c.steps }
					}
				}
				plain := &stepCollector{}
				specs[mixed].Observers = append(specs[mixed].Observers, plain)
				if _, err := SweepSpecs(context.Background(), specs, SweepConfig{Workers: workers}); err != nil {
					t.Fatal(err)
				}
				for i := range specs {
					from := firstObserved(specs[i].Observers, steps)
					if wantFrom := max(0, steps-tailOf(i)); i != mixed && from != wantFrom {
						t.Fatalf("%s cell %d: first observed step %d, want %d", name, i, from, wantFrom)
					}
					checkSuffix(t, fmt.Sprintf("%s cell %d", name, i), got[i](), refs[i].steps, from)
				}
				checkSuffix(t, name+" plain observer", plain.steps, refs[mixed].steps, 0)
				if strip && strips == 0 {
					t.Fatalf("%s delivered no strips; batched path not taken", name)
				}
			}
		}
	}
}

// TestTailObserverDivergence: a diverging cell watched only by a
// TailObserver fails with the error it fails with unwatched, per cell
// and inside a batch group.
func TestTailObserverDivergence(t *testing.T) {
	const steps = 300
	diverging := func(observers ...Observer) Spec {
		cfg := fluid.Config{Infinite: true, PropDelay: 0.021, MaxWindow: math.Inf(1)}
		return Spec{
			Substrate: &FluidSpec{
				Cfg: cfg,
				Senders: []fluid.Sender{
					{Proto: protocol.NewMIMD(10, 0.5), Init: 1e300},
					{Proto: protocol.NewMIMD(10, 0.5), Init: 1e300},
				},
				Steps: steps,
			},
			Observers: observers,
		}
	}
	_, bare := Run(context.Background(), diverging())
	if bare == nil {
		t.Fatal("diverging cell returned nil error")
	}
	if _, err := Run(context.Background(), diverging(&tailCollector{tail: 50})); err == nil || err.Error() != bare.Error() {
		t.Fatalf("Run with a TailObserver: error %v, want %v", err, bare)
	}
	grid := func(observe bool) []Spec {
		specs := batchGrid(t, steps, pairInits, nil)
		specs = append(specs, diverging())
		if observe {
			for i := range specs {
				specs[i].Observers = []Observer{&tailCollector{tail: 50}}
			}
		}
		return specs
	}
	_, want := SweepSpecs(context.Background(), grid(false), SweepConfig{Workers: 2})
	if want == nil {
		t.Fatal("diverging grid returned nil error")
	}
	if _, err := SweepSpecs(context.Background(), grid(true), SweepConfig{Workers: 2}); err == nil || err.Error() != want.Error() {
		t.Fatalf("sweep with TailObservers: error %v, want %v", err, want)
	}
}

// TestTailObserverTopo: a TopoSpec hands a TailObserver exactly its
// last steps, Topo included.
func TestTailObserverTopo(t *testing.T) {
	const steps, tail = 300, 77
	spec := func(observers ...Observer) Spec {
		links, flows := parkingLotSpecs(2)
		return Spec{Substrate: &TopoSpec{Links: links, Flows: flows, Steps: steps}, Observers: observers}
	}
	ref := &stepCollector{}
	if _, err := Run(context.Background(), spec(ref)); err != nil {
		t.Fatal(err)
	}
	tc := &tailCollector{tail: tail}
	var badTopo int
	check := ObserverFunc(func(s Step) {
		if s.Topo == nil || s.Topo.Step != s.Index {
			badTopo++
		}
	})
	if _, err := Run(context.Background(), spec(tc)); err != nil {
		t.Fatal(err)
	}
	checkSuffix(t, "topo tail", tc.steps, ref.steps, steps-tail)

	tc = &tailCollector{tail: tail}
	if _, err := Run(context.Background(), spec(tc, check)); err != nil {
		t.Fatal(err)
	}
	checkSuffix(t, "topo tail beside plain", tc.steps, ref.steps, 0)
	if badTopo != 0 {
		t.Fatalf("%d steps without a matching Topo", badTopo)
	}
}
