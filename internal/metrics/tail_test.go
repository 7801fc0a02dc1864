package metrics

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/fluid"
	"repro/internal/protocol"
	"repro/internal/rand64"
)

// tailFracs are the tail fractions the withholding tests cover: 0 (the
// default, 0.75, chosen by the stream), and 0.5 and 0.75 explicitly.
var tailFracs = []float64{0, 0.5, DefaultTailFrac}

// withholdHorizons returns the horizons the withholding tests cover:
// every horizon up to 20, which includes runs shorter than a ring (the
// engine then withholds nothing), and seeded random ones up to 1500.
func withholdHorizons(rng *rand64.Source, random int) []int {
	var hs []int
	for h := 1; h <= 20; h++ {
		hs = append(hs, h)
	}
	for i := 0; i < random; i++ {
		hs = append(hs, 21+rng.Intn(1480))
	}
	return hs
}

// countingStream is a Stream, TailObserver included, that counts the
// steps and strips the engine hands it.
type countingStream struct {
	*Stream
	seen, strips int
}

func (c *countingStream) Observe(st engine.Step) { c.seen++; c.Stream.Observe(st) }

func (c *countingStream) ObserveStrip(st engine.Strip) {
	c.seen += st.Count
	c.strips++
	c.Stream.ObserveStrip(st)
}

// streamSummariesBitEqual describes the first field in which two
// summaries differ by bit pattern, or returns "".
func streamSummariesBitEqual(a, b *StreamSummary) string {
	scalars := []struct {
		name string
		x, y float64
	}{
		{"efficiency", a.Efficiency, b.Efficiency},
		{"loss avoidance", a.LossAvoidance, b.LossAvoidance},
		{"convergence", a.Convergence, b.Convergence},
		{"latency avoidance", a.LatencyAvoidance, b.LatencyAvoidance},
		{"utilization", a.Utilization, b.Utilization},
		{"mean loss", a.MeanLoss, b.MeanLoss},
		{"mean rtt", a.MeanRTT, b.MeanRTT},
	}
	for _, s := range scalars {
		if math.Float64bits(s.x) != math.Float64bits(s.y) {
			return fmt.Sprintf("%s %v != %v", s.name, s.x, s.y)
		}
	}
	bits := func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) }
	if !slices.EqualFunc(a.AvgWindows, b.AvgWindows, bits) {
		return fmt.Sprintf("avg windows %v != %v", a.AvgWindows, b.AvgWindows)
	}
	if !slices.EqualFunc(a.AvgGoodputs, b.AvgGoodputs, bits) {
		return fmt.Sprintf("avg goodputs %v != %v", a.AvgGoodputs, b.AvgGoodputs)
	}
	return ""
}

// TestStreamWithholdingBitIdentical: over seeded random single-link runs
// a Stream the engine withholds the pre-tail steps from summarizes bit
// for bit like one that observes every step (behind a plain
// ObserverFunc, which is no TailObserver), per cell and on the
// grid-batch path, and is handed exactly min(horizon, TailSteps) steps.
func TestStreamWithholdingBitIdentical(t *testing.T) {
	rng := rand64.New(20261017)
	cfg := fluid.Config{Bandwidth: 1200, PropDelay: 0.05, Buffer: 60}
	strips := 0
	for _, h := range withholdHorizons(rng, 12) {
		for _, tf := range tailFracs {
			fam := protocolFamilies[rng.Intn(len(protocolFamilies))]
			p := fam.make(rng)
			n := 1 + rng.Intn(3)
			protos := make([]protocol.Protocol, n)
			init := make([]float64, n)
			for i := range protos {
				protos[i] = p
				init[i] = math.Floor(rng.Range(1, 60))
			}
			sub := func() *engine.FluidSpec {
				return &engine.FluidSpec{Cfg: cfg, Senders: fluid.MixedSenders(protos, init), Steps: h}
			}
			name := fmt.Sprintf("%s n=%d horizon=%d tail=%v", fam.name, n, h, tf)

			full, tail := NewStream(sub().Meta(), tf), &countingStream{Stream: NewStream(sub().Meta(), tf)}
			if _, err := engine.Run(context.Background(), engine.Spec{Substrate: sub(), Observers: []engine.Observer{engine.ObserverFunc(full.Observe)}}); err != nil {
				t.Fatal(err)
			}
			if _, err := engine.Run(context.Background(), engine.Spec{Substrate: sub(), Observers: []engine.Observer{tail}}); err != nil {
				t.Fatal(err)
			}
			if want := min(h, tail.TailSteps()); tail.seen != want {
				t.Fatalf("%s: stream handed %d steps, want %d", name, tail.seen, want)
			}
			if tail.Steps() != full.Steps() {
				t.Fatalf("%s: Steps %d, want %d", name, tail.Steps(), full.Steps())
			}
			if d := streamSummariesBitEqual(tail.Summary(), full.Summary()); d != "" {
				t.Fatalf("%s: %s", name, d)
			}

			// The batch path: a group of identical cells, one per worker
			// chunk, each watched by a withheld stream.
			const cells = 4
			specs := make([]engine.Spec, cells)
			batched := make([]*countingStream, cells)
			for i := range specs {
				batched[i] = &countingStream{Stream: NewStream(sub().Meta(), tf)}
				specs[i] = engine.Spec{Substrate: sub(), Observers: []engine.Observer{batched[i]}}
			}
			if _, err := engine.SweepSpecs(context.Background(), specs, engine.SweepConfig{Workers: 2}); err != nil {
				t.Fatal(err)
			}
			for i, b := range batched {
				strips += b.strips
				if b.seen != tail.seen || b.Steps() != full.Steps() {
					t.Fatalf("%s batched cell %d: handed %d of %d steps, want %d of %d", name, i, b.seen, b.Steps(), tail.seen, full.Steps())
				}
				if d := streamSummariesBitEqual(b.Summary(), full.Summary()); d != "" {
					t.Fatalf("%s batched cell %d: %s", name, i, d)
				}
			}
		}
	}
	if strips == 0 {
		t.Fatal("no stream received a strip; the batch path was never taken")
	}
}

// countingTopoStream is a TopoStream, TailObserver included, that counts
// the steps the engine hands it.
type countingTopoStream struct {
	*TopoStream
	seen int
}

func (c *countingTopoStream) Observe(st engine.Step) { c.seen++; c.TopoStream.Observe(st) }

// TestTopoStreamWithholdingBitIdentical is the topology counterpart: a
// TopoStream the engine withholds pre-tail steps from freezes into the
// same TopoSummary, bit for bit, as one that observes every step.
func TestTopoStreamWithholdingBitIdentical(t *testing.T) {
	rng := rand64.New(20261018)
	links, flows := topoFixture()
	for _, h := range withholdHorizons(rng, 8) {
		for _, tf := range tailFracs {
			spec := func(o engine.Observer) engine.Spec {
				return engine.Spec{
					Substrate: &engine.TopoSpec{Links: links, Flows: flows, Steps: h},
					Observers: []engine.Observer{o},
				}
			}
			full, tail := NewTopoStream(links, flows, h, tf), &countingTopoStream{TopoStream: NewTopoStream(links, flows, h, tf)}
			if _, err := engine.Run(context.Background(), spec(engine.ObserverFunc(full.Observe))); err != nil {
				t.Fatal(err)
			}
			if _, err := engine.Run(context.Background(), spec(tail)); err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("horizon=%d tail=%v", h, tf)
			if want := min(h, tail.TailSteps()); tail.seen != want {
				t.Fatalf("%s: stream handed %d steps, want %d", name, tail.seen, want)
			}
			if tail.Steps() != full.Steps() {
				t.Fatalf("%s: Steps %d, want %d", name, tail.Steps(), full.Steps())
			}
			if !topoSummariesBitEqual(tail.Summary(), full.Summary()) {
				t.Fatalf("%s: summaries differ:\n%+v\n%+v", name, tail.Summary(), full.Summary())
			}
		}
	}
}
