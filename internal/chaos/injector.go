package chaos

import (
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/rand64"
)

// eventsApplied counts event activations across all injectors; recorded
// only while obs is enabled. The pointer is cached once — the registry
// preserves metric identity across Reset.
var eventsApplied = obs.GetCounter("chaos.events.applied")

// Injector is a compiled Schedule: the deterministic per-step oracle a
// substrate consults while it runs. Each substrate defines a small
// structurally-matching Perturber interface (fluid.Perturber,
// packetsim.Perturber, nettopo.Perturber) that Injector satisfies, so
// the simulators stay free of chaos imports.
//
// An Injector is single-use and single-goroutine, like the substrate
// run that owns it. Queries must be monotone in step (each simulator's
// clock only moves forward); a query for an earlier step answers with
// the current state.
type Injector struct {
	events       []Event
	flows, links int

	step   int // last advanced step; -1 before the first query
	nextAt int // index of the first event not yet activated

	ge        []geChain // one chain per ge-loss event, in event order
	jitterRng *rand64.Source
	hasJitter bool
	curJitter float64 // this step's shared jitter draw in [-1, 1]

	active []bool // per-flow churn state

	// Per-step memo: every query in one simulator step hits the same
	// answers, so they are computed once per (step, index).
	memoStep  int
	scaleMemo []float64 // per link; NaN = not yet computed this step
	lossMemo  []float64 // per flow
	rttMemo   []float64 // per link
}

// geChain is the state of one Gilbert–Elliott event: bad/good plus a
// dedicated RNG so its transition stream is independent of every other
// randomized component.
type geChain struct {
	bad bool
	rng *rand64.Source
}

// mix is the SplitMix64 finalizer over seed + φ·(i+1), the same
// derivation engine.CellSeed uses: bijective, avalanching, so per-event
// RNG streams are independent even for small seeds.
func mix(seed, i uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(i+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Compile validates the schedule against a substrate shape (flows
// senders, links links) and returns the deterministic Injector for it.
// The schedule itself is not mutated, so one Schedule value can be
// compiled concurrently by every cell of a sweep.
func (s *Schedule) Compile(seed uint64, flows, links int) (*Injector, error) {
	if s == nil {
		return nil, fmt.Errorf("chaos: nil schedule")
	}
	if flows < 1 || links < 1 {
		return nil, fmt.Errorf("chaos: compile needs at least one flow and one link, got %d/%d", flows, links)
	}
	norm := &Schedule{Events: append([]Event(nil), s.Events...)}
	if err := norm.Normalize(); err != nil {
		return nil, err
	}
	in := &Injector{
		events:    norm.Events,
		flows:     flows,
		links:     links,
		step:      -1,
		memoStep:  -1,
		active:    make([]bool, flows),
		scaleMemo: make([]float64, links),
		lossMemo:  make([]float64, flows),
		rttMemo:   make([]float64, links),
	}
	firstChurn := make([]Kind, flows)
	for i, e := range in.events {
		switch e.Kind {
		case KindFlowArrive, KindFlowDepart:
			if e.Flow >= flows {
				return nil, fmt.Errorf("chaos: event %d (%s) targets flow %d of %d", i, e.Kind, e.Flow, flows)
			}
			if firstChurn[e.Flow] == "" {
				firstChurn[e.Flow] = e.Kind
			}
		case KindGELoss:
			if e.Flow >= flows {
				return nil, fmt.Errorf("chaos: event %d (%s) targets flow %d of %d", i, e.Kind, e.Flow, flows)
			}
			in.ge = append(in.ge, geChain{rng: rand64.New(mix(seed, uint64(i)))})
		case KindRTTJitter:
			in.hasJitter = true
		}
		if e.Link >= links {
			return nil, fmt.Errorf("chaos: event %d (%s) targets link %d of %d", i, e.Kind, e.Link, links)
		}
	}
	// A flow whose first churn event is an arrival starts the run
	// inactive — it arrives mid-run. Everyone else is on from step 0.
	for f := range in.active {
		in.active[f] = firstChurn[f] != KindFlowArrive
	}
	if in.hasJitter {
		in.jitterRng = rand64.New(mix(seed, uint64(len(in.events))+1))
	}
	return in, nil
}

// advance moves the injector's clock forward to step, processing every
// intermediate step exactly once: event activations (counted in the
// chaos.events.applied metric), churn toggles, one transition per active
// Gilbert–Elliott chain, and one shared jitter draw when any jitter
// event is live. Random draw counts depend only on the schedule, never
// on which queries were issued, so all query orders see one stream.
func (in *Injector) advance(step int) {
	for s := in.step + 1; s <= step; s++ {
		count := uint64(0)
		for in.nextAt < len(in.events) && in.events[in.nextAt].At <= s {
			e := in.events[in.nextAt]
			switch e.Kind {
			case KindFlowArrive:
				in.active[e.Flow] = true
			case KindFlowDepart:
				in.active[e.Flow] = false
			}
			count++
			in.nextAt++
		}
		if count > 0 && obs.Enabled() {
			eventsApplied.Add(count)
		}
		gi := 0
		for _, e := range in.events {
			if e.Kind != KindGELoss {
				continue
			}
			c := &in.ge[gi]
			if e.activeAt(s) && s > e.At {
				u := c.rng.Float64()
				if c.bad {
					c.bad = u >= e.PBadGood
				} else {
					c.bad = u < e.PGoodBad
				}
			}
			gi++
		}
		if in.hasJitter {
			live := false
			for _, e := range in.events {
				if e.Kind == KindRTTJitter && e.activeAt(s) {
					live = true
					break
				}
			}
			if live {
				in.curJitter = 2*in.jitterRng.Float64() - 1
			} else {
				in.curJitter = 0
			}
		}
	}
	if step > in.step {
		in.step = step
	}
	if in.memoStep != in.step {
		in.memoStep = in.step
		for i := range in.scaleMemo {
			in.scaleMemo[i] = math.NaN()
		}
		for i := range in.lossMemo {
			in.lossMemo[i] = math.NaN()
		}
		for i := range in.rttMemo {
			in.rttMemo[i] = math.NaN()
		}
	}
}

// targets reports whether an event aimed at link index t applies to
// link l (t == -1 means every link).
func targets(t, l int) bool { return t == -1 || t == l }

// CapacityScale returns the bandwidth multiplier for link at step: the
// product of every live capacity shock, ramp, and flap, clamped to
// [FlapScale, maxScale].
func (in *Injector) CapacityScale(step, link int) float64 {
	in.advance(step)
	step = in.step
	if !math.IsNaN(in.scaleMemo[link]) {
		return in.scaleMemo[link]
	}
	scale := 1.0
	for _, e := range in.events {
		if !targets(e.Link, link) || step < e.At {
			continue
		}
		switch e.Kind {
		case KindCapacityScale:
			if e.activeAt(step) {
				scale *= e.Scale
			}
		case KindCapacityRamp:
			// Linear approach to Scale across the window, holding the
			// target afterwards — a permanent regime change.
			frac := float64(step-e.At) / float64(e.Duration)
			if frac > 1 {
				frac = 1
			}
			scale *= 1 + (e.Scale-1)*frac
		case KindLinkFlap:
			if e.activeAt(step) {
				scale *= FlapScale
			}
		}
	}
	if scale < FlapScale {
		scale = FlapScale
	}
	if scale > maxScale {
		scale = maxScale
	}
	in.scaleMemo[link] = scale
	return scale
}

// ExtraLoss returns the composed non-congestion loss rate flow sees at
// step from every live Gilbert–Elliott chain (independent drops), in
// [0, 1).
func (in *Injector) ExtraLoss(step, flow int) float64 {
	in.advance(step)
	step = in.step
	if !math.IsNaN(in.lossMemo[flow]) {
		return in.lossMemo[flow]
	}
	survive := 1.0
	gi := 0
	for _, e := range in.events {
		if e.Kind != KindGELoss {
			continue
		}
		if e.activeAt(step) && targets(e.Flow, flow) {
			rate := e.LossGood
			if in.ge[gi].bad {
				rate = e.LossBad
			}
			survive *= 1 - rate
		}
		gi++
	}
	loss := 1 - survive
	// Many stacked near-certain events can underflow survival to zero;
	// keep the composed rate strictly below 1 (a total blackout is the
	// link-flap kind's job, not the loss process's).
	if loss > maxCompositeLoss {
		loss = maxCompositeLoss
	}
	in.lossMemo[flow] = loss
	return loss
}

// maxCompositeLoss caps the composed extra-loss rate strictly below 1.
const maxCompositeLoss = 1 - 0x1p-20

// RTTOffset returns the additive RTT perturbation in seconds for link
// at step: the shared jitter draw scaled by every live jitter
// amplitude, plus all base-RTT steps taken so far. The result may be
// negative; substrates floor the final RTT at a small positive value.
func (in *Injector) RTTOffset(step, link int) float64 {
	in.advance(step)
	step = in.step
	if !math.IsNaN(in.rttMemo[link]) {
		return in.rttMemo[link]
	}
	off := 0.0
	for _, e := range in.events {
		if !targets(e.Link, link) || step < e.At {
			continue
		}
		switch e.Kind {
		case KindRTTJitter:
			if e.activeAt(step) {
				off += in.curJitter * e.Amplitude
			}
		case KindBaseRTTStep:
			off += e.Delta
		}
	}
	in.rttMemo[link] = off
	return off
}

// FlowActive reports whether flow is live at step per the schedule's
// churn events.
func (in *Injector) FlowActive(step, flow int) bool {
	in.advance(step)
	return in.active[flow]
}
