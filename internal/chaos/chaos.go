// Package chaos is the repository's deterministic fault-injection layer:
// a Schedule of timed perturbation events — capacity shocks, ramps and
// link flaps, bursty correlated loss (a Gilbert–Elliott two-state chain,
// generalizing Metric VI's constant rate), RTT jitter and base-RTT steps,
// and flow churn — that any of the three simulation substrates applies
// while it runs.
//
// The paper's robustness metric (Metric VI) scores a protocol against a
// *constant* non-congestion loss rate; real links drift, fade, flap and
// reroute. A Schedule describes those dynamics once, in substrate-neutral
// units (time steps), and Compile turns it into an Injector whose
// per-step answers are fully determined by the schedule and a seed:
// the same (Schedule, seed) pair yields bit-identical perturbations at
// any sweep worker count, which keeps chaos-enabled grids reproducible.
//
// Time is measured in the substrate's own step unit: fluid and nettopo
// steps are RTT-quantized model steps; the packet simulator maps its
// continuous clock onto steps of one trace tick (Config.Tick) each.
//
// Schedules are plain JSON (see Event for the field-per-kind table) so
// they can be shipped next to scenario files and loaded with the -chaos
// flag of the cmd tools:
//
//	{"events": [
//	  {"kind": "ge-loss", "at": 0, "p_good_bad": 0.02, "p_bad_good": 0.3, "loss_bad": 0.08},
//	  {"kind": "link-flap", "at": 1200, "duration": 60},
//	  {"kind": "capacity-scale", "at": 2000, "duration": 800, "scale": 0.5},
//	  {"kind": "flow-depart", "at": 3000, "flow": 1}
//	]}
package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Kind names one perturbation event type.
type Kind string

// The event kinds. Durations are open-ended (rest of run) when omitted
// or non-positive, except where noted.
const (
	// KindCapacityScale multiplies the link bandwidth by Scale during
	// [At, At+Duration). Overlapping capacity events compose by
	// multiplication.
	KindCapacityScale Kind = "capacity-scale"
	// KindCapacityRamp moves the bandwidth multiplier linearly from 1 at
	// At to Scale at At+Duration and holds Scale afterwards — a gradual
	// shift to a new capacity regime (Duration must be positive).
	KindCapacityRamp Kind = "capacity-ramp"
	// KindLinkFlap takes the link down (bandwidth multiplier FlapScale)
	// during [At, At+Duration) — an outage/handover.
	KindLinkFlap Kind = "link-flap"
	// KindGELoss runs a Gilbert–Elliott two-state loss chain during
	// [At, At+Duration): each step the chain moves good→bad with
	// probability PGoodBad and bad→good with probability PBadGood, and
	// every flow experiences non-congestion loss LossGood or LossBad
	// according to the current state. The chain starts in the good state
	// at At. Overlapping loss events compose as independent drops.
	KindGELoss Kind = "ge-loss"
	// KindRTTJitter adds a uniform ±Amplitude-second perturbation to the
	// RTT during [At, At+Duration); one draw per step, shared by all
	// links so composed path RTTs stay consistent.
	KindRTTJitter Kind = "rtt-jitter"
	// KindBaseRTTStep permanently adds Delta seconds to the RTT from At
	// on — a route change. Negative deltas are allowed; substrates floor
	// the resulting RTT at a small positive value.
	KindBaseRTTStep Kind = "base-rtt-step"
	// KindFlowArrive activates flow Flow at At. A flow whose first churn
	// event is an arrival starts the run inactive (it "arrives" mid-run).
	KindFlowArrive Kind = "flow-arrive"
	// KindFlowDepart deactivates flow Flow at At. Re-arrival after a
	// departure restarts the flow from its initial window.
	KindFlowDepart Kind = "flow-depart"
)

// FlapScale is the bandwidth multiplier of a flapped link: not exactly
// zero (the fluid model divides by bandwidth) but small enough that the
// link is effectively dead — loss saturates and the RTT hits the
// timeout cap.
const FlapScale = 1e-9

// maxScale bounds capacity multipliers so schedules cannot smuggle
// effectively-infinite capacity into a run.
const maxScale = 1e6

// maxRTTPerturb bounds each RTT perturbation magnitude (seconds) so that
// sums over many events stay finite: ~11.5 days dwarfs any simulated RTT.
const maxRTTPerturb = 1e6

// Event is one timed perturbation. Only the fields of its Kind are
// meaningful; Normalize rejects events whose used fields are missing,
// non-finite, or out of range. At and Duration are in substrate steps.
type Event struct {
	Kind     Kind `json:"kind"`
	At       int  `json:"at"`
	Duration int  `json:"duration,omitempty"`

	// Scale is the bandwidth multiplier of capacity-scale / capacity-ramp.
	Scale float64 `json:"scale,omitempty"`

	// Gilbert–Elliott parameters (ge-loss).
	PGoodBad float64 `json:"p_good_bad,omitempty"`
	PBadGood float64 `json:"p_bad_good,omitempty"`
	LossGood float64 `json:"loss_good,omitempty"`
	LossBad  float64 `json:"loss_bad,omitempty"`

	// Amplitude is rtt-jitter's half-range in seconds.
	Amplitude float64 `json:"amplitude,omitempty"`
	// Delta is base-rtt-step's permanent RTT shift in seconds.
	Delta float64 `json:"delta,omitempty"`

	// Link targets capacity and RTT events: a link index, or -1 for
	// every link. Single-link substrates only have link 0.
	Link int `json:"link,omitempty"`
	// Flow targets churn and loss events: a flow index, or -1 for every
	// flow (churn events must name one flow).
	Flow int `json:"flow,omitempty"`
}

// end returns the first step after the event's active window.
// Open-ended events (Duration <= 0) never end.
func (e Event) end() int {
	if e.Duration <= 0 {
		return math.MaxInt
	}
	// At + Duration can overflow for adversarial inputs; saturate.
	if e.At > math.MaxInt-e.Duration {
		return math.MaxInt
	}
	return e.At + e.Duration
}

// activeAt reports whether the event perturbs the given step.
func (e Event) activeAt(step int) bool { return step >= e.At && step < e.end() }

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func inUnit(vs ...float64) bool {
	for _, v := range vs {
		if !(v >= 0 && v <= 1) { // NaN fails too
			return false
		}
	}
	return true
}

// validate checks the fields Kind uses. It never panics: every reachable
// input maps to nil or an error.
func (e Event) validate(i int) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("chaos: event %d (%s): %s", i, e.Kind, fmt.Sprintf(format, args...))
	}
	if e.At < 0 {
		return fail("at must be non-negative, got %d", e.At)
	}
	if e.Link < -1 {
		return fail("link must be an index or -1 for all, got %d", e.Link)
	}
	if e.Flow < -1 {
		return fail("flow must be an index or -1 for all, got %d", e.Flow)
	}
	switch e.Kind {
	case KindCapacityScale:
		if !finite(e.Scale) || e.Scale <= 0 || e.Scale > maxScale {
			return fail("scale must be in (0, %g], got %v", float64(maxScale), e.Scale)
		}
	case KindCapacityRamp:
		if !finite(e.Scale) || e.Scale <= 0 || e.Scale > maxScale {
			return fail("scale must be in (0, %g], got %v", float64(maxScale), e.Scale)
		}
		if e.Duration <= 0 {
			return fail("ramp needs a positive duration, got %d", e.Duration)
		}
	case KindLinkFlap:
		// No parameters beyond the window.
	case KindGELoss:
		if !inUnit(e.PGoodBad, e.PBadGood) {
			return fail("transition probabilities must be in [0,1], got p_good_bad=%v p_bad_good=%v", e.PGoodBad, e.PBadGood)
		}
		if !inUnit(e.LossGood, e.LossBad) || e.LossGood >= 1 || e.LossBad >= 1 {
			return fail("loss rates must be in [0,1), got loss_good=%v loss_bad=%v", e.LossGood, e.LossBad)
		}
	case KindRTTJitter:
		if !finite(e.Amplitude) || e.Amplitude < 0 || e.Amplitude > maxRTTPerturb {
			return fail("amplitude must be in [0, %g] seconds, got %v", float64(maxRTTPerturb), e.Amplitude)
		}
	case KindBaseRTTStep:
		if !finite(e.Delta) || math.Abs(e.Delta) > maxRTTPerturb {
			return fail("delta must be in [-%g, %g] seconds, got %v", float64(maxRTTPerturb), float64(maxRTTPerturb), e.Delta)
		}
	case KindFlowArrive, KindFlowDepart:
		if e.Flow < 0 {
			return fail("churn events must name one flow, got %d", e.Flow)
		}
	default:
		return fail("unknown kind")
	}
	return nil
}

// Schedule is an ordered set of perturbation events. Build one directly
// or parse it from JSON; call Normalize (or let Compile do it) before
// use.
type Schedule struct {
	Events []Event `json:"events"`
}

// maxEvents bounds schedule size so adversarial inputs cannot make
// Compile allocate per-event state without limit.
const maxEvents = 1 << 16

// Normalize validates every event and sorts them by activation step
// (stable, so same-step events keep their authored order). Events given
// in arbitrary order, overlapping freely, normalize to a valid schedule;
// anything invalid returns an error. It never panics.
func (s *Schedule) Normalize() error {
	if s == nil {
		return fmt.Errorf("chaos: nil schedule")
	}
	if len(s.Events) > maxEvents {
		return fmt.Errorf("chaos: %d events exceed the %d-event limit", len(s.Events), maxEvents)
	}
	for i, e := range s.Events {
		if err := e.validate(i); err != nil {
			return err
		}
	}
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].At < s.Events[j].At })
	return nil
}

// Parse decodes and normalizes a JSON schedule. Unknown fields are
// rejected so typos in hand-written schedules fail loudly.
func Parse(data []byte) (*Schedule, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Schedule
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	if err := s.Normalize(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and parses a JSON schedule.
func Load(r io.Reader) (*Schedule, error) {
	data, err := io.ReadAll(io.LimitReader(r, 16<<20))
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	return Parse(data)
}

// LoadFile reads and parses the JSON schedule at path.
func LoadFile(path string) (*Schedule, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	defer f.Close()
	return Load(f)
}

// BurstyLoss returns the canonical bursty-correlated-loss schedule: one
// open-ended Gilbert–Elliott chain over every flow with the given
// transition probabilities, lossless good state and loss rate lossBad in
// the bad state. The long-run mean loss rate is
// lossBad · pGoodBad/(pGoodBad+pBadGood).
func BurstyLoss(pGoodBad, pBadGood, lossBad float64) *Schedule {
	return &Schedule{Events: []Event{{
		Kind:     KindGELoss,
		Flow:     -1,
		Link:     -1,
		PGoodBad: pGoodBad,
		PBadGood: pBadGood,
		LossBad:  lossBad,
	}}}
}

// FlappyLink returns the canonical flappy-link schedule: starting at
// step start, the link goes down for down steps at the beginning of
// every period-step cycle, across all links.
func FlappyLink(horizon, start, period, down int) *Schedule {
	s := &Schedule{}
	for at := start; at < horizon; at += period {
		s.Events = append(s.Events, Event{Kind: KindLinkFlap, At: at, Duration: down, Link: -1})
	}
	return s
}
