// Package fluid implements the discrete-time fluid-flow model of Section 2
// of "An Axiomatic Approach to Congestion Control": n senders share a
// single bottleneck link with FIFO (droptail) queuing; time advances in
// synchronized RTT-sized steps; at each step every sender's protocol maps
// its observed window/RTT/loss history to its next congestion window.
//
// The model's quantities follow the paper exactly:
//
//   - B   link bandwidth in MSS/s
//   - Θ   propagation delay in seconds; C = B·2Θ is the link "capacity"
//   - τ   buffer size in MSS
//   - RTT(t) = max(2Θ, (X−C)/B + 2Θ)  if X(t) < C+τ,  Δ otherwise   (eq. 1)
//   - L(t)  = 1 − (C+τ)/X(t)          if X(t) > C+τ,  0 otherwise
//
// where X(t) = Σᵢ xᵢ(t). B, Θ and τ are never revealed to the senders.
//
// Non-congestion loss (Metric VI) is modeled by a LossProcess layered on
// top of the congestion loss; infinite-capacity links for the robustness
// scenario set Infinite in the Config.
package fluid

import (
	"fmt"
	"math"

	"repro/internal/protocol"
)

// MSSBytes is the segment size used when converting real-world bandwidths
// into the model's MSS/s unit.
const MSSBytes = 1500

// MbpsToMSSps converts a bandwidth in megabits per second into MSS/s
// assuming 1500-byte segments.
func MbpsToMSSps(mbps float64) float64 {
	return mbps * 1e6 / 8 / MSSBytes
}

// Config describes a bottleneck link. The zero value is not valid; fill in
// Bandwidth, PropDelay and Buffer (or set Infinite) and leave the rest to
// defaults.
type Config struct {
	Bandwidth float64 // B, MSS/s (> 0 unless Infinite)
	PropDelay float64 // Θ, seconds (> 0)
	Buffer    float64 // τ, MSS (≥ 0)

	// MaxWindow is M, the largest window a sender may select. It defaults
	// to 1e9 MSS, effectively unconstrained, matching the paper's 1 << M.
	MaxWindow float64

	// TimeoutRTT is Δ, the timeout-triggered RTT cap applied on steps with
	// packet loss (eq. 1's "otherwise" branch). It defaults to twice the
	// full-queue RTT, 2·(2Θ + τ/B).
	TimeoutRTT float64

	// Infinite removes the capacity constraint entirely: no congestion
	// loss ever occurs and RTT is pinned at 2Θ. This is the Metric VI
	// (robustness) scenario: "a single sender sends on a link of infinite
	// capacity so as to remove from consideration congestion-based loss".
	Infinite bool

	// Loss is an optional non-congestion loss process (nil means none).
	Loss LossProcess

	// BandwidthSchedule, when non-nil, overrides Bandwidth per time step,
	// modeling links whose capacity varies (handover, cross traffic,
	// cellular fades) — a §6 "more realistic network model" extension.
	// The returned value must stay positive; Bandwidth remains the
	// nominal value used for Capacity() and trace normalization.
	BandwidthSchedule func(step int) float64

	// Perturb, when non-nil, applies a deterministic fault-injection
	// schedule (capacity shocks, link flaps, bursty loss, RTT jitter,
	// flow churn) each step — typically a compiled chaos.Schedule. The
	// nil path is bit-identical to the unperturbed model.
	Perturb Perturber

	// Seed seeds any randomized LossProcess; runs are deterministic for a
	// fixed seed.
	Seed uint64
}

// Capacity returns C = B·2Θ, or +Inf for an infinite link.
func (c Config) Capacity() float64 {
	if c.Infinite {
		return math.Inf(1)
	}
	return c.Bandwidth * 2 * c.PropDelay
}

// BaseRTT returns 2Θ, the minimum possible RTT.
func (c Config) BaseRTT() float64 { return 2 * c.PropDelay }

func (c Config) withDefaults() Config {
	if c.MaxWindow == 0 {
		c.MaxWindow = 1e9
	}
	if c.TimeoutRTT == 0 {
		full := c.BaseRTT()
		if !c.Infinite && c.Bandwidth > 0 {
			full += c.Buffer / c.Bandwidth
		}
		c.TimeoutRTT = 2 * full
	}
	return c
}

// Validate rejects a config the model cannot run. The comparisons are
// written so that NaN fails them.
func (c Config) Validate() error {
	if !(c.PropDelay > 0) || math.IsInf(c.PropDelay, 1) {
		return fmt.Errorf("fluid: propagation delay must be positive and finite, got %v", c.PropDelay)
	}
	if !c.Infinite && (!(c.Bandwidth > 0) || math.IsInf(c.Bandwidth, 1)) {
		return fmt.Errorf("fluid: bandwidth must be positive and finite, got %v", c.Bandwidth)
	}
	if !(c.Buffer >= 0) {
		return fmt.Errorf("fluid: buffer must be non-negative, got %v", c.Buffer)
	}
	return nil
}

// Sender pairs a protocol instance with its initial congestion window.
// Axioms quantify over "any initial configuration of senders' window
// sizes"; estimators exercise several initial vectors through this field.
type Sender struct {
	Proto protocol.Protocol
	Init  float64 // initial window in MSS; clamped to [MinWindow, M]; not NaN

	// Period and Phase desynchronize feedback (§6's "unsynchronized
	// network feedback" extension): the sender applies its protocol
	// update only on steps t with t ≡ Phase (mod Period), holding its
	// window in between. While waiting it still *observes* the link —
	// the update sees the epoch's aggregated loss (1 − Π(1−L_t)) and
	// mean RTT, as a real sender reacting once per epoch would. Period
	// 0 or 1 restores the paper's fully synchronized dynamics.
	Period int
	Phase  int
}

// Link is a single bottleneck shared by a fixed set of senders: a
// one-cell Batch. Create with New, advance with Step or Run.
type Link struct {
	b *Batch
}

// New returns a link with the given configuration and senders. It returns
// an error for invalid configurations or senders (see Batchable) or an
// empty sender set.
func New(cfg Config, senders ...Sender) (*Link, error) {
	if err := Batchable(cfg, senders); err != nil {
		return nil, err
	}
	return &Link{b: newBatch([]BatchCell{{Cfg: cfg, Senders: senders}})}, nil
}

// Err returns the first divergence detected so far (nil if none). Once a
// run diverges its windows are meaningless; callers driving the link
// step-by-step should stop and propagate the error.
func (l *Link) Err() error { return l.b.Err(0) }

// MustNew is New that panics on error, for tests and examples.
func MustNew(cfg Config, senders ...Sender) *Link {
	l, err := New(cfg, senders...)
	if err != nil {
		panic(err)
	}
	return l
}

// Windows returns a copy of the current window vector.
func (l *Link) Windows() []float64 {
	return append([]float64(nil), l.b.win...)
}

// StepResult reports what happened during one time step.
//
// Windows and Loss are BORROWED: they alias per-link buffers that the
// next Step call overwrites, keeping the hot loop allocation-free.
// Callers that retain them across steps must copy (the engine's
// observers already do, or consume them in place).
type StepResult struct {
	Step     int       // the step index that was just executed
	Windows  []float64 // windows during the step (before updates); borrowed
	RTT      float64   // RTT(t) per eq. 1, in seconds
	CongLoss float64   // congestion loss rate L(t)
	Loss     []float64 // per-sender total loss (congestion ⊕ random); borrowed
}

// congestionAt returns (RTT, loss) for aggregate window x at step per the
// paper's model, honoring a bandwidth schedule and a perturber's capacity
// scale when present. cfg must already have defaults applied.
func congestionAt(cfg *Config, step int, x float64) (rtt, loss float64) {
	// 2Θ inline rather than cfg.BaseRTT(): the value receiver would copy
	// the whole Config on every call of this per-cell-step hot path.
	base := 2 * cfg.PropDelay
	if cfg.Infinite {
		return base, 0
	}
	b := cfg.Bandwidth
	if cfg.BandwidthSchedule != nil {
		if v := cfg.BandwidthSchedule(step); v > 0 {
			b = v
		}
	}
	if cfg.Perturb != nil {
		b *= cfg.Perturb.CapacityScale(step, 0)
	}
	c := b * 2 * cfg.PropDelay
	tau := cfg.Buffer
	if x < c+tau {
		// eq. 1's queueing branch; loss needs X > C+τ, so none here.
		rtt = max(base, (x-c)/b+base)
		if cfg.Perturb != nil && rtt > cfg.TimeoutRTT {
			// A flapped link's queueing delay explodes as 1/b; the
			// timeout cap is the model's "sender gave up" bound.
			rtt = cfg.TimeoutRTT
		}
		return rtt, 0
	}
	// X ≥ C+τ: timeout-capped RTT; loss only for strict overflow.
	if x > c+tau {
		loss = 1 - (c+tau)/x
	}
	return cfg.TimeoutRTT, loss
}

// Step advances the model one time step: it computes RTT(t) and L(t) from
// the current windows, lets every protocol observe its feedback, and
// installs the clamped next windows.
func (l *Link) Step() StepResult {
	step := l.b.step
	l.b.Step()
	c := &l.b.cells[0]
	return StepResult{Step: step, Windows: l.b.cur, RTT: c.rtt, CongLoss: c.congLoss, Loss: l.b.loss}
}

// HomogeneousSenders builds n clones of proto with init (cycled; default
// protocol.MinWindow) as initial windows: the senders of the
// all-senders-run-P axioms.
func HomogeneousSenders(proto protocol.Protocol, n int, init []float64) ([]Sender, error) {
	if n <= 0 {
		return nil, fmt.Errorf("fluid: need at least one sender, got %d", n)
	}
	protos := make([]protocol.Protocol, n)
	for i := range protos {
		protos[i] = proto
	}
	return MixedSenders(protos, init), nil
}

// MixedSenders builds one clone per protocol in protos, with the
// matching entry of init (cycled; default protocol.MinWindow) as initial
// window: the senders of the friendliness axioms.
func MixedSenders(protos []protocol.Protocol, init []float64) []Sender {
	senders := make([]Sender, len(protos))
	for i, p := range protos {
		w := protocol.MinWindow
		if len(init) > 0 {
			w = init[i%len(init)]
		}
		senders[i] = Sender{Proto: p.Clone(), Init: w}
	}
	return senders
}
