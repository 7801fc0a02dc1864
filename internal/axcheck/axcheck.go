// Package axcheck is the falsification harness for the axioms: given a
// protocol and a claimed score ("P is α-efficient", "P is α-fair", …), it
// searches the quantified-over space — initial window configurations and,
// optionally, link parameters — for a counterexample run that violates the
// claim, and reports the witness when one is found.
//
// The §3 axioms are universally quantified ("for ANY initial configuration
// of senders' window sizes", and the angle-bracket bounds of Table 1 hold
// "across all choices of network parameters"). The estimators in
// internal/metrics realize those quantifiers by sampling a small fixed set
// of configurations; axcheck complements them with adversarial search:
// structured corner cases (floor starts, capacity hogs, near-overflow
// totals) plus seeded random exploration. A claim that survives axcheck is
// not proven — but a claim axcheck kills comes with a concrete,
// reproducible counterexample, which is how the axiomatic method is meant
// to be used experimentally.
package axcheck

import (
	"fmt"
	"math"

	"repro/internal/fluid"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/rand64"
)

// Claim names a scored axiom to falsify.
type Claim int

// The checkable claims. Each corresponds to one §3 metric whose
// quantifier ranges over initial configurations.
const (
	// Efficient claims "from some T on, X(t) ≥ α·C" (Metric I).
	Efficient Claim = iota
	// LossAvoiding claims "from some T on, L(t) ≤ α" (Metric III).
	LossAvoiding
	// Fair claims "every sender's tail average ≥ α × any other's"
	// (Metric IV).
	Fair
	// Convergent claims the tail stays within [αx*, (2−α)x*] (Metric V).
	Convergent
	// FriendlyToReno claims Reno keeps ≥ α of the protocol's tail share
	// (Metric VII).
	FriendlyToReno
)

// claims gives each Claim, by index, its name and the metric whose score
// and sign the search folds.
var claims = [...]struct {
	name   string
	metric metrics.Metric
}{
	Efficient:      {"efficient", metrics.EfficiencyMetric},
	LossAvoiding:   {"loss-avoiding", metrics.LossAvoidanceMetric},
	Fair:           {"fair", metrics.FairnessMetric},
	Convergent:     {"convergent", metrics.ConvergenceMetric},
	FriendlyToReno: {"friendly-to-reno", metrics.FriendlinessMetric([]int{0}, []int{1})},
}

func (c Claim) known() bool { return c >= 0 && int(c) < len(claims) }

// String implements fmt.Stringer.
func (c Claim) String() string {
	if c.known() {
		return claims[c].name
	}
	return fmt.Sprintf("claim(%d)", int(c))
}

// DefaultSlack is the violation tolerance the axcheck command searches
// with unless -slack says otherwise.
const DefaultSlack = 0.02

// Options bounds the search.
type Options struct {
	// Steps is the horizon per candidate run (default 3000).
	Steps int
	// TailFrac is the "from T onwards" window (0 selects
	// metrics.DefaultTailFrac).
	TailFrac float64
	// RandomTrials is the number of random initial configurations tried
	// after the structured corners (default 24).
	RandomTrials int
	// Seed drives the random exploration.
	Seed uint64
	// Slack is the tolerance subtracted before declaring a violation:
	// measured < claimed − Slack counts as a counterexample. For
	// LossAvoiding the comparison is inverted. Zero means no tolerance;
	// pass DefaultSlack for the command's default.
	Slack float64
}

func (o Options) withDefaults() Options {
	if o.Steps == 0 {
		o.Steps = 3000
	}
	if o.RandomTrials == 0 {
		o.RandomTrials = 24
	}
	return o
}

// Counterexample is a falsifying witness.
type Counterexample struct {
	Claim   Claim
	Claimed float64 // the score that was claimed
	// Measured is the violating measurement (below Claimed−Slack, or
	// above it for LossAvoiding).
	Measured float64
	// Init is the initial window configuration that produced it.
	Init []float64
}

// String renders the witness.
func (c Counterexample) String() string {
	return fmt.Sprintf("%s: claimed %.4g, measured %.4g at init %v",
		c.Claim, c.Claimed, c.Measured, c.Init)
}

// Result is the outcome of a search.
type Result struct {
	// Violated reports whether a counterexample was found.
	Violated bool
	// Witness is valid when Violated is true.
	Witness Counterexample
	// Worst is the most adversarial measurement observed, whether or not
	// it violated the claim (for LossAvoiding it is the largest loss).
	Worst float64
	// WorstInit is the configuration achieving Worst.
	WorstInit []float64
	// Trials is the number of configurations evaluated.
	Trials int
}

// Check searches for a violation of "p is α-<claim>" with n senders on
// cfg. For FriendlyToReno the population is one p-sender and one Reno
// sender regardless of n. Every candidate start is one streamed run of
// metrics.StreamRuns, resolved through a fresh metrics.Session (and so
// through the default run store, when one is installed); a run that
// diverges fails the search with the engine's error.
func Check(cfg fluid.Config, p protocol.Protocol, claim Claim, alpha float64, n int, opt Options) (Result, error) {
	if err := validate(cfg, claim, alpha, n, opt); err != nil {
		return Result{}, err
	}
	protos := make([]protocol.Protocol, n)
	for i := range protos {
		protos[i] = p
	}
	if claim == FriendlyToReno {
		protos = []protocol.Protocol{p, protocol.Reno()}
	}
	o := opt.withDefaults()
	configs := candidateInits(cfg, len(protos), o)
	sums, err := metrics.StreamRuns(cfg, protos, metrics.Options{
		Steps:       o.Steps,
		TailFrac:    o.TailFrac,
		InitConfigs: configs,
		Session:     metrics.NewSession(),
	})
	if err != nil {
		return Result{}, err
	}

	m := claims[claim].metric
	sign := m.Sign()
	res := Result{Worst: math.Inf(int(sign)), Trials: len(configs)}
	for i, init := range configs {
		measured := m.Score(sums[i])
		if sign*measured < sign*res.Worst {
			res.Worst = measured
			res.WorstInit = append([]float64(nil), init...)
		}
		if sign*measured < sign*alpha-o.Slack && !res.Violated {
			res.Violated = true
			res.Witness = Counterexample{
				Claim:    claim,
				Claimed:  alpha,
				Measured: measured,
				Init:     append([]float64(nil), init...),
			}
		}
	}
	return res, nil
}

// validate rejects, before anything is simulated, a search no run can
// answer (an invalid link would fail every candidate run) or whose
// verdict would be meaningless (a NaN claim or slack never compares as
// violated). The comparisons are written so that NaN fails them.
func validate(cfg fluid.Config, claim Claim, alpha float64, n int, o Options) error {
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("axcheck: %w", err)
	}
	switch {
	case !claim.known():
		return fmt.Errorf("axcheck: unknown claim %v", claim)
	case n < 1:
		return fmt.Errorf("axcheck: need at least one sender, got %d", n)
	case claim == Fair && n < 2:
		return fmt.Errorf("axcheck: fairness needs ≥ 2 senders")
	case math.IsNaN(alpha):
		return fmt.Errorf("axcheck: claimed score is NaN")
	case !(o.Slack >= 0):
		return fmt.Errorf("axcheck: slack must be non-negative, got %v", o.Slack)
	case o.Steps < 0 || o.RandomTrials < 0:
		return fmt.Errorf("axcheck: steps and random trials must be non-negative, got %d and %d", o.Steps, o.RandomTrials)
	case !(o.TailFrac >= 0 && o.TailFrac < 1):
		return fmt.Errorf("axcheck: tail fraction must be in [0, 1), got %v", o.TailFrac)
	}
	return nil
}

// candidateInits builds the adversarial corner configurations followed by
// seeded random ones. Corners: all at the floor; all at the fair share;
// all exactly at overflow; one hog holding C (rotated through positions);
// geometric ladders.
func candidateInits(cfg fluid.Config, n int, o Options) [][]float64 {
	c := cfg.Capacity()
	if math.IsInf(c, 1) || c <= 0 {
		c = 1000
	}
	tau := cfg.Buffer
	var out [][]float64

	uniform := func(v float64) []float64 {
		row := make([]float64, n)
		for i := range row {
			row[i] = math.Max(v, protocol.MinWindow)
		}
		return row
	}
	out = append(out,
		uniform(protocol.MinWindow),
		uniform(c/float64(n)),
		uniform((c+tau)/float64(n)),     // exactly at the loss boundary
		uniform(1.5*(c+tau)/float64(n)), // deep overload
	)
	// One hog per position.
	for hog := 0; hog < n; hog++ {
		row := uniform(protocol.MinWindow)
		row[hog] = c
		out = append(out, row)
	}
	// Geometric ladder (1, 2, 4, ...) scaled to the capacity.
	ladder := make([]float64, n)
	v := protocol.MinWindow
	for i := range ladder {
		ladder[i] = v
		v = math.Min(v*2, c)
	}
	out = append(out, ladder)

	rng := rand64.New(o.Seed)
	for t := 0; t < o.RandomTrials; t++ {
		row := make([]float64, n)
		for i := range row {
			row[i] = rng.Range(protocol.MinWindow, 1.2*(c+tau))
		}
		out = append(out, row)
	}
	return out
}
