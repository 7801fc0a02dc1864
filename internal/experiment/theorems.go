package experiment

import (
	"context"
	"fmt"
	"math"
	"strings"
	"text/tabwriter"

	"repro/internal/axioms"
	"repro/internal/engine"
	"repro/internal/fluid"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// Claim1Evidence is the executable demonstration of Claim 1: the
// probe-until-loss protocol is loss-based and, from some point on, 0-loss
// and well-utilizing — yet its fast-utilization score is 0.
type Claim1Evidence struct {
	TailLoss   float64 // max loss over the tail (expected 0)
	Efficiency float64 // tail utilization (expected ≈ 0.5+)
	FastUtil   float64 // growth score over the post-freeze tail (expected 0)
	Holds      bool    // Claim 1's exclusion respected
}

// CheckClaim1 runs the probe on a finite link and scores its tail. The
// run streams through the engine: no trace is materialized — the tail
// observers retain exactly the half of the run the scores need.
func CheckClaim1(opt metrics.Options) (*Claim1Evidence, error) {
	defer obs.StartPhase("claim1")()
	if opt.Steps == 0 {
		opt.Steps = 3000
	}
	cfg := FluidLink(20, 20)
	senders, err := fluid.HomogeneousSenders(protocol.NewProbeUntilLoss(1), 1, []float64{1})
	if err != nil {
		return nil, err
	}
	sub := &engine.FluidSpec{Cfg: cfg, Senders: senders, Steps: opt.Steps}
	st := metrics.NewStream(sub.Meta(), 0.5)
	if _, err := engine.Run(context.Background(), engine.Spec{Substrate: sub, Observers: []engine.Observer{st}}); err != nil {
		return nil, err
	}
	sum := st.Summary()
	ev := &Claim1Evidence{
		TailLoss:   sum.LossAvoidance,
		Efficiency: sum.Efficiency,
		FastUtil:   metrics.FastUtilizationFromSeries(st.TailWindow(0)),
	}
	ev.Holds = axioms.Claim1Holds(true, ev.TailLoss, ev.FastUtil, 1e-9)
	return ev, nil
}

// Theorem1Check is one protocol's test of Theorem 1: measured convergence
// α and fast-utilization β > 0 must imply efficiency ≥ α/(2−α).
type Theorem1Check struct {
	Name        string
	Convergence float64
	FastUtil    float64
	Efficiency  float64
	Bound       float64 // α/(2−α)
	Holds       bool
}

// CheckTheorem1 sweeps a family of fast-utilizing protocols and verifies
// the implication. tol absorbs estimation noise (default 0.05).
func CheckTheorem1(opt metrics.Options, tol float64) ([]Theorem1Check, error) {
	defer obs.StartPhase("theorem1")()
	if tol == 0 {
		tol = 0.05
	}
	cfg := FluidLink(20, 20)
	protos := []protocol.Protocol{
		protocol.Reno(),
		protocol.NewAIMD(1, 0.7),
		protocol.NewAIMD(2, 0.5),
		protocol.NewAIMD(0.5, 0.8),
		protocol.NewRobustAIMD(1, 0.8, 0.01),
	}
	cellOpt := opt.SweepCell()
	return engine.Sweep(context.Background(), len(protos), engine.SweepConfig{Workers: opt.Workers},
		func(ctx context.Context, i int, _ uint64) (Theorem1Check, error) {
			p := protos[i]
			sums, err := metrics.StreamRuns(cfg, []protocol.Protocol{p}, cellOpt)
			if err != nil {
				return Theorem1Check{}, err
			}
			conv, eff := metrics.ConvergenceMetric.Worst(sums), metrics.EfficiencyMetric.Worst(sums)
			fast, err := metrics.FastUtilization(p, cellOpt)
			if err != nil {
				return Theorem1Check{}, err
			}
			bound := axioms.Theorem1Bound(math.Max(0, math.Min(1, conv)))
			c := Theorem1Check{
				Name:        p.Name(),
				Convergence: conv,
				FastUtil:    fast,
				Efficiency:  eff,
				Bound:       bound,
			}
			c.Holds = fast <= 0 || eff >= bound-tol
			return c, nil
		})
}

// Theorem2Check tests the bound and its tightness for one AIMD(a, b): the
// measured TCP-friendliness must not exceed — and, since AIMD attains the
// bound, should roughly equal — 3(1−b)/(a(1+b)).
type Theorem2Check struct {
	A, B      float64
	Bound     float64
	Measured  float64
	Tightness float64 // Measured / Bound, expected ≈ 1
	Holds     bool    // Measured ≤ Bound (within tolerance)
}

// CheckTheorem2 sweeps AIMD parameters on a (nearly) bufferless link where
// AIMD(a, b) is exactly b-efficient, the regime in which the bound is
// stated to be tight.
func CheckTheorem2(pairs [][2]float64, opt metrics.Options, tol float64) ([]Theorem2Check, error) {
	defer obs.StartPhase("theorem2")()
	if tol == 0 {
		tol = 0.15
	}
	if len(pairs) == 0 {
		pairs = [][2]float64{{1, 0.5}, {1, 0.7}, {2, 0.5}, {0.5, 0.5}, {1, 0.8}}
	}
	cfg := FluidLink(20, 0)
	cellOpt := opt.SweepCell()
	return engine.Sweep(context.Background(), len(pairs), engine.SweepConfig{Workers: opt.Workers},
		func(ctx context.Context, i int, _ uint64) (Theorem2Check, error) {
			a, b := pairs[i][0], pairs[i][1]
			measured, err := metrics.TCPFriendliness(cfg, protocol.NewAIMD(a, b), 1, 1, cellOpt)
			if err != nil {
				return Theorem2Check{}, err
			}
			bound := axioms.Theorem2Bound(a, b)
			return Theorem2Check{
				A: a, B: b,
				Bound:     bound,
				Measured:  measured,
				Tightness: measured / bound,
				Holds:     measured <= bound*(1+tol),
			}, nil
		})
}

// Theorem3Check tests Theorem 3 for Robust-AIMD(1, 0.8, ε). The metric's
// friendliness score is an infimum over ALL initial configurations and
// network parameters, so a sampled measurement can sit above the theorem's
// ceiling without refuting it; what a simulation CAN verify is the
// theorem's substance — that ε-robustness costs TCP-friendliness:
//
//  1. consistency: the measurement never falls below the ceiling by more
//     than estimation noise (the ceiling really is a lower envelope), and
//  2. the robustness penalty: the measurement lands far below the
//     non-robust ceiling of Theorem 2 for the same (a, b).
//
// Monotonicity in ε (larger tolerance ⇒ no friendlier) is asserted across
// a CheckTheorem3 sweep. The link is provisioned so that per-event
// overshoot loss (≈ 2/(C+τ)) stays below every ε tested — otherwise the
// tolerance never engages and Robust-AIMD degenerates to AIMD(a, b).
type Theorem3Check struct {
	Eps              float64
	Bound            float64 // Theorem 3's ceiling
	NonRobustCeiling float64 // Theorem 2's ceiling at the same (a, b)
	Measured         float64
	Holds            bool // Bound ≤ Measured ≪ NonRobustCeiling
}

// CheckTheorem3 sweeps the paper's ε values (0.005, 0.007, 0.01 by
// default).
func CheckTheorem3(epsilons []float64, opt metrics.Options, tol float64) ([]Theorem3Check, error) {
	defer obs.StartPhase("theorem3")()
	if tol == 0 {
		tol = 0.02
	}
	if len(epsilons) == 0 {
		epsilons = []float64{0.005, 0.007, 0.01}
	}
	// One run per ε from windows {1, 1}, over the default tail; opt's
	// chaos schedule and tail fraction do not apply.
	runOpt := metrics.Options{Steps: opt.Steps, InitConfigs: [][]float64{{1, 1}}, Workers: opt.Workers, Session: opt.Session}
	// C+τ = 700 MSS keeps overshoot loss ≈ 2/702 below ε = 0.005.
	cfg := FluidLink(100, 350)
	lp := LinkParams(cfg, 2)
	return engine.Sweep(context.Background(), len(epsilons), engine.SweepConfig{Workers: opt.Workers},
		func(ctx context.Context, i int, _ uint64) (Theorem3Check, error) {
			eps := epsilons[i]
			ra := protocol.NewRobustAIMD(1, 0.8, eps)
			sums, err := metrics.StreamRuns(cfg, []protocol.Protocol{ra, protocol.Reno()}, runOpt)
			if err != nil {
				return Theorem3Check{}, err
			}
			avg := sums[0].AvgWindows
			measured := avg[1] / avg[0]
			bound := axioms.Theorem3Bound(1, 0.8, eps, lp.C, lp.Tau)
			ceiling := axioms.Theorem2Bound(1, 0.8)
			return Theorem3Check{
				Eps:              eps,
				Bound:            bound,
				NonRobustCeiling: ceiling,
				Measured:         measured,
				Holds:            measured >= bound-tol && measured < ceiling/2,
			}, nil
		})
}

// MoreAggressive empirically tests the §4 relation "P is more aggressive
// than Q": for every initial configuration tried, every P-sender's average
// tail goodput exceeds every Q-sender's.
func MoreAggressive(cfg fluid.Config, p, q protocol.Protocol, opt metrics.Options) (bool, error) {
	inits := opt.InitConfigs
	if len(inits) == 0 {
		inits = metrics.DefaultInitConfigs(cfg, 2)
	}
	// The runs use the default tail; opt's chaos schedule and tail
	// fraction do not apply.
	sums, err := metrics.StreamRuns(cfg, []protocol.Protocol{p, q},
		metrics.Options{Steps: opt.Steps, InitConfigs: inits, Workers: opt.Workers, Session: opt.Session})
	if err != nil {
		return false, err
	}
	for _, s := range sums {
		if g := s.AvgGoodputs; !(g[0] > g[1]) {
			return false, nil
		}
	}
	return true, nil
}

// Theorem4Check tests the friendliness-transfer result for one (P, Q)
// pair: with P α-TCP-friendly and Q more aggressive than Reno, P must be
// (at least) α-friendly to Q.
type Theorem4Check struct {
	P, Q            string
	QMoreAggressive bool    // precondition (3)
	FriendlyToReno  float64 // α
	FriendlyToQ     float64
	Holds           bool // FriendlyToQ ≥ α (within tolerance), given preconditions
}

// CheckTheorem4 exercises the default pairs: TCP-friendly AIMD/BIN
// protocols P against MIMD/AIMD protocols Q that are more aggressive than
// Reno.
func CheckTheorem4(opt metrics.Options, tol float64) ([]Theorem4Check, error) {
	defer obs.StartPhase("theorem4")()
	if tol == 0 {
		tol = 0.1
	}
	cfg := FluidLink(20, 20)
	ps := []protocol.Protocol{
		protocol.NewAIMD(1, 0.7),
		protocol.NewAIMD(0.5, 0.5),
	}
	qs := []protocol.Protocol{
		protocol.Scalable(),
		protocol.NewAIMD(2, 0.5),
	}
	cellOpt := opt.SweepCell()
	sweep := engine.SweepConfig{Workers: opt.Workers}
	// Per-P and per-Q quantities are shared across the grid; sweep each axis
	// once, then the flattened P×Q pairs.
	alphas, err := engine.Sweep(context.Background(), len(ps), sweep,
		func(ctx context.Context, i int, _ uint64) (float64, error) {
			return metrics.TCPFriendliness(cfg, ps[i], 1, 1, cellOpt)
		})
	if err != nil {
		return nil, err
	}
	aggs, err := engine.Sweep(context.Background(), len(qs), sweep,
		func(ctx context.Context, i int, _ uint64) (bool, error) {
			return MoreAggressive(cfg, qs[i], protocol.Reno(), cellOpt)
		})
	if err != nil {
		return nil, err
	}
	return engine.Sweep(context.Background(), len(ps)*len(qs), sweep,
		func(ctx context.Context, i int, _ uint64) (Theorem4Check, error) {
			p, q := ps[i/len(qs)], qs[i%len(qs)]
			alpha, agg := alphas[i/len(qs)], aggs[i%len(qs)]
			fq, err := metrics.Friendliness(cfg, p, q, 1, 1, cellOpt)
			if err != nil {
				return Theorem4Check{}, err
			}
			c := Theorem4Check{
				P:               p.Name(),
				Q:               q.Name(),
				QMoreAggressive: agg,
				FriendlyToReno:  alpha,
				FriendlyToQ:     fq,
			}
			// The theorem asserts nothing if Q is not more aggressive.
			c.Holds = !agg || fq >= alpha*(1-tol)
			return c, nil
		})
}

// Theorem5Check demonstrates that an efficient loss-based protocol starves
// any latency-avoiding protocol.
type Theorem5Check struct {
	LossBased      string
	LatencyAvoider string
	LossBasedEff   float64 // α > 0 precondition
	AvoiderLatency float64 // the avoider alone keeps RTT near 2Θ
	Friendliness   float64 // loss-based → avoider, expected ≈ 0
	Holds          bool
}

// CheckTheorem5 runs Reno (and Scalable) against the Vegas-style avoider
// on a generously provisioned link.
func CheckTheorem5(opt metrics.Options, starveThreshold float64) ([]Theorem5Check, error) {
	defer obs.StartPhase("theorem5")()
	if starveThreshold == 0 {
		starveThreshold = 0.1
	}
	cfg := FluidLink(100, 200)
	vegas := protocol.DefaultVegas()
	cellOpt := opt.SweepCell()
	avLat, err := metrics.LatencyAvoidance(cfg, vegas, 1, cellOpt)
	if err != nil {
		return nil, err
	}
	lossBased := []protocol.Protocol{protocol.Reno(), protocol.Scalable()}
	return engine.Sweep(context.Background(), len(lossBased), engine.SweepConfig{Workers: opt.Workers},
		func(ctx context.Context, i int, _ uint64) (Theorem5Check, error) {
			p := lossBased[i]
			eff, err := metrics.Efficiency(cfg, p, 1, cellOpt)
			if err != nil {
				return Theorem5Check{}, err
			}
			fr, err := metrics.Friendliness(cfg, p, vegas, 1, 1, cellOpt)
			if err != nil {
				return Theorem5Check{}, err
			}
			return Theorem5Check{
				LossBased:      p.Name(),
				LatencyAvoider: vegas.Name(),
				LossBasedEff:   eff,
				AvoiderLatency: avLat,
				Friendliness:   fr,
				Holds:          eff > 0 && fr < starveThreshold,
			}, nil
		})
}

// RenderChecks formats any of the theorem check slices generically.
func RenderChecks[T any](title string, checks []T, line func(T) string) string {
	var sb strings.Builder
	sb.WriteString(title)
	sb.WriteString("\n")
	w := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	for _, c := range checks {
		fmt.Fprintln(w, line(c))
	}
	w.Flush()
	return sb.String()
}
