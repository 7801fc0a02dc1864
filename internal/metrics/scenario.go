package metrics

import (
	"context"
	"fmt"
	"math"

	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/fluid"
	"repro/internal/protocol"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Options controls how the scenario-level estimators realize the axioms'
// quantifiers. The zero value selects sensible defaults.
type Options struct {
	// Steps is the simulation horizon in RTT-sized steps (default 4000).
	Steps int
	// TailFrac is the fraction of the run treated as "from T onwards"
	// (default DefaultTailFrac).
	TailFrac float64
	// InitConfigs are the initial window vectors over which worst cases
	// are taken, on one link and on a topology alike. Vectors shorter than
	// the sender count are cycled. When empty, DefaultInitConfigs supplies
	// them from the link capacity (on a topology, the largest link's).
	InitConfigs [][]float64
	// Workers caps the concurrency of the per-init-config runs
	// (0 = GOMAXPROCS, 1 = serial). Results are identical at any worker
	// count: cells are deterministic and collected in input order.
	Workers int
	// Chaos, when non-nil, applies the fault-injection schedule to every
	// run an estimator performs, so axiom scores can be measured under
	// capacity shocks, bursty loss, RTT jitter, or flow churn. Nil leaves
	// every run bit-identical to the unperturbed estimator.
	Chaos *chaos.Schedule
	// ChaosSeed seeds the schedule's randomized components.
	ChaosSeed uint64
	// Session, when non-nil, deduplicates simulation runs across estimator
	// calls: runs whose complete inputs fingerprint identically are
	// simulated once and shared (see Session). The Characterize family
	// installs a private Session when none is set (see WithSession);
	// sweeps pass one Session through every cell so cross-cell baselines
	// (e.g. the Reno friendliness comparator) also run once. Cached
	// results are bit-identical to fresh runs.
	Session *Session
	// NoCache disables the automatic Session of WithSession,
	// re-simulating every run. Scores are bit-identical either way; the
	// knob exists for benchmarks and golden tests.
	NoCache bool
}

// DefaultPropDelay is the one-way propagation delay Θ (21 ms, i.e. a
// 42 ms RTT) of the synthetic infinite-capacity links that FastUtilization
// and Robustness build for their metric-specific scenarios (the
// finite-link metrics take Θ from cfg). 42 ms is the RTT of the
// paper's reference dumbbell (HotNets-XVI §2 evaluates on a 20 Mbps,
// 42 ms-RTT link), so the single-sender fast-utilization and robustness
// probes see the same feedback delay as the finite-link experiments.
const DefaultPropDelay = 0.021

// WithSession returns o with a private Session installed, unless o
// already carries one or sets NoCache: the policy of every scorer that
// resolves its runs through a Session of its own by default.
func (o Options) WithSession() Options {
	if o.Session == nil && !o.NoCache {
		o.Session = NewSession()
	}
	return o
}

// SweepCell returns o prepared for use inside a sweep cell: Workers is 1,
// so parallelism lives at the grid level and cells don't oversubscribe,
// and (see WithSession) one Session is installed that every cell shares,
// so runs that recur across cells simulate once. Call it once per sweep,
// before the cell closures are built.
func (o Options) SweepCell() Options {
	o.Workers = 1
	return o.WithSession()
}

func (o Options) withDefaults() Options {
	if o.Steps == 0 {
		o.Steps = 4000
	}
	if o.TailFrac == 0 {
		o.TailFrac = DefaultTailFrac
	}
	return o
}

// DefaultInitConfigs returns the initial-window vectors the estimators
// exercise when none are supplied: everyone at the floor, everyone at the
// fair share, and a maximally skewed start in which one sender holds the
// whole capacity. The skewed start is what distinguishes protocols that
// *converge* to fairness from protocols that merely *preserve* an equal
// start (MIMD preserves ratios, so it only looks fair from equal starts).
func DefaultInitConfigs(cfg fluid.Config, n int) [][]float64 {
	return defaultInits(cfg.Capacity(), n)
}

// defaultInits builds the DefaultInitConfigs starts for n senders sharing
// capacity c; an infinite link stands in as 1000 MSS.
func defaultInits(c float64, n int) [][]float64 {
	if math.IsInf(c, 1) {
		c = 1000
	}
	fair := math.Max(c/float64(n), protocol.MinWindow)
	skew := allOf(n, protocol.MinWindow)
	skew[0] = c
	return [][]float64{
		allOf(n, protocol.MinWindow),
		allOf(n, fair),
		skew,
	}
}

func allOf(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// initConfigs returns o.InitConfigs, or else the default starts for n
// senders sharing capacity c.
func (o Options) initConfigs(c float64, n int) [][]float64 {
	if len(o.InitConfigs) > 0 {
		return o.InitConfigs
	}
	return defaultInits(c, n)
}

// worstCase is the axioms' "for every initial configuration" quantifier,
// the one place every estimator on every substrate takes its worst case:
// it scores each run and keeps the worst score, oriented by sign (see
// Metric.Sign; negation is exact, so this is v < worst or v > worst bit
// for bit). NaN scores (the metric is undefined on that run) are skipped;
// with no defined score the result is NaN.
func worstCase[R any](runs []R, sign float64, score func(R) float64) float64 {
	worst := math.NaN()
	for _, r := range runs {
		v := score(r)
		if math.IsNaN(v) {
			continue
		}
		if math.IsNaN(worst) || sign*v < sign*worst {
			worst = v
		}
	}
	return worst
}

// Metric is a tail-window axiom score of one streamed run with the
// orientation its worst case folds in, written once for the estimators
// below and for every scorer that folds runs it resolved itself.
type Metric struct {
	sign  float64
	score func(*StreamSummary) float64
}

// Score is the metric's value on one run's summary.
func (m Metric) Score(s *StreamSummary) float64 { return m.score(s) }

// Sign is the metric's orientation: +1 when a higher score is better, -1
// when a lower one is, so sign·a < sign·b reads "a is worse than b".
func (m Metric) Sign() float64 { return m.sign }

// Worst is the metric's worst case over the runs' summaries (see
// worstCase): the axioms' "for every initial configuration".
func (m Metric) Worst(sums []*StreamSummary) float64 { return worstCase(sums, m.sign, m.score) }

// The homogeneous tail-window metrics, I, III, IV, V and VIII.
var (
	EfficiencyMetric       = Metric{1, func(s *StreamSummary) float64 { return s.Efficiency }}
	LossAvoidanceMetric    = Metric{-1, func(s *StreamSummary) float64 { return s.LossAvoidance }}
	FairnessMetric         = Metric{1, (*StreamSummary).Fairness}
	ConvergenceMetric      = Metric{1, func(s *StreamSummary) float64 { return s.Convergence }}
	LatencyAvoidanceMetric = Metric{-1, func(s *StreamSummary) float64 { return s.LatencyAvoidance }}
)

// FriendlinessMetric is Metric VII over a mix whose P-senders are pIdx
// and Q-senders qIdx (see StreamSummary.Friendliness).
func FriendlinessMetric(pIdx, qIdx []int) Metric {
	return Metric{1, func(s *StreamSummary) float64 { return s.Friendliness(pIdx, qIdx) }}
}

// homogeneous returns n copies of p, the population of the homogeneous
// estimators.
func homogeneous(p protocol.Protocol, n int) ([]protocol.Protocol, error) {
	if n <= 0 {
		return nil, fmt.Errorf("fluid: need at least one sender, got %d", n)
	}
	protos := make([]protocol.Protocol, n)
	for i := range protos {
		protos[i] = p
	}
	return protos, nil
}

// homogeneousWorst runs n p-senders on cfg from every initial
// configuration and folds m over the runs into its worst case.
func homogeneousWorst(cfg fluid.Config, p protocol.Protocol, n int, opt Options, m Metric) (float64, error) {
	protos, err := homogeneous(p, n)
	if err != nil {
		return 0, err
	}
	sums, err := StreamRuns(cfg, protos, opt)
	if err != nil {
		return 0, err
	}
	return m.Worst(sums), nil
}

// Efficiency estimates Metric I for n senders all running p on cfg: the
// worst case over initial configurations of the tail's minimum X(t)/C.
func Efficiency(cfg fluid.Config, p protocol.Protocol, n int, opt Options) (float64, error) {
	return homogeneousWorst(cfg, p, n, opt, EfficiencyMetric)
}

// LossAvoidance estimates Metric III: the worst case over initial
// configurations of the tail's maximum loss rate. Lower is better.
func LossAvoidance(cfg fluid.Config, p protocol.Protocol, n int, opt Options) (float64, error) {
	return homogeneousWorst(cfg, p, n, opt, LossAvoidanceMetric)
}

// Fairness estimates Metric IV: the worst case over initial configurations
// of the minimum pairwise ratio of average tail windows.
func Fairness(cfg fluid.Config, p protocol.Protocol, n int, opt Options) (float64, error) {
	if n < 2 {
		return 0, fmt.Errorf("metrics: fairness needs ≥ 2 senders, got %d", n)
	}
	return homogeneousWorst(cfg, p, n, opt, FairnessMetric)
}

// Convergence estimates Metric V: the worst case over initial
// configurations of the tail's containment around each sender's fixed
// point.
func Convergence(cfg fluid.Config, p protocol.Protocol, n int, opt Options) (float64, error) {
	return homogeneousWorst(cfg, p, n, opt, ConvergenceMetric)
}

// FastUtilization estimates Metric II by running a single p-sender on an
// infinite-capacity, loss-free link — the regime the metric's definition
// isolates ("does not experience loss, nor increased RTT") — and scoring
// the window-growth sums per FastUtilizationFromSeries. The link's
// propagation delay is DefaultPropDelay (the paper's 42 ms reference
// RTT). The Session caches
// the score itself, not the trace: no other estimator reads this run.
func FastUtilization(p protocol.Protocol, opt Options) (float64, error) {
	o := opt.withDefaults()
	cfg := fluid.Config{Infinite: true, PropDelay: DefaultPropDelay, MaxWindow: math.Inf(1)}
	return probeRecorded(cfg, p, o, keyFastUtil, floatCodec, func(tr *trace.Trace) float64 {
		return FastUtilizationFromSeries(tr.Window(0))
	})
}

// probeRecorded resolves a single-sender recorded probe through
// o.Session under its own key kind, caching only what score derives from
// the trace.
func probeRecorded[T any](cfg fluid.Config, p protocol.Protocol, o Options, kind runKind, c runCodec[T], score func(*trace.Trace) T) (T, error) {
	init := []float64{protocol.MinWindow}
	exec := func() (T, error) {
		tr, err := simulateRecorded(cfg, p, 1, init, o)
		if err != nil {
			var zero T
			return zero, err
		}
		return score(tr), nil
	}
	key, cacheable := runKey(cfg, []protocol.Protocol{p}, init, o, kind)
	return resolveOne(o.Session, key, cacheable, o.Steps, c, exec)
}

// simulateRecorded runs n homogeneous senders through the engine with a
// Recorder, uncached, and returns its trace.
func simulateRecorded(cfg fluid.Config, p protocol.Protocol, n int, init []float64, o Options) (*trace.Trace, error) {
	senders, err := fluid.HomogeneousSenders(p, n, init)
	if err != nil {
		return nil, err
	}
	sub := &engine.FluidSpec{Cfg: cfg, Senders: senders, Steps: o.Steps}
	rec := engine.NewRecorder(sub.Meta())
	if _, err := engine.Run(context.Background(), engine.Spec{
		Substrate: sub,
		Observers: []engine.Observer{rec},
		Chaos:     o.Chaos,
		ChaosSeed: o.ChaosSeed,
	}); err != nil {
		return nil, err
	}
	return rec.Trace(), nil
}

// RobustTo reports whether p is robust to constant non-congestion loss of
// rate r (Metric VI): on an infinite-capacity link with loss rate r, the
// window must keep growing past any bound — detected as the final window
// reaching at least half of the loss-free additive growth a 1-MSS/RTT
// prober would achieve, and the last quarter trending upward. The
// Session caches the verdict, not the trace.
func RobustTo(p protocol.Protocol, r float64, opt Options) (bool, error) {
	o := opt.withDefaults()
	// A finite (huge) cap keeps multiplicative growers — BBRish's startup
	// doubles every step — inside float64 range; 2^1024 would overflow to
	// +Inf and poison the slope fit.
	const cap = 1e12
	cfg := fluid.Config{
		Infinite:  true,
		PropDelay: DefaultPropDelay,
		MaxWindow: cap,
		Loss:      fluid.NewConstantLoss(r),
	}
	return probeRecorded(cfg, p, o, keyRobust, boolCodec, func(tr *trace.Trace) bool {
		w := tr.Window(0)
		last := w[len(w)-1]
		if last < float64(o.Steps)/20 {
			return false
		}
		// Saturating the cap is unambiguous growth; otherwise require an
		// upward trend in the tail.
		if last >= cap/2 {
			return true
		}
		slope, _ := stats.LinearFit(stats.Tail(w, 0.75))
		return slope > 0
	})
}

// Robustness estimates Metric VI's α: the largest constant loss rate the
// protocol tolerates while still utilizing spare capacity, located by
// bisection on [0, maxRate] to within tol. A protocol that collapses under
// any positive loss rate (e.g. plain AIMD) scores 0.
func Robustness(p protocol.Protocol, maxRate, tol float64, opt Options) (float64, error) {
	if maxRate <= 0 || maxRate >= 1 {
		return 0, fmt.Errorf("metrics: maxRate must be in (0,1), got %v", maxRate)
	}
	if tol <= 0 {
		return 0, fmt.Errorf("metrics: tol must be positive, got %v", tol)
	}
	// Quick exit: not robust to even a tiny rate.
	if ok, err := RobustTo(p, tol, opt); err != nil {
		return 0, err
	} else if !ok {
		return 0, nil
	}
	lo, hi := tol, maxRate
	if ok, err := RobustTo(p, maxRate, opt); err != nil {
		return 0, err
	} else if ok {
		return maxRate, nil
	}
	for hi-lo > tol {
		mid := (lo + hi) / 2
		ok, err := RobustTo(p, mid, opt)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// Friendliness estimates Metric VII: nP senders run p against nQ senders
// running q on cfg; the score is the worst case over initial
// configurations of the weakest q-sender's average tail window relative to
// the strongest p-sender's.
func Friendliness(cfg fluid.Config, p, q protocol.Protocol, nP, nQ int, opt Options) (float64, error) {
	if nP <= 0 || nQ <= 0 {
		return 0, fmt.Errorf("metrics: friendliness needs senders on both sides (nP=%d nQ=%d)", nP, nQ)
	}
	protos := make([]protocol.Protocol, nP+nQ)
	pIdx, qIdx := make([]int, nP), make([]int, nQ)
	for i := range protos {
		if i < nP {
			protos[i], pIdx[i] = p, i
		} else {
			protos[i], qIdx[i-nP] = q, i
		}
	}
	sums, err := StreamRuns(cfg, protos, opt)
	if err != nil {
		return 0, err
	}
	return FriendlinessMetric(pIdx, qIdx).Worst(sums), nil
}

// TCPFriendliness estimates the paper's Metric VII specialization: p's
// friendliness toward AIMD(1, 0.5), i.e. TCP Reno.
func TCPFriendliness(cfg fluid.Config, p protocol.Protocol, nP, nReno int, opt Options) (float64, error) {
	return Friendliness(cfg, p, protocol.Reno(), nP, nReno, opt)
}

// LatencyAvoidance estimates Metric VIII: the worst case over initial
// configurations of the tail's RTT inflation over 2Θ. The metric's
// definition asks for "sufficiently large link capacity and buffer"; pass
// a suitably provisioned cfg. Lower is better.
func LatencyAvoidance(cfg fluid.Config, p protocol.Protocol, n int, opt Options) (float64, error) {
	return homogeneousWorst(cfg, p, n, opt, LatencyAvoidanceMetric)
}

// Scores is a protocol's empirical position in the paper's 8-dimensional
// metric space.
type Scores struct {
	Efficiency       float64 // Metric I: higher is better
	FastUtilization  float64 // Metric II: higher is better
	LossAvoidance    float64 // Metric III: lower is better
	Fairness         float64 // Metric IV: higher is better
	Convergence      float64 // Metric V: higher is better
	Robustness       float64 // Metric VI: higher is better
	TCPFriendliness  float64 // Metric VII: higher is better
	LatencyAvoidance float64 // Metric VIII: lower is better
}

// String renders the 8-tuple compactly.
func (s Scores) String() string {
	return fmt.Sprintf("eff=%.3f fast=%.3f loss=%.4f fair=%.3f conv=%.3f robust=%.3f tcpf=%.3f lat=%.3f",
		s.Efficiency, s.FastUtilization, s.LossAvoidance, s.Fairness,
		s.Convergence, s.Robustness, s.TCPFriendliness, s.LatencyAvoidance)
}

// Characterize measures all eight metrics for protocol p with n senders on
// cfg, the empirical analogue of one row of the paper's Table 1.
// Fast-utilization and robustness use the metric-specific infinite-link
// scenarios; TCP-friendliness runs one p-sender against one Reno sender.
//
// The homogeneous runs and the Reno mix resolve together in one
// ResolveRuns grid, and the six tail-window scores fold from those
// summaries, each run read once. Unless opt.NoCache is set, the call
// resolves through opt.Session (installing a private one when nil), so
// the TCP-friendliness mix of a Reno-parameterized AIMD with n = 2
// collapses onto the homogeneous runs and each unique (config, init)
// cell simulates exactly once. Scores are bit-identical with caching on
// or off.
func Characterize(cfg fluid.Config, p protocol.Protocol, n int, opt Options) (Scores, error) {
	protos, err := homogeneous(p, n)
	if err != nil {
		return Scores{}, err
	}
	opt = opt.WithSession()
	runs, _, err := ResolveRuns([]RunSet{
		{Cfg: cfg, Protos: protos},
		{Cfg: cfg, Protos: []protocol.Protocol{p, protocol.Reno()}},
	}, opt)
	if err != nil {
		return Scores{}, err
	}
	hom, mix := runs[0], runs[1]
	s := Scores{
		Efficiency:       EfficiencyMetric.Worst(hom),
		LossAvoidance:    LossAvoidanceMetric.Worst(hom),
		Fairness:         math.NaN(),
		Convergence:      ConvergenceMetric.Worst(hom),
		TCPFriendliness:  FriendlinessMetric([]int{0}, []int{1}).Worst(mix),
		LatencyAvoidance: LatencyAvoidanceMetric.Worst(hom),
	}
	if n >= 2 {
		s.Fairness = FairnessMetric.Worst(hom)
	}
	if s.FastUtilization, err = FastUtilization(p, opt); err != nil {
		return Scores{}, err
	}
	if s.Robustness, err = Robustness(p, 0.5, 1e-3, opt); err != nil {
		return Scores{}, err
	}
	return s, nil
}
