// Package axiomcc is a from-scratch Go implementation of the framework in
// "An Axiomatic Approach to Congestion Control" (Zarchy, Schapira, Mittal,
// Shenker — HotNets 2017): congestion-control protocols as points in the
// multidimensional space induced by eight parameterized axioms, the
// theoretical trade-offs between those axioms, and the simulators and
// experiment harnesses that reproduce the paper's tables and figures.
//
// The package is a facade over the implementation packages; importing it
// gives access to the entire public API:
//
//   - Protocols (§2): AIMD, MIMD, Binomial, Cubic, Robust-AIMD, plus the
//     PCC stand-in, a Vegas-style latency avoider, and the Claim 1 probe.
//     All implement the Protocol interface and can be built from textual
//     specs via ParseProtocol ("aimd:1,0.5", "raimd:1,0.8,0.01", ...).
//   - The fluid-flow model (§2): LinkConfig + NewLink / RunHomogeneous
//     (or EngineFluidSpec with any senders) simulate synchronized
//     RTT-quantized dynamics on a single bottleneck, with optional
//     non-congestion loss processes.
//   - The packet-level testbed (§5.1): PacketConfig + RunPacketLevel give
//     an event-driven droptail-queue simulation with per-packet ACKs and
//     monitor intervals — the repository's stand-in for the paper's
//     Emulab experiments.
//   - The eight axioms (§3) as empirical estimators: Efficiency,
//     FastUtilization, LossAvoidance, Fairness, Convergence, Robustness,
//     Friendliness / TCPFriendliness, LatencyAvoidance, and Characterize
//     for the full 8-tuple.
//   - The theory (§4, Table 1): closed-form rows (Table1Rows, FamilyRow)
//     and theorem bounds (Theorem1Bound, Theorem2Bound, Theorem3Bound).
//   - Pareto machinery (§5.2, Figure 1): Dominates, Frontier,
//     Figure1Surface.
//
// A minimal session:
//
//	cfg := axiomcc.LinkConfig{Bandwidth: axiomcc.MbpsToMSSps(20), PropDelay: 0.021, Buffer: 100}
//	tr, err := axiomcc.RunHomogeneous(cfg, axiomcc.Reno(), 2, []float64{1, 50}, 4000)
//	...
//	scores, err := axiomcc.Characterize(cfg, axiomcc.Reno(), 2, axiomcc.MetricOptions{})
//
// The cmd/ tools (axiomsim, axiomscore, paretoexplore, reproduce) and the
// examples/ programs are thin clients of this facade.
package axiomcc

import (
	"context"

	"repro/internal/axcheck"
	"repro/internal/axioms"
	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/fluid"
	"repro/internal/game"
	"repro/internal/metrics"
	"repro/internal/nettopo"
	"repro/internal/packetsim"
	"repro/internal/pareto"
	"repro/internal/protocol"
	"repro/internal/runstore"
	"repro/internal/scenario"
	"repro/internal/storeflags"
	"repro/internal/trace"
)

// ---- Protocols (§2) ----

// Protocol is a congestion-control protocol in the paper's model: a
// deterministic map from observed (window, RTT, loss) history to the next
// congestion window.
type Protocol = protocol.Protocol

// Feedback is the per-step observation a protocol reacts to.
type Feedback = protocol.Feedback

// Protocol families and comparators.
type (
	// AIMD is additive-increase / multiplicative-decrease.
	AIMD = protocol.AIMD
	// MIMD is multiplicative-increase / multiplicative-decrease.
	MIMD = protocol.MIMD
	// Binomial is the BIN(a,b,k,l) family.
	Binomial = protocol.Binomial
	// Cubic is TCP Cubic's window curve.
	Cubic = protocol.Cubic
	// RobustAIMD is the paper's §5.2 Robust-AIMD(a,b,ε).
	RobustAIMD = protocol.RobustAIMD
	// PCC is the monitor-interval, utility-gradient PCC stand-in.
	PCC = protocol.PCC
	// Vegas is the latency-avoiding comparator for Theorem 5.
	Vegas = protocol.Vegas
	// ProbeUntilLoss is Claim 1's 0-loss, non-fast-utilizing probe.
	ProbeUntilLoss = protocol.ProbeUntilLoss
	// TFRC is the equation-based (TCP-friendly rate control style)
	// protocol.
	TFRC = protocol.TFRC
	// HighSpeed is HighSpeed TCP (RFC 3649).
	HighSpeed = protocol.HighSpeed
	// BBRish is the window-based BBR-style model-based protocol.
	BBRish = protocol.BBRish
	// ProtocolFunc adapts a stateless update function to Protocol.
	ProtocolFunc = protocol.Func
)

// Constructors.
var (
	NewAIMD           = protocol.NewAIMD
	NewMIMD           = protocol.NewMIMD
	NewBinomial       = protocol.NewBinomial
	NewCubic          = protocol.NewCubic
	NewRobustAIMD     = protocol.NewRobustAIMD
	NewPCC            = protocol.NewPCC
	NewVegas          = protocol.NewVegas
	NewProbeUntilLoss = protocol.NewProbeUntilLoss
	NewTFRC           = protocol.NewTFRC
	NewHighSpeed      = protocol.NewHighSpeed
	NewBBRish         = protocol.NewBBRish

	// Reno returns AIMD(1, 0.5), the paper's TCP Reno.
	Reno = protocol.Reno
	// Scalable returns MIMD(1.01, 0.875), the paper's TCP Scalable.
	Scalable = protocol.Scalable
	// ScalableAIMD returns AIMD(1, 0.875).
	ScalableAIMD = protocol.ScalableAIMD
	// CubicLinux returns CUBIC(0.4, 0.8), Linux's TCP Cubic.
	CubicLinux = protocol.CubicLinux
	// IIAD returns BIN(1, 1, 1, 0).
	IIAD = protocol.IIAD
	// SQRT returns BIN(1, 0.5, 0.5, 0.5).
	SQRT = protocol.SQRT
	// DefaultPCC returns the PCC stand-in with loss penalty δ = 20.
	DefaultPCC = protocol.DefaultPCC
	// DefaultVegas returns Vegas(2, 4).
	DefaultVegas = protocol.DefaultVegas
	// DefaultTFRC returns TFRC with the calibrated EWMA weight 0.01.
	DefaultTFRC = protocol.DefaultTFRC

	// ParseProtocol builds a Protocol from a spec like "aimd:1,0.5".
	ParseProtocol = protocol.Parse
	// MustParseProtocol is ParseProtocol that panics on error.
	MustParseProtocol = protocol.MustParse
)

// MinWindow is the window floor applied by both simulators (1 MSS).
const MinWindow = protocol.MinWindow

// ---- Fluid-flow model (§2) ----

// LinkConfig describes a bottleneck link for the fluid model.
type LinkConfig = fluid.Config

// Link is a fluid-model bottleneck shared by a set of senders.
type Link = fluid.Link

// LinkSender pairs a protocol with its initial window.
type LinkSender = fluid.Sender

// Non-congestion loss processes (Metric VI).
type (
	// LossProcess injects non-congestion loss into a fluid link.
	LossProcess = fluid.LossProcess
	// ConstantLoss is the deterministic fluid limit of i.i.d. drops.
	ConstantLoss = fluid.ConstantLoss
	// PacketLoss samples binomial per-window loss.
	PacketLoss = fluid.PacketLoss
	// OnOffLoss alternates lossy bursts with clean periods.
	OnOffLoss = fluid.OnOffLoss
)

var (
	// NewLink builds a fluid link (errors on invalid configs).
	NewLink = fluid.New
	// HomogeneousSenders builds n clones of one protocol, for
	// EngineFluidSpec.
	HomogeneousSenders = fluid.HomogeneousSenders
	// MixedSenders builds one sender per supplied protocol, for
	// EngineFluidSpec.
	MixedSenders = fluid.MixedSenders
	// MbpsToMSSps converts megabits/s to the model's MSS/s (1500 B MSS).
	MbpsToMSSps = fluid.MbpsToMSSps

	NewConstantLoss = fluid.NewConstantLoss
	NewPacketLoss   = fluid.NewPacketLoss
	NewOnOffLoss    = fluid.NewOnOffLoss
)

// Trace is the recorded time evolution of a simulated link.
type Trace = trace.Trace

// RunHomogeneous simulates n clones of proto on cfg for steps steps, from
// the initial windows init (cycled; default 1 MSS), and returns the
// recorded trace. It is EngineRun with an EngineRecorder, so a run whose
// windows diverge returns the engine's divergence error rather than a
// trace.
func RunHomogeneous(cfg LinkConfig, proto Protocol, n int, init []float64, steps int) (*Trace, error) {
	senders, err := fluid.HomogeneousSenders(proto, n, init)
	if err != nil {
		return nil, err
	}
	sub := &engine.FluidSpec{Cfg: cfg, Senders: senders, Steps: steps}
	rec := engine.NewRecorder(sub.Meta())
	if _, err := engine.Run(context.Background(), engine.Spec{Substrate: sub, Observers: []engine.Observer{rec}}); err != nil {
		return nil, err
	}
	return rec.Trace(), nil
}

// ---- Packet-level testbed (§5.1) ----

// PacketConfig describes the event-driven packet-level bottleneck.
type PacketConfig = packetsim.Config

// PacketFlow is one sender on the packet-level link.
type PacketFlow = packetsim.Flow

// PacketResult is the outcome of a packet-level run.
type PacketResult = packetsim.Result

// Queue disciplines for the packet-level bottleneck (§6 extension).
type (
	// QueueDiscipline decides packet admission at the bottleneck.
	QueueDiscipline = packetsim.Discipline
	// DroptailQueue is the paper's FIFO droptail policy.
	DroptailQueue = packetsim.Droptail
	// REDQueue is Random Early Detection AQM.
	REDQueue = packetsim.RED
)

var (
	// RunPacketLevel simulates flows on the packet-level link.
	RunPacketLevel = packetsim.Run
	// NewRED builds a RED discipline.
	NewRED = packetsim.NewRED
)

// ---- Arbitrary DAG topologies (§6 generalized) ----

// Nettopo types: the §2 fluid model generalized to a network of links
// over any DAG topology, with optional named endpoints and per-flow
// extra RTT. A topology is a list of links plus flows with paths; the
// builders return such lists, and RunTopo runs them into a
// TopoMetricSummary.
type (
	// TopoLinkSpec describes one directed link (optional src/dst names).
	TopoLinkSpec = nettopo.LinkSpec
	// TopoFlowSpec is one flow: protocol, path over links, extra RTT.
	TopoFlowSpec = nettopo.FlowSpec
)

var (
	// TopoLinearChain builds the k-hop chain shared by every flow.
	TopoLinearChain = nettopo.LinearChain
	// TopoParkingLot returns the links and flows of the parking-lot
	// scenario on the DAG model.
	TopoParkingLot = nettopo.ParkingLot
	// TopoFatTreeFanIn returns the links and flows of a leaf/agg/core
	// fan-in tree.
	TopoFatTreeFanIn = nettopo.FatTreeFanIn
)

// ---- Engine (unified simulator layer) ----

// The engine runs any of the three simulators behind one interface:
// build a substrate spec (EngineFluidSpec, EnginePacketSpec,
// EngineTopoSpec), wrap it in an EngineSpec with optional streaming
// observers, and call EngineRun. EngineSweep shards independent cells
// across a worker pool with deterministic per-cell seeds.
type (
	// EngineSpec selects a substrate and its observers.
	EngineSpec = engine.Spec
	// EngineMeta describes a substrate (flows, capacity, horizon) so
	// observers can size their buffers before the run.
	EngineMeta = engine.Meta
	// EngineStep is the per-step snapshot streamed to observers.
	EngineStep = engine.Step
	// EngineObserver consumes per-step snapshots during a run.
	EngineObserver = engine.Observer
	// EngineObserverFunc adapts a function to EngineObserver.
	EngineObserverFunc = engine.ObserverFunc
	// EngineStrip is a run of consecutive steps delivered in bulk by the
	// grid-batch path (flow-major window columns).
	EngineStrip = engine.Strip
	// EngineStripObserver is the optional Observer upgrade that receives
	// whole strips instead of one Step at a time.
	EngineStripObserver = engine.StripObserver
	// EngineRecorder is the observer that records a run into a Trace.
	EngineRecorder = engine.Recorder
	// EngineResult carries a run's step count and, for a packet run, its
	// delivery counters.
	EngineResult = engine.Result
	// EngineSubstrate is one runnable simulator configuration.
	EngineSubstrate = engine.Substrate
	// EngineFluidSpec adapts the §2 fluid model.
	EngineFluidSpec = engine.FluidSpec
	// EnginePacketSpec adapts the packet-level testbed.
	EnginePacketSpec = engine.PacketSpec
	// EngineTopoSpec adapts the DAG topology substrate.
	EngineTopoSpec = engine.TopoSpec
	// SweepConfig tunes EngineSweep (workers, base seed).
	SweepConfig = engine.SweepConfig
	// MetricStream is the streaming observer computing the axiom
	// estimators online (no recorded trace needed).
	MetricStream = metrics.Stream
	// MetricSummary is a finished MetricStream frozen into the scalars
	// its axiom scores read (MetricStream.Summary).
	MetricSummary = metrics.StreamSummary
)

var (
	// EngineRun executes one substrate under a context.
	EngineRun = engine.Run
	// NewEngineRecorder sizes an EngineRecorder from a substrate's Meta.
	NewEngineRecorder = engine.NewRecorder
	// EngineSweepSpecs runs one EngineSpec per grid cell, stepping
	// lockstep-compatible fluid cells as structure-of-arrays batches and
	// falling back per-cell everywhere else; results are bit-identical
	// either way.
	EngineSweepSpecs = engine.SweepSpecs
	// EngineCellSeed derives the deterministic seed of sweep cell i.
	EngineCellSeed = engine.CellSeed
	// NewMetricStream sizes a MetricStream from a substrate's Meta.
	NewMetricStream = metrics.NewStream
)

// EngineSweep runs cell(ctx, i, seed) for i in [0, n) on a worker pool
// (cfg.Workers; 0 = GOMAXPROCS) with fail-fast errors and context
// cancellation. It is a thin generic wrapper over engine.Sweep so facade
// clients don't import internal packages.
func EngineSweep[T any](ctx context.Context, n int, cfg SweepConfig, cell func(ctx context.Context, i int, seed uint64) (T, error)) ([]T, error) {
	return engine.Sweep(ctx, n, cfg, cell)
}

// ---- Deterministic fault injection (chaos schedules) ----

type (
	// ChaosSchedule is a deterministic, seed-derived fault-injection
	// schedule: capacity shocks/ramps/flaps, bursty Gilbert–Elliott loss,
	// RTT jitter and base-RTT steps, and flow churn. Attach one to an
	// EngineSpec (Chaos + ChaosSeed) or to MetricOptions.
	ChaosSchedule = chaos.Schedule
	// ChaosEvent is one timed fault event of a ChaosSchedule.
	ChaosEvent = chaos.Event
	// ChaosInjector is a schedule compiled against a substrate shape.
	ChaosInjector = chaos.Injector
)

var (
	// ParseChaosSchedule decodes a schedule from JSON (unknown fields are
	// rejected; events are validated and sorted).
	ParseChaosSchedule = chaos.Parse
	// LoadChaosSchedule reads a schedule from a file.
	LoadChaosSchedule = chaos.LoadFile
	// BurstyLossSchedule builds the Gilbert–Elliott bursty-loss preset.
	BurstyLossSchedule = chaos.BurstyLoss
	// FlappyLinkSchedule builds the periodically-flapping-link preset.
	FlappyLinkSchedule = chaos.FlappyLink
	// RegisterStoreFlags mounts -store/-nostore/-store-max-bytes/-store-stats
	// (the persistent cross-process run store).
	RegisterStoreFlags = storeflags.Register
	// OpenRunStore opens (or creates) a persistent run store directory.
	OpenRunStore = runstore.Open
	// SetDefaultRunStore installs the store every new metric session
	// inherits.
	SetDefaultRunStore = metrics.SetDefaultStore
	// MetricTotalStats aggregates run-cache counters across every metric
	// session in the process.
	MetricTotalStats = metrics.TotalStats
	// ErrSimulationDiverged matches (errors.Is) the typed error the fluid
	// stepper returns when a cell's windows blow up to NaN/Inf instead of
	// silently poisoning axiom scores.
	ErrSimulationDiverged = fluid.ErrDiverged
)

// ---- Axioms as empirical estimators (§3) ----

// MetricOptions controls horizons, tails and initial configurations.
type MetricOptions = metrics.Options

// MetricScores is a protocol's measured 8-tuple.
type MetricScores = metrics.Scores

// MetricSession is the content-addressed run cache: runs whose complete
// inputs fingerprint identically are simulated once and shared across the
// estimators (and across sweep cells that share a session via
// MetricOptions.Session). Cached scores are bit-identical to uncached.
type MetricSession = metrics.Session

// MetricSessionStats reports a session's hit/miss/steps-saved counters.
type MetricSessionStats = metrics.SessionStats

// RunStore is the disk-backed, content-addressed store that persists
// simulation results across processes (see internal/runstore).
type RunStore = runstore.Store

// RunStoreOptions configures OpenRunStore (size budget, key version).
type RunStoreOptions = runstore.Options

// StoreFlags holds the parsed persistent-store CLI flags.
type StoreFlags = storeflags.Flags

// DefaultMetricPropDelay is the 21 ms propagation delay (the paper's
// 42 ms reference RTT) of the metric-specific infinite-link scenarios.
const DefaultMetricPropDelay = metrics.DefaultPropDelay

// NewMetricSession builds an empty run-deduplication session.
var NewMetricSession = metrics.NewSession

var (
	Efficiency       = metrics.Efficiency
	FastUtilization  = metrics.FastUtilization
	LossAvoidance    = metrics.LossAvoidance
	Fairness         = metrics.Fairness
	Convergence      = metrics.Convergence
	Robustness       = metrics.Robustness
	RobustTo         = metrics.RobustTo
	Friendliness     = metrics.Friendliness
	TCPFriendliness  = metrics.TCPFriendliness
	LatencyAvoidance = metrics.LatencyAvoidance
	// Characterize measures all eight metrics at once.
	Characterize = metrics.Characterize

	// Extension metrics (§6 "other axioms"): convergence time, RFC-5166
	// smoothness, and responsiveness to capacity jumps.
	ConvergenceTime = metrics.ConvergenceTime
	Smoothness      = metrics.Smoothness
	Responsiveness  = metrics.Responsiveness
	CharacterizeExt = metrics.CharacterizeExt
)

// ExtMetricScores bundles the extension metrics.
type ExtMetricScores = metrics.ExtScores

// Multi-bottleneck metrics: the eight estimators re-stated over DAG
// topologies (per-flow bottleneck attribution, per-shared-link fairness).
type (
	// TopoMetricStream streams a topology run into tail rings for the
	// multi-bottleneck estimators.
	TopoMetricStream = metrics.TopoStream
	// TopoMetricSummary is a finished topology run frozen into what its
	// multi-bottleneck scores read; RunTopo returns it.
	TopoMetricSummary = metrics.TopoSummary
	// TopoRunSpec is one cacheable topology run.
	TopoRunSpec = metrics.TopoRunSpec
)

var (
	// NewTopoMetricStream sizes a TopoMetricStream for a topology run.
	NewTopoMetricStream = metrics.NewTopoStream
	// RunTopo executes (or replays from cache) one topology run and
	// returns its TopoMetricSummary.
	RunTopo = metrics.RunTopo
	// CharacterizeTopo measures all eight metrics on a topology, as
	// MetricScores.
	CharacterizeTopo = metrics.CharacterizeTopo
)

// ---- Theory (§4, Table 1) ----

// TheoryLink is the (C, τ, n) triple Table 1's entries depend on.
type TheoryLink = axioms.Link

// TheoryRow is one Table 1 row: at-link scores plus worst-case bounds.
type TheoryRow = axioms.Row

// TheoryScores is the per-metric score tuple used in TheoryRow.
type TheoryScores = axioms.Scores

var (
	// Table1Rows evaluates the paper's five Table 1 rows at a link.
	Table1Rows = axioms.Table1
	// FamilyRow maps a Protocol to its Table 1 row.
	FamilyRow = axioms.FamilyRow
	// AIMDRow, MIMDRow, BinRow, CubicRow, RobustAIMDRow evaluate single
	// family rows at explicit parameters.
	AIMDRow       = axioms.AIMDRow
	MIMDRow       = axioms.MIMDRow
	BinRow        = axioms.BinRow
	CubicRow      = axioms.CubicRow
	RobustAIMDRow = axioms.RobustAIMDRow

	// Theorem bounds.
	Theorem1Bound = axioms.Theorem1Bound
	Theorem2Bound = axioms.Theorem2Bound
	Theorem3Bound = axioms.Theorem3Bound
	// Feasible / FeasibleRobust test points against Theorems 2 / 3.
	Feasible       = axioms.Feasible
	FeasibleRobust = axioms.FeasibleRobust
)

// ---- Pareto machinery (§5.2, Figure 1) ----

// ParetoPoint is a labeled position in (higher-is-better) score space.
type ParetoPoint = pareto.Point

// SurfacePoint is one point of Figure 1's frontier.
type SurfacePoint = pareto.SurfacePoint

var (
	// Dominates tests Pareto dominance between score vectors.
	Dominates = pareto.Dominates
	// Frontier extracts the non-dominated subset.
	Frontier = pareto.Frontier
	// OnFrontier tests a single point against a set.
	OnFrontier = pareto.OnFrontier
	// OrientScores converts MetricScores to higher-is-better coordinates.
	OrientScores = pareto.OrientScores
	// Figure1Surface evaluates the Theorem 2 frontier on a grid.
	Figure1Surface = pareto.Figure1Surface
	// Grid builds evenly spaced parameter grids.
	Grid = pareto.Grid
	// CharacterizeAll scores a protocol menu into oriented Pareto points,
	// sharing one run-dedup session across all candidates.
	CharacterizeAll = pareto.CharacterizeAll
)

// ---- Adaptive frontier exploration ----

type (
	// ExploreConfig parameterizes the adaptive frontier search: coarse
	// pass, successive-halving refinement, dominance-pruning bandit.
	ExploreConfig = pareto.ExploreConfig
	// ExploreResult is the search outcome: every measured point, the
	// final frontier, per-round snapshots, aggregate stats.
	ExploreResult = pareto.ExploreResult
	// ExploreStats aggregates one Explore call.
	ExploreStats = pareto.ExploreStats
	// ExploreRound describes one completed exploration round.
	ExploreRound = pareto.RoundSnapshot
	// ExploredPoint is one measured (α, β) cell with its oriented scores.
	ExploredPoint = pareto.ExploredPoint
	// ExploreCell is one candidate (α, β) parameter point.
	ExploreCell = pareto.Cell
	// ExploreCellResult is an evaluator's measurement of one cell.
	ExploreCellResult = pareto.CellResult
	// ExploreEvaluator measures batches of candidate cells.
	ExploreEvaluator = pareto.CellEvaluator
)

var (
	// Explore runs the adaptive frontier search; ExploreDense evaluates
	// the equivalent finest-resolution lattice as the brute-force
	// reference. Both are incremental over a shared session/run store.
	Explore      = pareto.Explore
	ExploreDense = pareto.ExploreDense
	// AIMDEvaluator measures AIMD(α, β) cells on a link in the
	// (efficiency, TCP-friendliness) plane, batching whole rounds
	// through the engine's structure-of-arrays fast path.
	AIMDEvaluator = pareto.AIMDEvaluator
)

// ---- Falsification (internal/axcheck) ----

// Axiom-claim falsification: adversarial search for counterexamples to
// "P is α-<claim>" statements, with reproducible witnesses.
type (
	// FalsifyClaim names a checkable axiom (ClaimEfficient, ...).
	FalsifyClaim = axcheck.Claim
	// FalsifyOptions bounds the counterexample search.
	FalsifyOptions = axcheck.Options
	// FalsifyResult reports the search outcome and witness.
	FalsifyResult = axcheck.Result
	// LinkPoint identifies a link configuration in worst-case searches.
	LinkPoint = axcheck.LinkPoint
)

// The falsifiable claims.
const (
	ClaimEfficient      = axcheck.Efficient
	ClaimLossAvoiding   = axcheck.LossAvoiding
	ClaimFair           = axcheck.Fair
	ClaimConvergent     = axcheck.Convergent
	ClaimFriendlyToReno = axcheck.FriendlyToReno
)

var (
	// Falsify searches initial configurations on one link.
	Falsify = axcheck.Check
	// FalsifyWorstCase additionally searches link parameters (the
	// angle-bracket quantifier of Table 1).
	FalsifyWorstCase = axcheck.CheckWorstCase
)

// ---- Scenarios (internal/scenario) ----

// JSON-defined experiments across all three simulators; the scenarios/
// directory ships canonical specs and `axiomsim -scenario` runs them.
type (
	// ScenarioSpec is a parsed scenario.
	ScenarioSpec = scenario.Spec
	// ScenarioOutcome is the uniform result of running one.
	ScenarioOutcome = scenario.Outcome
)

// LoadScenario parses and validates a JSON scenario.
var LoadScenario = scenario.Load

// ---- Protocol-selection game (internal/game) ----

// Protocol choice as a game: Nash equilibria, best-response dynamics, and
// the prisoner's dilemma of congestion control (examples/protocolgame).
type (
	// SelectionGame is an n-player protocol-selection game.
	SelectionGame = game.Game
	// GamePayoff maps simulation outcomes to player utility.
	GamePayoff = game.Payoff
)

var (
	// NewSelectionGame builds a game over a protocol menu.
	NewSelectionGame = game.New
	// GoodputPayoff values raw delivered throughput.
	GoodputPayoff = game.GoodputPayoff
	// LossSensitivePayoff penalizes delivered-but-lossy service.
	LossSensitivePayoff = game.LossSensitivePayoff
)
