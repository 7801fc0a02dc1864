package metrics

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"strconv"

	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/nettopo"
	"repro/internal/protocol"
	"repro/internal/stats"
)

// TopoStream is the engine.Observer that feeds the tail-window axiom
// estimators over multi-bottleneck paths. Where Stream scores against
// the one link every sender shares, a nettopo run has no single C or
// base RTT, so the estimators decompose per link and per flow (see
// TopoSummary, which a finished stream freezes into).
//
// State is O(tail): per-flow window/goodput/RTT rings and per-link
// load/loss rings.
type TopoStream struct {
	tailFrac float64
	steps    int       // steps observed, withheld ones included
	retain   int       // ring capacity
	linkCap  []float64 // C_l per link
	paths    [][]int   // link indices per flow
	baseRTT  []float64 // unloaded RTT per flow (path 2Θ sum + ExtraRTT)
	windows  []*stats.Ring
	goodput  []*stats.Ring
	flowRTT  []*stats.Ring
	linkLoad []*stats.Ring
	linkLoss []*stats.Ring
}

// NewTopoStream sizes a streaming observer for a nettopo run: links and
// flows exactly as handed to engine.TopoSpec, the spec's Steps as
// horizon. tailFrac 0 selects DefaultTailFrac.
func NewTopoStream(links []nettopo.LinkSpec, flows []nettopo.FlowSpec, horizon int, tailFrac float64) *TopoStream {
	if tailFrac == 0 {
		tailFrac = DefaultTailFrac
	}
	capGoal := stats.TailLen(horizon, tailFrac) + horizonSlack
	s := &TopoStream{
		tailFrac: tailFrac,
		retain:   capGoal,
		linkCap:  make([]float64, len(links)),
		paths:    make([][]int, len(flows)),
		baseRTT:  make([]float64, len(flows)),
		windows:  make([]*stats.Ring, len(flows)),
		goodput:  make([]*stats.Ring, len(flows)),
		flowRTT:  make([]*stats.Ring, len(flows)),
		linkLoad: make([]*stats.Ring, len(links)),
		linkLoss: make([]*stats.Ring, len(links)),
	}
	for l, spec := range links {
		s.linkCap[l] = spec.Capacity()
		s.linkLoad[l] = stats.NewRing(capGoal)
		s.linkLoss[l] = stats.NewRing(capGoal)
	}
	for f, spec := range flows {
		s.paths[f] = append([]int(nil), spec.Path...)
		rtt := spec.ExtraRTT
		for _, l := range spec.Path {
			rtt += 2 * links[l].PropDelay
		}
		s.baseRTT[f] = rtt
		s.windows[f] = stats.NewRing(capGoal)
		s.goodput[f] = stats.NewRing(capGoal)
		s.flowRTT[f] = stats.NewRing(capGoal)
	}
	return s
}

// TailSteps implements engine.TailObserver: nothing older than the
// rings retain can reach a score.
func (s *TopoStream) TailSteps() int { return s.retain }

// skipTo accounts for steps the engine withheld, as Stream.skipTo does.
func (s *TopoStream) skipTo(index int) {
	gap := index - s.steps
	if gap <= 0 {
		return
	}
	for f := range s.windows {
		s.windows[f].Skip(gap)
		s.goodput[f].Skip(gap)
		s.flowRTT[f].Skip(gap)
	}
	for l := range s.linkLoad {
		s.linkLoad[l].Skip(gap)
		s.linkLoss[l].Skip(gap)
	}
	s.steps = index
}

// Observe implements engine.Observer; it consumes Step.Topo.
func (s *TopoStream) Observe(st engine.Step) {
	t := st.Topo
	if t == nil {
		return
	}
	s.skipTo(st.Index)
	s.steps++
	for f := range s.windows {
		w := t.Windows[f]
		s.windows[f].Push(w)
		g := 0.0
		if t.FlowRTT[f] > 0 {
			g = w * (1 - t.FlowLoss[f]) / t.FlowRTT[f]
		}
		s.goodput[f].Push(g)
		s.flowRTT[f].Push(t.FlowRTT[f])
	}
	for l := range s.linkLoad {
		s.linkLoad[l].Push(t.LinkLoad[l])
		s.linkLoss[l].Push(t.LinkLoss[l])
	}
}

// Steps returns the number of samples observed, withheld ones included.
func (s *TopoStream) Steps() int { return s.steps }

// TailFrac returns the tail fraction the stream scores over.
func (s *TopoStream) TailFrac() float64 { return s.tailFrac }

// Summary freezes the finished run into its TopoSummary. Call it once
// the run has ended; every field is computed with the same formula
// bodies over the same retained tail samples the estimators always
// used, so scores derived from the summary are bit-identical.
func (s *TopoStream) Summary() *TopoSummary {
	// One buffer serves every tail in turn: each is fully consumed before
	// the next is read.
	var buf []float64
	tail := func(r *stats.Ring) []float64 {
		buf = r.AppendTail(buf[:0], s.tailFrac)
		return buf
	}
	sum := &TopoSummary{
		Paths:         s.paths,
		BaseRTT:       s.baseRTT,
		LinkUtil:      make([]float64, len(s.linkLoad)),
		LinkEff:       make([]float64, len(s.linkLoad)),
		LinkMaxLoss:   make([]float64, len(s.linkLoad)),
		LinkMeanLoss:  make([]float64, len(s.linkLoad)),
		AvgWindows:    make([]float64, len(s.windows)),
		AvgGoodputs:   make([]float64, len(s.windows)),
		RTTInflations: make([]float64, len(s.windows)),
		Convergence:   convergence(len(s.windows), func(f int) []float64 { return tail(s.windows[f]) }),
	}
	for l := range s.linkLoad {
		load := tail(s.linkLoad[l])
		sum.LinkUtil[l] = stats.Mean(load) / s.linkCap[l]
		sum.LinkEff[l] = efficiency(load, s.linkCap[l])
		loss := tail(s.linkLoss[l])
		sum.LinkMaxLoss[l] = lossAvoidance(loss)
		sum.LinkMeanLoss[l] = stats.Mean(loss)
	}
	for f := range s.windows {
		sum.AvgWindows[f] = stats.Mean(tail(s.windows[f]))
		sum.AvgGoodputs[f] = stats.Mean(tail(s.goodput[f]))
		sum.RTTInflations[f] = latencyInflation(tail(s.flowRTT[f]), s.baseRTT[f])
	}
	return sum
}

// TopoSummary is one finished nettopo run reduced to what its
// multi-bottleneck scores read: the scoring geometry, per-link and
// per-flow tail quantities, and the convergence scalar. The estimators
// re-derive every score from these fields:
//
//   - Efficiency and Convergence attribute each flow to its own
//     bottleneck — the most-utilized link on its path — and score there.
//   - Fairness and Friendliness are computed per shared link, over
//     exactly the flows that meet on it, and the worst link governs.
//   - LossAvoidance is the worst instantaneous tail loss on any link.
//   - LatencyAvoidance scores each flow's RTT inflation against its own
//     heterogeneous base RTT (path propagation plus ExtraRTT).
//
// It is what the Session caches and the run store persists. Cached
// summaries are shared between callers and must be treated as read-only.
type TopoSummary struct {
	Paths   [][]int   // link indices per flow
	BaseRTT []float64 // unloaded RTT per flow (path 2Θ sum + ExtraRTT)

	LinkUtil     []float64 // per link: mean tail load over C_l
	LinkEff      []float64 // per link: min tail load over C_l (see efficiency)
	LinkMaxLoss  []float64 // per link: max tail loss rate (see lossAvoidance)
	LinkMeanLoss []float64 // per link: mean tail loss rate

	AvgWindows    []float64 // per flow: mean tail window
	AvgGoodputs   []float64 // per flow: mean tail goodput (MSS/s), window·(1−loss)/RTT per step
	RTTInflations []float64 // per flow: max tail RTT inflation over BaseRTT (see latencyInflation)

	Convergence float64 // Metric V per flow (see convergence), worst flow
}

// BottleneckOf returns flow f's bottleneck: the link on its path with
// the highest mean tail utilization (ties resolve to the earliest hop).
func (s *TopoSummary) BottleneckOf(f int) int {
	best, bestUtil := s.Paths[f][0], math.Inf(-1)
	for _, l := range s.Paths[f] {
		if u := s.LinkUtil[l]; u > bestUtil {
			best, bestUtil = l, u
		}
	}
	return best
}

// Efficiency re-states Metric I per flow: each flow is scored at its
// bottleneck link as the tail minimum of that link's aggregate load over
// capacity (the multi-bottleneck analogue of min X(t)/C), and the worst
// flow governs.
func (s *TopoSummary) Efficiency() float64 {
	worst := math.Inf(1)
	for f := range s.Paths {
		if e := s.LinkEff[s.BottleneckOf(f)]; e < worst {
			worst = e
		}
	}
	if math.IsInf(worst, 1) {
		return 0
	}
	return worst
}

// LossAvoidance re-states Metric III: the maximum instantaneous tail
// loss rate on any link of the topology. Lower is better.
func (s *TopoSummary) LossAvoidance() float64 {
	worst := 0.0
	for _, m := range s.LinkMaxLoss {
		if m > worst {
			worst = m
		}
	}
	return worst
}

// sharedLinks returns the links traversed by at least two flows,
// together with the flows on each.
func (s *TopoSummary) sharedLinks() map[int][]int {
	on := make(map[int][]int)
	for f, path := range s.Paths {
		for _, l := range path {
			on[l] = append(on[l], f)
		}
	}
	for l, flows := range on {
		if len(flows) < 2 {
			delete(on, l)
		}
	}
	return on
}

// Fairness re-states Metric IV per shared link: on every link carrying
// two or more flows, the min-over-max ratio of the mean tail windows of
// exactly those flows; the worst shared link governs. NaN when no link
// is shared (fairness is then undefined, as with one sender).
func (s *TopoSummary) Fairness() float64 {
	shared := s.sharedLinks()
	if len(shared) == 0 {
		return math.NaN()
	}
	worst := math.Inf(1)
	for _, flows := range shared {
		avgs := make([]float64, len(flows))
		for i, f := range flows {
			avgs[i] = s.AvgWindows[f]
		}
		if r := fairness(avgs); r < worst {
			worst = r
		}
	}
	return worst
}

// LatencyAvoidance re-states Metric VIII per flow: each flow's maximum
// tail RTT inflation over its own base RTT (heterogeneous paths score
// against heterogeneous baselines); the worst flow governs. Lower is
// better; NaN when any flow's base RTT is not positive.
func (s *TopoSummary) LatencyAvoidance() float64 {
	worst := 0.0
	for _, infl := range s.RTTInflations {
		if math.IsNaN(infl) {
			return infl
		}
		if infl > worst {
			worst = infl
		}
	}
	return worst
}

// Friendliness re-states Metric VII per shared link: on every link where
// at least one P-flow meets at least one Q-flow, the weakest Q's mean
// tail window relative to the strongest P's there; the worst such link
// governs. NaN when P and Q never share a link.
func (s *TopoSummary) Friendliness(pIdx, qIdx []int) float64 {
	inP := make(map[int]bool, len(pIdx))
	for _, f := range pIdx {
		inP[f] = true
	}
	inQ := make(map[int]bool, len(qIdx))
	for _, f := range qIdx {
		inQ[f] = true
	}
	avg := func(f int) float64 { return s.AvgWindows[f] }
	worst := math.Inf(1)
	found := false
	for _, flows := range s.sharedLinks() {
		var p, q []int
		for _, f := range flows {
			if inP[f] {
				p = append(p, f)
			}
			if inQ[f] {
				q = append(q, f)
			}
		}
		if len(p) == 0 || len(q) == 0 {
			continue
		}
		found = true
		if r := friendliness(avg, p, q); r < worst {
			worst = r
		}
	}
	if !found {
		return math.NaN()
	}
	return worst
}

// TopoRunSpec is one complete nettopo simulation request: the topology,
// the horizon, and the knobs that participate in its canonical
// fingerprint. Flows carry their protocols; for the run to be cacheable
// every protocol must implement protocol.Fingerprinter.
type TopoRunSpec struct {
	Links    []nettopo.LinkSpec
	Flows    []nettopo.FlowSpec
	Steps    int     // horizon (default 4000)
	TailFrac float64 // tail fraction baked into the stream (default DefaultTailFrac)

	// Stochastic enables per-flow loss sampling seeded by Seed.
	Stochastic bool
	Seed       uint64

	// Chaos, when non-nil, applies the fault-injection schedule.
	Chaos     *chaos.Schedule
	ChaosSeed uint64

	// Session, when non-nil, deduplicates the run against the in-memory
	// and persistent tiers; nettopo runs honor the same content-addressed
	// contract as every other substrate.
	Session *Session
}

func (t *TopoRunSpec) withDefaults() {
	if t.Steps == 0 {
		t.Steps = 4000
	}
	if t.TailFrac == 0 {
		t.TailFrac = DefaultTailFrac
	}
}

// topoKey builds the canonical content address of a nettopo run. Node
// names are excluded: they constrain validation, never dynamics, so two
// topologies that differ only in labels share their runs. ok is false
// when a protocol lacks a canonical fingerprint.
func topoKey(t *TopoRunSpec) (string, bool) {
	b := make([]byte, 0, 512) // the whole key, on the stack unless it outgrows this
	b = append(b, "v1|topo|tf="...)
	b = appendHexBits(b, t.TailFrac)
	b = append(b, "|steps="...)
	b = strconv.AppendInt(b, int64(t.Steps), 10)
	b = append(b, "|links="...)
	for _, l := range t.Links {
		for _, v := range [...]float64{l.Bandwidth, l.PropDelay, l.Buffer, l.TimeoutRTT} {
			b = appendHexBits(b, v)
			b = append(b, ',')
		}
		b = append(b, ';')
	}
	if t.Stochastic {
		b = append(b, "|sl="...)
		b = strconv.AppendUint(b, t.Seed, 16)
	}
	if t.Chaos != nil {
		raw, err := json.Marshal(t.Chaos)
		if err != nil {
			return "", false
		}
		b = append(b, "|chaos="...)
		b = append(b, raw...)
		b = append(b, ";cs="...)
		b = strconv.AppendUint(b, t.ChaosSeed, 16)
	}
	b = append(b, "|flows="...)
	for _, f := range t.Flows {
		fp, ok := f.Proto.(protocol.Fingerprinter)
		if !ok {
			return "", false
		}
		b = append(b, fp.Fingerprint()...)
		b = append(b, '@')
		b = appendHexBits(b, f.Init)
		b = append(b, '@')
		b = appendHexBits(b, f.ExtraRTT)
		b = append(b, '@')
		for _, l := range f.Path {
			b = strconv.AppendInt(b, int64(l), 10)
			b = append(b, '-')
		}
		b = append(b, ';')
	}
	return string(b), true
}

// RunTopo executes (or resolves from cache) one streaming-observed
// nettopo run and returns its frozen TopoSummary. With a Session set,
// runs with identical canonical fingerprints are single-flighted in
// memory and persisted to the run store, exactly like the fluid
// substrate's streamed runs: a warm store serves the summary without
// simulating.
func RunTopo(ctx context.Context, t TopoRunSpec) (*TopoSummary, error) {
	t.withDefaults()
	exec := func() (*TopoSummary, error) {
		var opts []nettopo.Option
		if t.Stochastic {
			opts = append(opts, nettopo.WithStochasticLoss(t.Seed))
		}
		st := NewTopoStream(t.Links, t.Flows, t.Steps, t.TailFrac)
		_, err := engine.Run(ctx, engine.Spec{
			Substrate: &engine.TopoSpec{Links: t.Links, Flows: t.Flows, Opts: opts, Steps: t.Steps},
			Observers: []engine.Observer{st},
			Chaos:     t.Chaos,
			ChaosSeed: t.ChaosSeed,
		})
		if err != nil {
			return nil, err
		}
		return st.Summary(), nil
	}
	key, cacheable := topoKey(&t)
	return resolveOne(t.Session, key, cacheable, t.Steps, topoCodec, exec)
}

// CharacterizeTopo measures all eight metrics for a homogeneous
// population of p-flows over the given topology — one multi-bottleneck
// row of the paper's Table 1. Efficiency, LossAvoidance, Fairness,
// Convergence, TCPFriendliness, and LatencyAvoidance are the
// per-link/per-bottleneck re-statements computed by TopoSummary, with
// worst cases taken over the same initial configurations the single-link
// estimators use (o.InitConfigs, else floor, fair share of the largest
// link, and maximally skewed). TCP-friendliness re-runs the topology with
// every flow but the first replaced by Reno and scores flow 0 against
// them per shared link. FastUtilization and Robustness are single-sender
// probes on the metric-specific infinite link (Metrics II and VI isolate
// the protocol from any topology, so their values are inherited
// unchanged).
func CharacterizeTopo(links []nettopo.LinkSpec, flows []nettopo.FlowSpec, p protocol.Protocol, opt Options) (Scores, error) {
	if len(flows) == 0 {
		return Scores{}, errors.New("metrics: CharacterizeTopo needs at least one flow")
	}
	o := opt.withDefaults().WithSession()
	c := 0.0
	for _, l := range links {
		c = math.Max(c, l.Capacity())
	}
	inits := o.initConfigs(c, len(flows))
	// runs streams the topology once per initial configuration, with flow
	// i running protos(i).
	runs := func(protos func(i int) protocol.Protocol) ([]*TopoSummary, error) {
		out := make([]*TopoSummary, len(inits))
		for k, init := range inits {
			fl := make([]nettopo.FlowSpec, len(flows))
			for i := range flows {
				fl[i] = flows[i]
				fl[i].Proto = protos(i)
				fl[i].Init = protocol.MinWindow
				if len(init) > 0 {
					fl[i].Init = init[i%len(init)]
				}
			}
			st, err := RunTopo(context.Background(), TopoRunSpec{
				Links:     links,
				Flows:     fl,
				Steps:     o.Steps,
				TailFrac:  o.TailFrac,
				Chaos:     o.Chaos,
				ChaosSeed: o.ChaosSeed,
				Session:   o.Session,
			})
			if err != nil {
				return nil, err
			}
			out[k] = st
		}
		return out, nil
	}
	hom, err := runs(func(int) protocol.Protocol { return p })
	if err != nil {
		return Scores{}, err
	}
	// Friendliness: flow 0 keeps p, the cross traffic becomes Reno.
	reno := protocol.Reno()
	mix, err := runs(func(i int) protocol.Protocol {
		if i == 0 {
			return p
		}
		return reno
	})
	if err != nil {
		return Scores{}, err
	}
	qIdx := make([]int, 0, len(flows)-1)
	for i := 1; i < len(flows); i++ {
		qIdx = append(qIdx, i)
	}
	s := Scores{
		Efficiency:       worstCase(hom, 1, (*TopoSummary).Efficiency),
		LossAvoidance:    worstCase(hom, -1, (*TopoSummary).LossAvoidance),
		Fairness:         worstCase(hom, 1, (*TopoSummary).Fairness),
		Convergence:      worstCase(hom, 1, func(st *TopoSummary) float64 { return st.Convergence }),
		TCPFriendliness:  worstCase(mix, 1, func(st *TopoSummary) float64 { return st.Friendliness([]int{0}, qIdx) }),
		LatencyAvoidance: worstCase(hom, -1, (*TopoSummary).LatencyAvoidance),
	}
	if s.FastUtilization, err = FastUtilization(p, o); err != nil {
		return Scores{}, err
	}
	if s.Robustness, err = Robustness(p, 0.5, 1e-3, o); err != nil {
		return Scores{}, err
	}
	return s, nil
}
