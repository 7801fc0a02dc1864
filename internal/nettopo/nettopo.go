// Package nettopo is the §6 network-wide extension of the paper's fluid
// model ("generalizing our model to capture network-wide protocol
// interaction") over arbitrary DAG topologies, following the modular
// conservation-law construction of Briat et al. (arXiv:1303.3796,
// 1208.1230): links, queues, and flows are independent building blocks
// wired together by each flow's path, the list of links it traverses
// (row f of the model's routing matrix R).
//
// The per-link dynamics are exactly §2's synchronized, RTT-quantized
// fluid model, applied per link and composed along each flow's path (a
// one-link network reproduces the single-link fluid model):
//
//	X_l(t) = Σ_{f: l ∈ P_f} x_f(t)                    (aggregate load)
//	L_l(t) = 1 − (C_l+τ_l)/X_l(t)  if X_l > C_l+τ_l   (conservation law:
//	                                else 0             delivered ≤ C_l+τ_l)
//	loss_f = 1 − Π_{l ∈ P_f} (1 − L_l)                (independent drops)
//	rtt_f  = Σ_{l ∈ P_f} rtt_l + Δ_f                  (delays add)
//
// The classic network-wide phenomena emerge: under stochastic loss a
// flow crossing k congested links sees k-fold loss and is beaten down
// below the single-link flows sharing each hop (the "parking lot" bias
// of loss-based AIMD). Beyond a plain chain of links, nettopo offers:
//
//   - Named nodes: links may declare Src/Dst endpoints, in which case the
//     topology must be a DAG (cycle-free by Kahn's algorithm) and every
//     flow's path must be contiguous (each hop starts where the previous
//     ended). Anonymous links accept any free-form path.
//   - Heterogeneous per-flow RTTs: FlowSpec.ExtraRTT models access-path
//     propagation outside the shared topology, so flows crossing the same
//     bottleneck can disagree about their base RTT.
//   - Topology builders for the canonical multi-bottleneck shapes:
//     ParkingLot and FatTreeFanIn return the link and flow specs that
//     New and engine.TopoSpec take; LinearChain returns a chain's links.
//
// A run is stepped here and observed through RunObserved; nothing is
// recorded. metrics.TopoStream reduces the streamed steps to a
// TopoSummary, and metrics.RunTopo is the one entry point that does both.
package nettopo

import (
	"context"
	"fmt"
	"math"

	"repro/internal/protocol"
	"repro/internal/rand64"
)

// LinkSpec describes one directed link, with the same quantities as the
// single-link fluid model plus optional topology endpoints.
type LinkSpec struct {
	Bandwidth float64 // B_l, MSS/s (> 0)
	PropDelay float64 // Θ_l, seconds (> 0)
	Buffer    float64 // τ_l, MSS (≥ 0)

	// TimeoutRTT is this link's Δ contribution on lossy steps; defaults
	// to 2·(2Θ_l + τ_l/B_l).
	TimeoutRTT float64

	// Src and Dst optionally name the link's endpoints. Either both or
	// neither must be set, consistently across the whole network; when
	// set, the directed node graph must be acyclic and flow paths must
	// chain Dst→Src hop to hop.
	Src, Dst string
}

// Capacity returns C_l = B_l·2Θ_l.
func (l LinkSpec) Capacity() float64 { return l.Bandwidth * 2 * l.PropDelay }

func (l LinkSpec) withDefaults() LinkSpec {
	if l.TimeoutRTT == 0 {
		l.TimeoutRTT = 2 * (2*l.PropDelay + l.Buffer/l.Bandwidth)
	}
	return l
}

func (l LinkSpec) validate(i int) error {
	if l.Bandwidth <= 0 {
		return fmt.Errorf("nettopo: link %d bandwidth must be positive, got %v", i, l.Bandwidth)
	}
	if l.PropDelay <= 0 {
		return fmt.Errorf("nettopo: link %d propagation delay must be positive, got %v", i, l.PropDelay)
	}
	if l.Buffer < 0 {
		return fmt.Errorf("nettopo: link %d buffer must be non-negative, got %v", i, l.Buffer)
	}
	if (l.Src == "") != (l.Dst == "") {
		return fmt.Errorf("nettopo: link %d names only one endpoint (src %q, dst %q)", i, l.Src, l.Dst)
	}
	if l.Src != "" && l.Src == l.Dst {
		return fmt.Errorf("nettopo: link %d is a self-loop at node %q", i, l.Src)
	}
	return nil
}

// FlowSpec is one sender: its protocol, initial window, the ordered link
// indices it traverses, and its private extra round-trip delay.
type FlowSpec struct {
	Proto protocol.Protocol
	Init  float64
	Path  []int

	// ExtraRTT (seconds, ≥ 0) is added to the flow's composed RTT every
	// step — the access-path propagation outside the modeled topology.
	ExtraRTT float64
}

// Network is a conservation-law fluid network; create with New.
type Network struct {
	links  []LinkSpec
	flows  []FlowSpec
	protos []protocol.Protocol
	x      []float64 // current windows
	step   int

	// flowsOn[l] lists the flow indices routed over link l — the
	// column-wise view of the routing matrix.
	flowsOn [][]int

	// rng is non-nil in stochastic-loss mode (WithStochasticLoss).
	rng *rand64.Source

	// perturb and active implement fault injection (WithPerturber).
	perturb Perturber
	active  []bool
}

// Perturber is the fault-injection hook the network consults each step —
// a structural copy of the chaos.Injector method set, so this package
// stays free of chaos imports. Link and flow arguments are this
// network's indices.
type Perturber interface {
	CapacityScale(step, link int) float64
	ExtraLoss(step, flow int) float64
	RTTOffset(step, link int) float64
	FlowActive(step, flow int) bool
}

// minPerturbedRTT floors a link's RTT contribution after a negative
// chaos offset.
const minPerturbedRTT = 1e-6

// maxWindow caps every flow's window.
const maxWindow = 1e9

// Option tweaks network construction.
type Option func(*Network)

// WithStochasticLoss switches loss observation from the deterministic
// shared-rate model to per-flow sampling: at a step where flow f's
// composed path loss rate is L and its window is x, the flow observes a
// loss event with probability 1 − (1−L)^x and otherwise observes no
// loss. Runs remain deterministic per seed.
//
// In the fully synchronized deterministic model, flows sharing a
// bottleneck see loss at identical steps, so magnitude-insensitive
// protocols like AIMD react identically regardless of path length; the
// parking-lot bias only emerges once loss observation is probabilistic,
// exactly as on a packet network.
func WithStochasticLoss(seed uint64) Option {
	return func(n *Network) { n.rng = rand64.New(seed) }
}

// WithPerturber applies a deterministic fault-injection schedule
// (typically a compiled chaos.Schedule) while the network runs. The nil
// path is bit-identical to the unperturbed model.
func WithPerturber(p Perturber) Option {
	return func(n *Network) { n.perturb = p }
}

// New builds a network. Every flow's path must be non-empty and reference
// valid links; when links name their endpoints the topology must be a
// DAG and every path must be contiguous.
func New(links []LinkSpec, flows []FlowSpec, opts ...Option) (*Network, error) {
	if len(links) == 0 {
		return nil, fmt.Errorf("nettopo: at least one link required")
	}
	if len(flows) == 0 {
		return nil, fmt.Errorf("nettopo: at least one flow required")
	}
	n := &Network{
		links:   make([]LinkSpec, len(links)),
		flows:   flows,
		protos:  make([]protocol.Protocol, len(flows)),
		x:       make([]float64, len(flows)),
		flowsOn: make([][]int, len(links)),
	}
	named := 0
	for i, l := range links {
		if err := l.validate(i); err != nil {
			return nil, err
		}
		if l.Src != "" {
			named++
		}
		n.links[i] = l.withDefaults()
	}
	if named > 0 && named < len(links) {
		return nil, fmt.Errorf("nettopo: either all links or no links must name endpoints (%d of %d named)", named, len(links))
	}
	if named == len(links) {
		if err := checkDAG(links); err != nil {
			return nil, err
		}
	}
	for _, opt := range opts {
		opt(n)
	}
	for f, spec := range flows {
		if spec.Proto == nil {
			return nil, fmt.Errorf("nettopo: flow %d has nil protocol", f)
		}
		if spec.ExtraRTT < 0 {
			return nil, fmt.Errorf("nettopo: flow %d extra RTT must be non-negative, got %v", f, spec.ExtraRTT)
		}
		if len(spec.Path) == 0 {
			return nil, fmt.Errorf("nettopo: flow %d has empty path", f)
		}
		seen := make(map[int]bool, len(spec.Path))
		for h, l := range spec.Path {
			if l < 0 || l >= len(links) {
				return nil, fmt.Errorf("nettopo: flow %d references unknown link %d", f, l)
			}
			if seen[l] {
				return nil, fmt.Errorf("nettopo: flow %d visits link %d twice", f, l)
			}
			if named == len(links) && h > 0 {
				prev := spec.Path[h-1]
				if links[prev].Dst != links[l].Src {
					return nil, fmt.Errorf("nettopo: flow %d path is not contiguous: link %d ends at %q but link %d starts at %q",
						f, prev, links[prev].Dst, l, links[l].Src)
				}
			}
			seen[l] = true
			n.flowsOn[l] = append(n.flowsOn[l], f)
		}
		n.protos[f] = spec.Proto.Clone()
		n.x[f] = protocol.Clamp(spec.Init, maxWindow)
	}
	if n.perturb != nil {
		n.active = make([]bool, len(flows))
	}
	return n, nil
}

// checkDAG rejects cycles in the named node graph (Kahn's algorithm).
func checkDAG(links []LinkSpec) error {
	indeg := map[string]int{}
	out := map[string][]string{}
	for _, l := range links {
		out[l.Src] = append(out[l.Src], l.Dst)
		indeg[l.Dst]++
		if _, ok := indeg[l.Src]; !ok {
			indeg[l.Src] = 0
		}
	}
	queue := make([]string, 0, len(indeg))
	for node, d := range indeg {
		if d == 0 {
			queue = append(queue, node)
		}
	}
	removed := 0
	for len(queue) > 0 {
		node := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		removed++
		for _, dst := range out[node] {
			indeg[dst]--
			if indeg[dst] == 0 {
				queue = append(queue, dst)
			}
		}
	}
	if removed != len(indeg) {
		return fmt.Errorf("nettopo: topology contains a cycle (%d of %d nodes unreachable from sources)", len(indeg)-removed, len(indeg))
	}
	return nil
}

// StepResult reports one network step.
type StepResult struct {
	Step     int
	Windows  []float64 // windows in effect during the step
	LinkLoss []float64 // per-link loss rate
	LinkRTT  []float64 // per-link round-trip contribution (seconds)
	LinkLoad []float64 // per-link aggregate window during the step
	FlowLoss []float64 // per-flow composed loss
	FlowRTT  []float64 // per-flow composed RTT (including ExtraRTT)
}

// Step advances the network one synchronized time step. Its arithmetic,
// operation order included, is pinned bit for bit by the frozen chain
// trajectories in testdata/multilink_parity.json.
func (n *Network) Step() StepResult {
	res := n.newStepResult()
	n.stepInto(&res)
	return res
}

// newStepResult allocates a StepResult sized for n's flows and links.
func (n *Network) newStepResult() StepResult {
	return StepResult{
		Windows:  make([]float64, len(n.flows)),
		LinkLoss: make([]float64, len(n.links)),
		LinkRTT:  make([]float64, len(n.links)),
		LinkLoad: make([]float64, len(n.links)),
		FlowLoss: make([]float64, len(n.flows)),
		FlowRTT:  make([]float64, len(n.flows)),
	}
}

// stepInto is Step writing into res, whose slices newStepResult sized;
// every field is overwritten, so one res serves a whole run.
func (n *Network) stepInto(res *StepResult) {
	p := n.perturb
	if p != nil {
		for f := range n.flows {
			on := p.FlowActive(n.step, f)
			if on && !n.active[f] && n.step > 0 {
				// (Re)arrival mid-run restarts from the initial window.
				n.x[f] = protocol.Clamp(n.flows[f].Init, maxWindow)
			}
			n.active[f] = on
		}
	}
	res.Step = n.step
	copy(res.Windows, n.x)
	// Only overloaded links and active flows set these below.
	clear(res.LinkLoss)
	clear(res.FlowLoss)
	clear(res.FlowRTT)
	for l, spec := range n.links {
		load := 0.0
		for _, f := range n.flowsOn[l] {
			if p != nil && !n.active[f] {
				continue
			}
			load += n.x[f]
		}
		res.LinkLoad[l] = load
		c, tau := spec.Capacity(), spec.Buffer
		b := spec.Bandwidth
		if p != nil {
			b *= p.CapacityScale(n.step, l)
			c = b * 2 * spec.PropDelay
		}
		switch {
		case load < c+tau:
			res.LinkRTT[l] = max(2*spec.PropDelay, (load-c)/b+2*spec.PropDelay)
		case load > c+tau:
			res.LinkLoss[l] = 1 - (c+tau)/load
			res.LinkRTT[l] = spec.TimeoutRTT
		default:
			res.LinkRTT[l] = spec.TimeoutRTT
		}
		if p != nil {
			// A drained link's queueing delay explodes as 1/b; the
			// timeout cap is the model's "sender gave up" bound.
			if res.LinkRTT[l] > spec.TimeoutRTT {
				res.LinkRTT[l] = spec.TimeoutRTT
			}
			res.LinkRTT[l] += p.RTTOffset(n.step, l)
			if res.LinkRTT[l] < minPerturbedRTT {
				res.LinkRTT[l] = minPerturbedRTT
			}
		}
	}
	for f := range n.flows {
		if p != nil && !n.active[f] {
			// Departed flow: no load, no feedback, window frozen until
			// re-arrival resets it.
			res.Windows[f] = 0
			continue
		}
		survive := 1.0
		rtt := 0.0
		for _, l := range n.flows[f].Path {
			survive *= 1 - res.LinkLoss[l]
			rtt += res.LinkRTT[l]
		}
		rtt += n.flows[f].ExtraRTT
		if p != nil {
			survive *= 1 - p.ExtraLoss(n.step, f)
		}
		res.FlowLoss[f] = 1 - survive
		res.FlowRTT[f] = rtt
		observed := res.FlowLoss[f]
		if n.rng != nil && observed > 0 {
			// Stochastic mode: the flow notices the step's loss only if
			// at least one of its own packets was hit.
			pHit := 1 - math.Pow(survive, n.x[f])
			if !n.rng.Bernoulli(pHit) {
				observed = 0
			}
		}
		next := n.protos[f].Next(protocol.Feedback{
			Step:   n.step,
			Window: n.x[f],
			RTT:    rtt,
			Loss:   observed,
		})
		if math.IsNaN(next) {
			next = protocol.MinWindow
		}
		n.x[f] = protocol.Clamp(next, maxWindow)
	}
	n.step++
}

// RunObserved advances the network steps times with cooperative
// cancellation, calling obs after each step when non-nil. One
// StepResult serves the whole run: obs owns it for the duration of the
// call only and must copy what it keeps.
func (n *Network) RunObserved(ctx context.Context, steps int, obs func(*StepResult)) error {
	res := n.newStepResult()
	for s := 0; s < steps; s++ {
		if s&0xff == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		n.stepInto(&res)
		if obs != nil {
			obs(&res)
		}
	}
	return nil
}
