// Package scenario loads and runs experiment descriptions from JSON, so
// that scenarios are shareable artifacts rather than code: a spec selects
// one of the three simulators (the §2 fluid model, the packet-level
// testbed, or the nettopo network substrate), describes the link(s) and flows in the paper's units (Mbps, ms, MSS), and produces a
// uniform outcome with per-flow shares and link-level metrics. The
// repository ships a library of canonical specs under scenarios/.
package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"text/tabwriter"

	"repro/internal/engine"
	"repro/internal/fluid"
	"repro/internal/metrics"
	"repro/internal/nettopo"
	"repro/internal/packetsim"
	"repro/internal/protocol"
	"repro/internal/stats"
)

// Link describes one link in paper units.
type Link struct {
	Mbps       float64 `json:"mbps"`
	RTTms      float64 `json:"rtt_ms"`                // round-trip propagation delay
	BufferMSS  float64 `json:"buffer_mss"`            // τ
	RandomLoss float64 `json:"random_loss,omitempty"` // non-congestion loss rate
	Infinite   bool    `json:"infinite,omitempty"`    // fluid only

	// Src and Dst name the link's endpoints in a nettopo topology; given
	// for every link, they let the loader reject cyclic or discontiguous
	// wiring before the simulator runs.
	Src string `json:"src,omitempty"` // nettopo only
	Dst string `json:"dst,omitempty"` // nettopo only

	// RED, when present, replaces droptail at a packet-level bottleneck.
	RED *REDSpec `json:"red,omitempty"`
}

// REDSpec configures Random Early Detection for packet scenarios.
type REDSpec struct {
	MinThresh int     `json:"min_thresh"`
	MaxThresh int     `json:"max_thresh"`
	MaxP      float64 `json:"max_p"`
}

// Flow describes one sender.
type Flow struct {
	Protocol     string  `json:"protocol"`                 // spec string, e.g. "raimd:1,0.8,0.01"
	Init         float64 `json:"init,omitempty"`           // initial window (MSS)
	Start        float64 `json:"start,omitempty"`          // packet: start time (s)
	ExtraDelayMs float64 `json:"extra_delay_ms,omitempty"` // packet: one-way extra delay
	Path         []int   `json:"path,omitempty"`           // nettopo: link indices
	ExtraRTTms   float64 `json:"extra_rtt_ms,omitempty"`   // nettopo: fixed extra round-trip delay
	Period       int     `json:"period,omitempty"`         // fluid: update period (unsync)
	Phase        int     `json:"phase,omitempty"`          // fluid: update phase
}

// Spec is a complete scenario.
type Spec struct {
	Name     string  `json:"name"`
	Model    string  `json:"model"`              // "fluid" | "packet" | "nettopo"
	Steps    int     `json:"steps,omitempty"`    // fluid/nettopo horizon (default 4000)
	Duration float64 `json:"duration,omitempty"` // packet horizon in seconds (default 60)
	Seed     uint64  `json:"seed,omitempty"`
	TailFrac float64 `json:"tail_frac,omitempty"` // summary window (default 0.75)

	Link  *Link  `json:"link,omitempty"`  // fluid/packet
	Links []Link `json:"links,omitempty"` // nettopo
	Flows []Flow `json:"flows"`

	// StochasticLoss enables per-flow loss sampling in nettopo runs.
	StochasticLoss bool `json:"stochastic_loss,omitempty"`
}

// Load parses a spec from JSON, rejecting unknown fields.
func Load(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks structural consistency (protocol specs are validated at
// Run time, when they are parsed).
func (s *Spec) Validate() error {
	switch s.Model {
	case "fluid", "packet":
		if s.Link == nil {
			return fmt.Errorf("scenario %q: model %q needs a \"link\"", s.Name, s.Model)
		}
		if len(s.Links) > 0 {
			return fmt.Errorf("scenario %q: \"links\" is for the nettopo model", s.Name)
		}
	case "nettopo":
		if len(s.Links) == 0 {
			return fmt.Errorf("scenario %q: %s needs \"links\"", s.Name, s.Model)
		}
		if s.Link != nil {
			return fmt.Errorf("scenario %q: use \"links\" (not \"link\") for %s", s.Name, s.Model)
		}
	default:
		return fmt.Errorf("scenario %q: unknown model %q", s.Name, s.Model)
	}
	if !(s.TailFrac >= 0 && s.TailFrac < 1) {
		return fmt.Errorf("scenario %q: tail_frac %v outside [0, 1)", s.Name, s.TailFrac)
	}
	topo := s.Model == "nettopo"
	if len(s.Flows) == 0 {
		return fmt.Errorf("scenario %q: at least one flow required", s.Name)
	}
	for i, f := range s.Flows {
		if f.Protocol == "" {
			return fmt.Errorf("scenario %q: flow %d has no protocol", s.Name, i)
		}
		if topo && len(f.Path) == 0 {
			return fmt.Errorf("scenario %q: flow %d needs a path", s.Name, i)
		}
		if !topo && len(f.Path) > 0 {
			return fmt.Errorf("scenario %q: flow %d: \"path\" is for nettopo", s.Name, i)
		}
		if !topo && f.ExtraRTTms != 0 {
			return fmt.Errorf("scenario %q: flow %d: \"extra_rtt_ms\" is for nettopo", s.Name, i)
		}
		if s.Model == "packet" {
			if err := f.packetErr(); err != nil {
				return fmt.Errorf("scenario %q: flow %d: %w", s.Name, i, err)
			}
		}
	}
	if topo {
		// Dry-build the network with placeholder protocols so topology
		// errors — cycles, discontiguous or duplicate-hop paths, half-named
		// links — surface at load/lint time rather than mid-run.
		links := s.topoLinks()
		flows := make([]nettopo.FlowSpec, len(s.Flows))
		placeholder := protocol.Reno()
		for i, f := range s.Flows {
			flows[i] = nettopo.FlowSpec{
				Proto:    placeholder,
				Init:     1,
				Path:     f.Path,
				ExtraRTT: f.ExtraRTTms / 1000,
			}
		}
		if _, err := nettopo.New(links, flows); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}
	return nil
}

// packetErr rejects the flow values packetsim refuses to run, so a spec
// that validates (and lints) also starts.
func (f Flow) packetErr() error {
	switch {
	case !(f.Start >= 0) || math.IsInf(f.Start, 1):
		return fmt.Errorf("\"start\" must be non-negative and finite, got %v", f.Start)
	case !(f.ExtraDelayMs >= 0) || math.IsInf(f.ExtraDelayMs, 1):
		return fmt.Errorf("\"extra_delay_ms\" must be non-negative and finite, got %v", f.ExtraDelayMs)
	case math.IsNaN(f.Init) || math.IsInf(f.Init, 0):
		return fmt.Errorf("\"init\" must be finite, got %v", f.Init)
	}
	return nil
}

// packetFlow is f as packetsim runs it with protocol p.
func (f Flow) packetFlow(p protocol.Protocol) packetsim.Flow {
	init := f.Init
	if init == 0 {
		init = 1
	}
	return packetsim.Flow{Proto: p, Init: init, Start: f.Start, ExtraDelay: f.ExtraDelayMs / 1000}
}

// topoLinks converts the spec's links to nettopo units.
func (s *Spec) topoLinks() []nettopo.LinkSpec {
	links := make([]nettopo.LinkSpec, len(s.Links))
	for i, l := range s.Links {
		links[i] = nettopo.LinkSpec{
			Bandwidth: fluid.MbpsToMSSps(l.Mbps),
			PropDelay: l.RTTms / 1000 / 2,
			Buffer:    l.BufferMSS,
			Src:       l.Src,
			Dst:       l.Dst,
		}
	}
	return links
}

func (s *Spec) steps() int {
	if s.Steps == 0 {
		return 4000
	}
	return s.Steps
}

func (s *Spec) duration() float64 {
	if s.Duration == 0 {
		return 60
	}
	return s.Duration
}

func (s *Spec) tail() float64 {
	if s.TailFrac == 0 {
		return 0.75
	}
	return s.TailFrac
}

// FlowOutcome is one flow's summary.
type FlowOutcome struct {
	Protocol  string  `json:"protocol"`
	AvgWindow float64 `json:"avg_window"`          // MSS, tail mean
	Goodput   float64 `json:"goodput_mss_per_sec"` // tail mean
	Share     float64 `json:"share"`               // goodput fraction of all flows
}

// Outcome is the uniform result of running any scenario.
type Outcome struct {
	Name  string        `json:"name"`
	Model string        `json:"model"`
	Flows []FlowOutcome `json:"flows"`
	// Summary carries model-appropriate link metrics: efficiency, tail
	// loss, the Jain index over goodputs, latency inflation and, for
	// network runs with a shared link, per-link fairness.
	Summary map[string]float64 `json:"summary"`
}

// Run executes the scenario.
func (s *Spec) Run() (*Outcome, error) {
	return s.RunContext(context.Background())
}

// RunContext executes the scenario through the engine, honoring ctx
// cancellation (the engine polls it between simulation steps).
func (s *Spec) RunContext(ctx context.Context) (*Outcome, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	switch s.Model {
	case "fluid":
		return s.runFluid(ctx)
	case "packet":
		return s.runPacket(ctx)
	default:
		return s.runTopo(ctx)
	}
}

func (s *Spec) parseProtocols() ([]protocol.Protocol, error) {
	out := make([]protocol.Protocol, len(s.Flows))
	for i, f := range s.Flows {
		p, err := protocol.Parse(f.Protocol)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: flow %d: %w", s.Name, i, err)
		}
		out[i] = p
	}
	return out, nil
}

func (s *Spec) runFluid(ctx context.Context) (*Outcome, error) {
	protos, err := s.parseProtocols()
	if err != nil {
		return nil, err
	}
	cfg := fluid.Config{
		Bandwidth: fluid.MbpsToMSSps(s.Link.Mbps),
		PropDelay: s.Link.RTTms / 1000 / 2,
		Buffer:    s.Link.BufferMSS,
		Infinite:  s.Link.Infinite,
		Seed:      s.Seed,
	}
	if s.Link.RandomLoss > 0 {
		cfg.Loss = fluid.NewConstantLoss(s.Link.RandomLoss)
	}
	senders := make([]fluid.Sender, len(s.Flows))
	for i, f := range s.Flows {
		init := f.Init
		if init == 0 {
			init = 1
		}
		senders[i] = fluid.Sender{
			Proto:  protos[i],
			Init:   init,
			Period: f.Period,
			Phase:  f.Phase,
		}
	}
	// Only tail summaries are reported, so the run streams through an
	// observer instead of materializing a trace.
	tail := s.tail()
	sub := &engine.FluidSpec{Cfg: cfg, Senders: senders, Steps: s.steps()}
	st := metrics.NewStream(sub.Meta(), tail)
	if _, err := engine.Run(ctx, engine.Spec{Substrate: sub, Observers: []engine.Observer{st}}); err != nil {
		return nil, err
	}

	sum := st.Summary()
	out := &Outcome{Name: s.Name, Model: s.Model, Summary: map[string]float64{}}
	var goodputs []float64
	for i := range s.Flows {
		g := sum.AvgGoodputs[i]
		goodputs = append(goodputs, g)
		out.Flows = append(out.Flows, FlowOutcome{
			Protocol:  protos[i].Name(),
			AvgWindow: sum.AvgWindows[i],
			Goodput:   g,
		})
	}
	fillShares(out.Flows, goodputs)
	out.Summary["efficiency"] = sum.Efficiency
	out.Summary["tail_loss"] = sum.LossAvoidance
	out.Summary["jain_goodput"] = stats.JainIndex(goodputs)
	out.Summary["latency_inflation"] = sum.LatencyAvoidance
	return out, nil
}

func (s *Spec) runPacket(ctx context.Context) (*Outcome, error) {
	protos, err := s.parseProtocols()
	if err != nil {
		return nil, err
	}
	cfg := packetsim.Config{
		Bandwidth:  fluid.MbpsToMSSps(s.Link.Mbps),
		PropDelay:  s.Link.RTTms / 1000 / 2,
		Buffer:     int(s.Link.BufferMSS),
		RandomLoss: s.Link.RandomLoss,
		Seed:       s.Seed,
	}
	if s.Link.RED != nil {
		cfg.Queue = packetsim.NewRED(s.Link.RED.MinThresh, s.Link.RED.MaxThresh, s.Link.RED.MaxP, cfg.Buffer)
	}
	flows := make([]packetsim.Flow, len(s.Flows))
	for i, f := range s.Flows {
		flows[i] = f.packetFlow(protos[i])
	}
	tail := s.tail()
	sub := &engine.PacketSpec{Cfg: cfg, Flows: flows, Duration: s.duration()}
	st := metrics.NewStream(sub.Meta(), tail)
	eres, err := engine.Run(ctx, engine.Spec{Substrate: sub, Observers: []engine.Observer{st}})
	if err != nil {
		return nil, err
	}
	res := eres.Packet
	avgWindows := st.Summary().AvgWindows

	out := &Outcome{Name: s.Name, Model: s.Model, Summary: map[string]float64{}}
	var goodputs []float64
	total := 0.0
	for i := range s.Flows {
		g := res.Throughput(i, tail)
		goodputs = append(goodputs, g)
		total += g
		out.Flows = append(out.Flows, FlowOutcome{
			Protocol:  protos[i].Name(),
			AvgWindow: avgWindows[i],
			Goodput:   g,
		})
	}
	fillShares(out.Flows, goodputs)
	out.Summary["efficiency"] = total / cfg.Bandwidth
	out.Summary["tail_loss"] = stats.Mean(st.TailLoss())
	out.Summary["jain_goodput"] = stats.JainIndex(goodputs)
	base := 2 * cfg.PropDelay
	out.Summary["latency_inflation"] = math.Max(0, stats.Mean(st.TailRTT())/base-1)
	return out, nil
}

func (s *Spec) runTopo(ctx context.Context) (*Outcome, error) {
	protos, err := s.parseProtocols()
	if err != nil {
		return nil, err
	}
	links := s.topoLinks()
	flows := make([]nettopo.FlowSpec, len(s.Flows))
	for i, f := range s.Flows {
		init := f.Init
		if init == 0 {
			init = 1
		}
		flows[i] = nettopo.FlowSpec{
			Proto:    protos[i],
			Init:     init,
			Path:     f.Path,
			ExtraRTT: f.ExtraRTTms / 1000,
		}
	}
	// All summaries come from the run's frozen TopoSummary, which
	// resolves through the session cache: a warm persistent store serves
	// the whole scenario without simulating.
	tail := s.tail()
	st, err := metrics.RunTopo(ctx, metrics.TopoRunSpec{
		Links:      links,
		Flows:      flows,
		Steps:      s.steps(),
		TailFrac:   tail,
		Stochastic: s.StochasticLoss,
		Seed:       s.Seed,
		Session:    metrics.NewSession(),
	})
	if err != nil {
		return nil, err
	}

	out := &Outcome{Name: s.Name, Model: s.Model, Summary: map[string]float64{}}
	var goodputs []float64
	for i := range s.Flows {
		g := st.AvgGoodputs[i]
		goodputs = append(goodputs, g)
		out.Flows = append(out.Flows, FlowOutcome{
			Protocol:  protos[i].Name(),
			AvgWindow: st.AvgWindows[i],
			Goodput:   g,
		})
	}
	fillShares(out.Flows, goodputs)
	util := 0.0
	for l := range links {
		util += st.LinkUtil[l]
	}
	out.Summary["efficiency"] = util / float64(len(links))
	out.Summary["jain_goodput"] = stats.JainIndex(goodputs)
	worstLoss := 0.0
	for _, m := range st.LinkMeanLoss {
		if m > worstLoss {
			worstLoss = m
		}
	}
	out.Summary["tail_loss"] = worstLoss
	out.Summary["latency_inflation"] = st.LatencyAvoidance()
	if f := st.Fairness(); !math.IsNaN(f) {
		out.Summary["fairness"] = f
	}
	return out, nil
}

func fillShares(flows []FlowOutcome, goodputs []float64) {
	total := stats.Sum(goodputs)
	if total <= 0 {
		return
	}
	for i := range flows {
		flows[i].Share = goodputs[i] / total
	}
}

// Render formats the outcome as an aligned text table.
func (o *Outcome) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "scenario %q (%s model)\n", o.Name, o.Model)
	w := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "flow\tprotocol\tavg window\tgoodput (MSS/s)\tshare")
	for i, f := range o.Flows {
		fmt.Fprintf(w, "%d\t%s\t%.2f\t%.1f\t%.1f%%\n", i, f.Protocol, f.AvgWindow, f.Goodput, 100*f.Share)
	}
	w.Flush()
	keys := []string{"efficiency", "tail_loss", "jain_goodput", "fairness", "latency_inflation"}
	for _, k := range keys {
		if v, ok := o.Summary[k]; ok {
			fmt.Fprintf(&sb, "%s=%.4f ", k, v)
		}
	}
	sb.WriteString("\n")
	return sb.String()
}

// JSON marshals the outcome, indented.
func (o *Outcome) JSON() ([]byte, error) {
	return json.MarshalIndent(o, "", "  ")
}
