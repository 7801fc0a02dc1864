// Package packetsim is an event-driven, packet-level simulator of a single
// bottleneck link with FIFO (droptail) queuing. It stands in for the
// Emulab testbed of Section 5.1 of "An Axiomatic Approach to Congestion
// Control": the paper validated Table 1's trends and Table 2's
// TCP-friendliness numbers on Emulab with Linux TCP variants; this
// simulator reproduces those experiments with the same protocols
// implemented per the paper's §2 formalization.
//
// Unlike internal/fluid — the paper's synchronized, RTT-quantized model in
// which the axioms are *defined* — packetsim models individual 1-MSS
// packets: serialization at the bottleneck rate, propagation delay in each
// direction, a finite droptail buffer, per-packet ACKs, and per-sender
// monitor intervals (roughly one RTT, as in PCC) that aggregate the
// observed loss rate and average RTT into the protocol feedback of §2.
// Senders are therefore *unsynchronized*: they see different loss rates at
// different times, packets interleave in the queue, and feedback is noisy
// — the realism gap the paper's Emulab experiments were designed to cross.
package packetsim

import (
	"context"
	"fmt"
	"math"

	"repro/internal/protocol"
	"repro/internal/rand64"
)

// Config describes the emulated bottleneck.
type Config struct {
	Bandwidth float64 // bottleneck rate in MSS/s (> 0)
	PropDelay float64 // one-way propagation delay Θ in seconds (> 0)
	Buffer    int     // droptail buffer in packets (≥ 0), excluding the one in service

	// MaxWindow caps every congestion window (default 1e9).
	MaxWindow float64

	// RandomLoss drops each arriving packet with this probability before
	// it reaches the queue, modeling non-congestion loss the sender
	// cannot distinguish from drops (the PCC motivation scenario).
	RandomLoss float64

	// Tick is the sampling interval of the per-tick samples and the
	// minimum monitor-interval length (default 2Θ).
	Tick float64

	// Seed drives the random-loss process deterministically.
	Seed uint64

	// Queue selects the queuing discipline at the bottleneck. nil means
	// the paper's FIFO droptail with the Buffer field as capacity; set a
	// RED value to explore AQM interactions (a §6 extension).
	Queue Discipline

	// Perturb, when non-nil, applies a deterministic fault-injection
	// schedule (typically a compiled chaos.Schedule) while the simulator
	// runs. Schedule time is mapped onto the continuous clock as steps of
	// one Tick each. The nil path is bit-identical to the unperturbed
	// simulator.
	Perturb Perturber

	// DisableRecovery turns off the one-reduction-per-loss-event rule.
	// By default, after a monitor interval in which the protocol reduced
	// its window in response to loss, losses detected during the next
	// interval are not attributed (they belong to the same congested
	// window, as in TCP's fast recovery). Without this rule a single
	// queue-overflow episode spanning several short-RTT monitor
	// intervals triggers several multiplicative decreases, which
	// penalizes short-RTT flows in a way real TCP does not. Disable only
	// for ablation studies.
	DisableRecovery bool
}

func (c Config) withDefaults() Config {
	if c.MaxWindow == 0 {
		c.MaxWindow = 1e9
	}
	if c.Tick == 0 {
		c.Tick = 2 * c.PropDelay
	}
	if c.Queue == nil {
		c.Queue = Droptail{Buffer: c.Buffer}
	}
	return c
}

// validate rejects a config the simulator cannot run. The comparisons are
// written so that NaN fails them.
func (c Config) validate() error {
	if !(c.Bandwidth > 0) || math.IsInf(c.Bandwidth, 1) {
		return fmt.Errorf("packetsim: bandwidth must be positive and finite, got %v", c.Bandwidth)
	}
	if !(c.PropDelay > 0) || math.IsInf(c.PropDelay, 1) {
		return fmt.Errorf("packetsim: propagation delay must be positive and finite, got %v", c.PropDelay)
	}
	if c.Buffer < 0 {
		return fmt.Errorf("packetsim: buffer must be non-negative, got %d", c.Buffer)
	}
	if !(c.RandomLoss >= 0 && c.RandomLoss < 1) {
		return fmt.Errorf("packetsim: random loss must be in [0,1), got %v", c.RandomLoss)
	}
	if !(c.Tick >= 0) || math.IsInf(c.Tick, 1) {
		return fmt.Errorf("packetsim: tick must be non-negative and finite, got %v", c.Tick)
	}
	return nil
}

// Capacity returns the bandwidth-delay product B·2Θ in MSS, matching the
// fluid model's C.
func (c Config) Capacity() float64 { return c.Bandwidth * 2 * c.PropDelay }

// Perturber is the fault-injection hook the simulator consults — a
// structural copy of the chaos.Injector method set, so this package
// stays free of chaos imports. The single bottleneck is link 0; steps
// are Tick-sized slices of the simulation clock, queried in
// non-decreasing order.
type Perturber interface {
	CapacityScale(step, link int) float64
	ExtraLoss(step, flow int) float64
	RTTOffset(step, link int) float64
	FlowActive(step, flow int) bool
}

// minPerturbedDelay floors perturbed propagation delays and service
// times so events never schedule into the past.
const minPerturbedDelay = 1e-9

// SampleTick returns the effective sampling interval (Tick, or its
// 2Θ default), so callers can size tick-count-dependent buffers before a
// run.
func (c Config) SampleTick() float64 {
	if c.Tick == 0 {
		return 2 * c.PropDelay
	}
	return c.Tick
}

// Flow is one sender: a protocol, an initial window, and a start time
// (staggered starts model connections joining an occupied link).
type Flow struct {
	Proto protocol.Protocol
	Init  float64 // initial window in packets (default 1)
	Start float64 // seconds after simulation start (default 0)

	// ExtraDelay adds per-flow one-way propagation delay on top of the
	// link's PropDelay, modeling senders at different distances from the
	// bottleneck. RTT-unfairness of loss-based protocols (long-RTT flows
	// ramp slower and lose more ground per loss epoch) emerges from this
	// knob; see the rttfairness example.
	ExtraDelay float64
}

// Result is the outcome of a packet-level run. A packet counts as
// delivered when it departs the bottleneck, at the end of its service.
type Result struct {
	// Delivered is, per sender, the packets that departed by the end of
	// the run (departure time ≤ Duration).
	Delivered []int64
	// DeliveredSeries is, per sender, the packets that departed during
	// each tick; the last entry also takes the departures after the last
	// tick, so each series sums to Delivered.
	DeliveredSeries [][]float64
	// Duration is the simulated time span in seconds.
	Duration float64
	// TickLen is the sampling interval used, in seconds.
	TickLen float64
}

// TickSample is one per-tick sample streamed to a RunObserved callback:
// each sender's current window, the link RTT implied by the
// instantaneous queue depth (2Θ + q/B), the link-level loss fraction
// among packets arriving that tick, and the packets delivered per sender
// during the tick. Windows and Delivered alias internal buffers and are
// valid only during the callback.
type TickSample struct {
	Index     int       // tick index, 0-based
	Windows   []float64 // per-sender congestion windows
	RTT       float64   // link RTT implied by the queue depth (2Θ + q/B)
	Loss      float64   // loss fraction among packets arriving this tick
	Delivered []float64 // packets delivered per sender this tick
}

// Throughput returns sender i's delivered throughput in MSS/s over the
// tail of the run from tick entry int(tailFrac·ticks) on (at least the
// last entry). Entry j counts the deliveries in (j·TickLen,
// (j+1)·TickLen], and the last entry also those after the last tick
// (flushPartialTick), so the tail spans (start·TickLen, Duration].
func (r *Result) Throughput(i int, tailFrac float64) float64 {
	series := r.DeliveredSeries[i]
	if len(series) == 0 {
		return 0
	}
	start := min(max(int(tailFrac*float64(len(series))), 0), len(series)-1)
	total := 0.0
	for _, v := range series[start:] {
		total += v
	}
	return total / (r.Duration - float64(start)*r.TickLen)
}

type queuedPacket struct {
	sender int
	sentAt float64
}

type senderState struct {
	proto    protocol.Protocol
	window   float64
	inflight int
	started  bool

	// Monitor-interval accumulators.
	miStep  int
	acked   int64
	lost    int64
	rttSum  float64
	rttCnt  int64
	lastRTT float64

	// extra is the flow's one-way ExtraDelay in seconds, and ret the
	// unperturbed return delay 2Θ + extra.
	extra, ret float64

	// inRecovery suppresses loss attribution for one monitor interval
	// after a loss-driven window reduction (see Config.DisableRecovery).
	inRecovery bool

	// churnOn is the flow's chaos churn state (Config.Perturb only).
	churnOn bool
}

// sim is the running simulation state.
type sim struct {
	cfg    Config
	flows  []Flow
	now    float64
	events eventQueue
	rng    *rand64.Source

	senders []senderState
	// queue holds the admitted packets that have not departed, in FIFO
	// order: the packet in service at its front, then the waiting ones.
	queue ring[queuedPacket]
	// dep is the key of the front packet's departure while queue is not
	// empty: its time is the Lindley recursion's max(arrival, previous
	// departure) + service time, fixed when service starts, and its id is
	// the one a departure event pushed at that moment would carry.
	dep eventKey
	// service is the unperturbed per-packet service time 1/B.
	service float64

	// Per-tick accumulators.
	tickArrivals  int64
	tickDrops     int64
	tickDelivered []float64

	// Streaming observation (RunObserved).
	obs           func(TickSample)
	tickIndex     int
	windowScratch []float64

	result *Result
}

// Run simulates the flows on the link for duration seconds and returns the
// recorded result.
func Run(cfg Config, flows []Flow, duration float64) (*Result, error) {
	return RunObserved(context.Background(), cfg, flows, duration, nil)
}

// RunObserved is Run with cooperative cancellation and per-tick streaming:
// when obs is non-nil it is called once per tick with that tick's
// sample, and the event loop aborts with ctx.Err() soon after ctx is
// done.
func RunObserved(ctx context.Context, cfg Config, flows []Flow, duration float64, obs func(TickSample)) (*Result, error) {
	s, err := newSim(cfg, flows, duration, obs)
	if err != nil {
		return nil, err
	}
	if err := s.run(ctx, duration); err != nil {
		return nil, err
	}
	return s.result, nil
}

// maxPresizedTicks caps the per-tick series sized up front; a longer run
// grows them as it goes.
const maxPresizedTicks = 1 << 20

// newSim validates the inputs and returns a simulation with every flow
// start and the first tick scheduled.
func newSim(cfg Config, flows []Flow, duration float64, obs func(TickSample)) (*sim, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(flows) == 0 {
		return nil, fmt.Errorf("packetsim: at least one flow required")
	}
	if !(duration > 0) || math.IsInf(duration, 1) {
		return nil, fmt.Errorf("packetsim: duration must be positive and finite, got %v", duration)
	}
	for i, f := range flows {
		if f.Proto == nil {
			return nil, fmt.Errorf("packetsim: flow %d has nil protocol", i)
		}
		// An infinite window would send 1e9 packets at once (MaxWindow),
		// an infinite delay or start would silently deliver nothing, and
		// a negative start would run the flow before the clock starts.
		if !(f.ExtraDelay >= 0) || math.IsInf(f.ExtraDelay, 1) {
			return nil, fmt.Errorf("packetsim: flow %d extra delay must be non-negative and finite, got %v", i, f.ExtraDelay)
		}
		if math.IsNaN(f.Start) {
			return nil, fmt.Errorf("packetsim: flow %d has a NaN start time", i)
		}
		if !(f.Start >= 0) || math.IsInf(f.Start, 1) {
			return nil, fmt.Errorf("packetsim: flow %d start time must be non-negative and finite, got %v", i, f.Start)
		}
		if math.IsNaN(f.Init) {
			return nil, fmt.Errorf("packetsim: flow %d has a NaN initial window", i)
		}
		if math.IsInf(f.Init, 0) {
			return nil, fmt.Errorf("packetsim: flow %d has an infinite initial window %v", i, f.Init)
		}
	}
	cfg = cfg.withDefaults()

	s := &sim{
		cfg:           cfg,
		flows:         flows,
		events:        newEventQueue(flows),
		rng:           rand64.New(cfg.Seed),
		service:       1 / cfg.Bandwidth,
		senders:       make([]senderState, len(flows)),
		tickDelivered: make([]float64, len(flows)),
		obs:           obs,
		windowScratch: make([]float64, len(flows)),
	}
	// The float bound keeps the conversion in range for any finite run.
	ticks := int(math.Min(duration/cfg.Tick, maxPresizedTicks)) + 1
	s.result = &Result{
		Delivered:       make([]int64, len(flows)),
		DeliveredSeries: make([][]float64, len(flows)),
		Duration:        duration,
		TickLen:         cfg.Tick,
	}
	for i := range s.result.DeliveredSeries {
		s.result.DeliveredSeries[i] = make([]float64, 0, ticks)
	}
	for i, f := range flows {
		init := f.Init
		if init == 0 {
			init = 1
		}
		s.senders[i] = senderState{
			proto:   f.Proto.Clone(),
			window:  protocol.Clamp(init, cfg.MaxWindow),
			lastRTT: 2 * (cfg.PropDelay + f.ExtraDelay),
			extra:   f.ExtraDelay,
			ret:     2*cfg.PropDelay + f.ExtraDelay,
		}
		if cfg.Perturb != nil {
			s.senders[i].churnOn = cfg.Perturb.FlowActive(0, i)
		}
		s.events.push(f.Start, evFlowStart, i, 0)
	}
	s.events.push(cfg.Tick, evTick, -1, 0)
	return s, nil
}

// run processes events up to duration.
func (s *sim) run(ctx context.Context, duration float64) error {
	defer s.flushPartialTick()
	var processed uint64
	for {
		e, ok := s.next(duration)
		if !ok {
			return nil
		}
		// A cancellation check per event would dominate the hot loop, so
		// poll the context every few thousand events instead.
		if processed++; processed&0xfff == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		s.handle(e)
	}
}

// next completes every departure that precedes the least pending event
// and pops that event; ok is false once the least of them is later than
// duration. A departure is ordered by its key like any event, so the
// run is the one a priority queue holding departure events would give.
func (s *sim) next(duration float64) (e event, ok bool) {
	best := s.events.least()
	for s.departsFirst(best) {
		if s.dep.at > duration {
			return event{}, false
		}
		// The ACK may be due before the previous least head.
		if src, heads := s.depart(), s.events.heads; heads[src].before(&heads[best]) {
			best = src
		}
	}
	if s.events.heads[best].at > duration {
		return event{}, false
	}
	return s.events.take(best), true
}

// departsFirst reports whether the pending departure precedes the head
// of event source best.
func (s *sim) departsFirst(best int) bool {
	return s.queue.n > 0 && s.dep.before(&s.events.heads[best])
}

// handle advances the clock to e and applies it.
func (s *sim) handle(e event) {
	s.now = e.at
	i := int(e.sender)
	switch e.kind {
	case evFlowStart:
		st := &s.senders[i]
		st.started = true
		s.events.push(s.now+s.miLen(i), evMonitorEnd, i, 0)
		s.trySend(i)
	case evQueueArrive:
		s.arrive(i, e.sentAt)
	case evAck:
		s.ack(i, e.sentAt)
	case evLossNotify:
		s.lossNotify(i)
	case evMonitorEnd:
		s.monitorEnd(i)
	case evTick:
		s.tick()
		s.events.push(s.now+s.cfg.Tick, evTick, -1, 0)
	}
}

// miLen returns sender i's current monitor-interval length: its last
// measured RTT, floored at the tick (≈ the base RTT), as in PCC's
// "roughly 1 RTT" intervals.
func (s *sim) miLen(i int) float64 {
	return math.Max(s.senders[i].lastRTT, s.cfg.Tick)
}

// step maps the continuous clock onto chaos schedule steps of one Tick.
func (s *sim) step() int { return int(s.now / s.cfg.Tick) }

// minServiceScale floors the chaos capacity multiplier for service-time
// purposes: a packet's departure time is fixed when its service
// *starts*, so a 1e-9 flap scale would strand the in-service packet far
// beyond the run's end and wedge the queue permanently. 1e-3 keeps a
// flapped link effectively dead (drops dominate) while letting service
// resume after the flap.
const minServiceScale = 1e-3

// serviceTime is the bottleneck's per-packet service time, honoring any
// chaos capacity scale.
func (s *sim) serviceTime() float64 {
	if p := s.cfg.Perturb; p != nil {
		sc := p.CapacityScale(s.step(), 0)
		if sc < minServiceScale {
			sc = minServiceScale
		}
		return math.Max(1/(s.cfg.Bandwidth*sc), minPerturbedDelay)
	}
	return s.service
}

// trySend emits packets until the sender's window is full.
func (s *sim) trySend(i int) {
	st := &s.senders[i]
	if !st.started {
		return
	}
	if p := s.cfg.Perturb; p != nil {
		on := p.FlowActive(s.step(), i)
		if on && !st.churnOn {
			// Re-arrival mid-run: restart from the initial window with
			// fresh monitor accumulators.
			init := s.flows[i].Init
			if init == 0 {
				init = 1
			}
			st.window = protocol.Clamp(init, s.cfg.MaxWindow)
			st.acked, st.lost, st.rttSum, st.rttCnt = 0, 0, 0, 0
			st.inRecovery = false
		}
		st.churnOn = on
		if !on {
			return // departed: in-flight packets drain, nothing new sent
		}
	}
	n := 0
	for limit := math.Floor(st.window + 1e-9); float64(st.inflight) < limit; n++ {
		st.inflight++
	}
	if n == 0 {
		return
	}
	if st.extra == 0 && s.events.heads[s.events.least()].at > s.now {
		// The packets reach the bottleneck now. trySend ends every
		// handler and no event is due now, so their arrival events would
		// pop next, in send order, after at most the departure due now,
		// which was scheduled before them. Complete that departure and
		// handle the arrivals here, under the ids those events would
		// take.
		s.events.nextID += uint64(n)
		if s.queue.n > 0 && s.dep.at == s.now {
			s.depart()
		}
		for range n {
			s.arrive(i, s.now)
		}
		return
	}
	for range n {
		// The packet reaches the bottleneck after the flow's own one-way
		// extra propagation delay.
		s.events.push(s.now+st.extra, evQueueArrive, i, s.now)
	}
}

// returnDelay is the time from the bottleneck back to the sender's
// feedback loop: forward propagation to the receiver plus the ACK's way
// back through both propagation legs.
func (s *sim) returnDelay(sender int) float64 {
	d := s.senders[sender].ret
	if p := s.cfg.Perturb; p != nil {
		d += p.RTTOffset(s.step(), 0)
		if d < minPerturbedDelay {
			d = minPerturbedDelay
		}
	}
	return d
}

// arrive handles a packet reaching the bottleneck queue.
func (s *sim) arrive(sender int, sentAt float64) {
	s.tickArrivals++
	// Non-congestion loss strikes before the queue: the configured rate
	// composed with any scheduled chaos loss, as independent drops.
	drop := s.cfg.RandomLoss
	if p := s.cfg.Perturb; p != nil {
		if r := p.ExtraLoss(s.step(), sender); r > 0 {
			drop = 1 - (1-drop)*(1-r)
		}
	}
	if drop > 0 && s.rng.Bernoulli(drop) {
		s.tickDrops++
		s.events.push(s.now+s.returnDelay(sender), evLossNotify, sender, sentAt)
		return
	}
	// The queuing discipline (droptail by default: Buffer waiting slots
	// plus one in service) decides admission.
	if !s.cfg.Queue.Admit(s.queue.n, s.rng) {
		s.tickDrops++
		s.events.push(s.now+s.returnDelay(sender), evLossNotify, sender, sentAt)
		return
	}
	s.queue.push(queuedPacket{sender: sender, sentAt: sentAt})
	if s.queue.n == 1 {
		// The link was idle: service starts now.
		s.dep = s.events.stamp(s.now + s.serviceTime())
	}
}

// depart completes service of the front packet at its departure time:
// the packet is delivered to the receiver after the forward propagation
// delay and its ACK returns after the reverse one, and the next waiting
// packet starts service. It returns the index of the event source the
// ACK joined.
func (s *sim) depart() int {
	s.now = s.dep.at
	pkt := s.queue.pop()
	s.result.Delivered[pkt.sender]++
	s.tickDelivered[pkt.sender]++
	src := s.events.push(s.now+s.returnDelay(pkt.sender), evAck, pkt.sender, pkt.sentAt)
	if s.queue.n > 0 {
		s.dep = s.events.stamp(s.now + s.serviceTime())
	}
	return src
}

// ack handles an ACK arriving back at the sender.
func (s *sim) ack(sender int, sentAt float64) {
	st := &s.senders[sender]
	st.inflight--
	st.acked++
	rtt := s.now - sentAt
	st.rttSum += rtt
	st.rttCnt++
	s.trySend(sender)
}

// lossNotify informs the sender that one of its packets was dropped
// (learned through SACK gaps roughly one RTT after the send).
func (s *sim) lossNotify(sender int) {
	st := &s.senders[sender]
	st.inflight--
	if st.inRecovery {
		// The drop belongs to the window that already triggered a
		// reduction; count it as handled (fast-recovery semantics).
		st.acked++
	} else {
		st.lost++
	}
	s.trySend(sender)
}

// monitorEnd closes sender i's monitor interval: the observed loss rate
// and mean RTT feed the §2 protocol update.
func (s *sim) monitorEnd(i int) {
	st := &s.senders[i]
	if p := s.cfg.Perturb; p != nil && !p.FlowActive(s.step(), i) {
		// Departed flow: discard the interval's observations and keep the
		// monitor clock running so a re-arrival picks updates back up.
		st.churnOn = false
		st.acked, st.lost, st.rttSum, st.rttCnt = 0, 0, 0, 0
		s.events.push(s.now+s.miLen(i), evMonitorEnd, i, 0)
		return
	}
	var lossRate float64
	if total := st.acked + st.lost; total > 0 {
		lossRate = float64(st.lost) / float64(total)
	}
	rtt := st.lastRTT
	if st.rttCnt > 0 {
		rtt = st.rttSum / float64(st.rttCnt)
		st.lastRTT = rtt
	}
	next := st.proto.Next(protocol.Feedback{
		Step:   st.miStep,
		Window: st.window,
		RTT:    rtt,
		Loss:   lossRate,
	})
	if math.IsNaN(next) {
		next = protocol.MinWindow
	}
	prev := st.window
	st.window = protocol.Clamp(next, s.cfg.MaxWindow)
	st.inRecovery = !s.cfg.DisableRecovery && lossRate > 0 && st.window < prev
	st.miStep++
	st.acked, st.lost, st.rttSum, st.rttCnt = 0, 0, 0, 0
	s.events.push(s.now+s.miLen(i), evMonitorEnd, i, 0)
	s.trySend(i)
}

// flushPartialTick folds deliveries from the trailing partial sampling
// interval into the last recorded tick so that DeliveredSeries sums to
// Delivered exactly.
func (s *sim) flushPartialTick() {
	for i, v := range s.tickDelivered {
		if v == 0 {
			continue
		}
		series := s.result.DeliveredSeries[i]
		if len(series) > 0 {
			series[len(series)-1] += v
		} else {
			s.result.DeliveredSeries[i] = append(series, v)
		}
		s.tickDelivered[i] = 0
	}
}

// tick samples the link state into the observer. The windows scratch
// buffer is shared across ticks: observers receive it under the
// valid-only-during-call contract.
func (s *sim) tick() {
	windows := s.windowScratch
	for i := range s.senders {
		windows[i] = s.senders[i].window
		if s.cfg.Perturb != nil && !s.senders[i].churnOn {
			windows[i] = 0
		}
	}
	rtt := 2*s.cfg.PropDelay + float64(s.queue.n)/s.cfg.Bandwidth
	if p := s.cfg.Perturb; p != nil {
		rtt += p.RTTOffset(s.step(), 0)
		if rtt < minPerturbedDelay {
			rtt = minPerturbedDelay
		}
	}
	var loss float64
	if s.tickArrivals > 0 {
		loss = float64(s.tickDrops) / float64(s.tickArrivals)
	}
	if s.obs != nil {
		s.obs(TickSample{Index: s.tickIndex, Windows: windows, RTT: rtt, Loss: loss, Delivered: s.tickDelivered})
	}
	s.tickIndex++
	for i := range s.tickDelivered {
		s.result.DeliveredSeries[i] = append(s.result.DeliveredSeries[i], s.tickDelivered[i])
		s.tickDelivered[i] = 0
	}
	s.tickArrivals, s.tickDrops = 0, 0
}
