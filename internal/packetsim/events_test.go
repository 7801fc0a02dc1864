package packetsim

import (
	"sort"
	"testing"
	"unsafe"

	"repro/internal/chaos"
	"repro/internal/rand64"
)

// differential pushes every event into both an eventQueue and the
// reference eventHeap and checks that the two pop the same sequence.
type differential struct {
	t   testing.TB
	q   eventQueue
	ref eventHeap
	id  uint64
	now float64
}

func newDifferential(t testing.TB, flows []Flow) *differential {
	return &differential{t: t, q: newEventQueue(flows)}
}

// pop removes and returns the least pending event; ok is false when
// nothing is pending.
func (q *eventQueue) pop() (event, bool) {
	i := q.least()
	if q.heads[i] == idle {
		return event{}, false
	}
	return q.take(i), true
}

func (d *differential) push(at float64, kind evKind, sender int, sentAt float64) {
	d.t.Helper()
	src := d.q.push(at, kind, sender, sentAt)
	d.id++
	e := event{eventKey: eventKey{at: at, id: d.id}, sentAt: sentAt, sender: int32(sender), kind: kind}
	if h := d.q.heads[src]; h != e.eventKey && !h.before(&e.eventKey) {
		d.t.Fatalf("push of %+v returned source %d with head %+v after it", e, src, h)
	}
	d.ref.push(e)
}

// stamp takes an id without queuing an event, as the simulator does
// for a departure it holds outside the queue.
func (d *differential) stamp() {
	d.q.stamp(d.now)
	d.id++
}

// pop pops both queues, failing on any difference; ok is false when both
// are empty.
func (d *differential) pop() (event, bool) {
	d.t.Helper()
	got, ok := d.q.pop()
	if ok != (len(d.ref) > 0) {
		d.t.Fatalf("queue pop ok=%v with %d reference events pending", ok, len(d.ref))
	}
	if !ok {
		return event{}, false
	}
	if want := d.ref.pop(); got != want {
		d.t.Fatalf("queue popped %+v, reference heap %+v", got, want)
	}
	d.now = got.at
	return got, true
}

// runQueueScript decodes data into a differential run. The first byte
// picks 1–5 senders, the second gives each sender one of three extra
// delays as a base-3 digit, so senders often share a delay class; then
// each three-byte op pops, takes an id for a departure held outside the
// queue, or pushes one event for one sender. Queue arrivals are
// scheduled at the sender's extra delay, as in the simulator. Unless
// perturbed, feedback is scheduled at 0.25 plus the extra delay,
// constant per class; perturbed feedback delays vary per push (out of
// order, as under chaos RTT offsets). Timers double up freely. Coarse
// delays make time ties common. It returns the number of spilled pushes.
func runQueueScript(t testing.TB, data []byte, perturbed bool) int {
	t.Helper()
	if len(data) < 2 {
		return 0
	}
	flows := make([]Flow, 1+int(data[0])%5)
	for i, c := 0, int(data[1]); i < len(flows); i, c = i+1, c/3 {
		flows[i].ExtraDelay = 0.125 * float64(c%3)
	}
	data = data[2:]
	d := newDifferential(t, flows)
	for ; len(data) >= 3; data = data[3:] {
		op, s, b := data[0]%8, int(data[1])%len(flows), data[2]
		extra := flows[s].ExtraDelay
		feedback := 0.25 + extra
		if perturbed {
			feedback = float64(b%16) / 8
		}
		var kind evKind
		var delay float64
		switch op {
		case 0, 1:
			d.pop()
			continue
		case 2:
			kind, delay = evQueueArrive, extra
		case 3:
			kind, delay = evAck, feedback
		case 4:
			kind, delay = evLossNotify, feedback
		case 5:
			kind, delay = evMonitorEnd, float64(b%16)/4
			if b&0x80 != 0 {
				kind = evFlowStart
			}
		case 6:
			d.stamp()
			continue
		case 7:
			kind, delay, s = evTick, 0.5, -1
		}
		d.push(d.now+delay, kind, s, d.now)
	}
	for {
		if _, ok := d.pop(); !ok {
			return d.q.spilled
		}
	}
}

// randomScript returns a seeded op script of the given length.
func randomScript(seed uint64, ops int) []byte {
	rng := rand64.New(seed)
	data := make([]byte, 2+3*ops)
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	return data
}

// TestEventQueueMatchesHeap pops seeded random event streams through
// the queue and the reference heap. Streams that keep the simulator's
// invariants never spill; perturbed ones do, and still pop the heap's
// sequence.
func TestEventQueueMatchesHeap(t *testing.T) {
	spilled := 0
	for seed := uint64(1); seed <= 200; seed++ {
		data := randomScript(seed, 400)
		if got := runQueueScript(t, data, false); got != 0 {
			t.Fatalf("seed %d: an invariant-keeping stream spilled %d pushes", seed, got)
		}
		spilled += runQueueScript(t, data, true)
	}
	if spilled == 0 {
		t.Fatal("no perturbed stream took the spill path")
	}
}

// TestEventIs32Bytes pins the event layout: rings and the timer heap
// move events by value, and a padded field order costs a quarter more.
func TestEventIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 32 {
		t.Fatalf("event is %d bytes, want 32", got)
	}
}

// FuzzEventQueue checks arbitrary op scripts against the reference heap.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{}, false)
	f.Add(randomScript(1, 64), false)
	f.Add(randomScript(2, 64), true)
	// Four senders in classes 0.125, 0, 0.125, 0.25 (base-3 digits 1, 0,
	// 1, 2): two share a FIFO pair.
	for seed, perturbed := range []bool{false, true} {
		data := randomScript(uint64(3+seed), 64)
		data[0], data[1] = 3, 1+0*3+1*9+2*27
		f.Add(data, perturbed)
	}
	f.Fuzz(func(t *testing.T, data []byte, perturbed bool) {
		runQueueScript(t, data, perturbed)
	})
}

// pushedSince returns the pending events with ids above id, in id order.
func (q *eventQueue) pushedSince(id uint64) []event {
	var out []event
	for i := range q.fifos {
		f := &q.fifos[i]
		for k := 0; k < f.n; k++ {
			if e := f.buf[(f.head+k)&(len(f.buf)-1)]; e.id > id {
				out = append(out, e)
			}
		}
	}
	for _, e := range q.timers {
		if e.id > id {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// evDepartRef marks a departure in the reference heap. The simulator
// holds its pending departure outside the event queue, so the tests
// mirror it from sim.dep.
const evDepartRef = evTick + 1

// popCounts is what popsLikeHeap saw of a run.
type popCounts struct {
	events, inline, departures, spilled int
}

// popsLikeHeap drives a run step by step, feeding every event it
// schedules and every departure it holds to the reference heap as well,
// and checks that each departure it completes, each event it handles and
// each arrival it handles inline is the one the heap pops.
func popsLikeHeap(t testing.TB, name string, cfg Config, flows []Flow, duration float64) popCounts {
	t.Helper()
	s, err := newSim(cfg, flows, duration, nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var ref eventHeap
	var mirrored, mirroredDep uint64
	mirror := func() {
		for _, e := range s.events.pushedSince(mirrored) {
			ref.push(e)
			mirrored = e.id
		}
		if s.queue.n > 0 && s.dep.id > mirroredDep {
			ref.push(event{eventKey: s.dep, sender: -1, kind: evDepartRef})
			mirroredDep = s.dep.id
		}
	}
	mirror()
	var n popCounts
	for {
		var want event
		ok := len(ref) > 0
		if ok {
			want = ref.pop()
		}
		best := s.events.least()
		if s.departsFirst(best) {
			if !ok || want.kind != evDepartRef || want.eventKey != s.dep {
				t.Fatalf("%s: step %d: departure %+v pending first, heap %+v (%v)", name, n.events+n.departures, s.dep, want, ok)
			}
			if s.dep.at > duration {
				break
			}
			s.depart()
			n.departures++
			mirror()
			continue
		}
		var got event
		ok2 := s.events.heads[best] != idle
		if ok2 {
			got = s.events.take(best)
		}
		if ok != ok2 || got != want {
			t.Fatalf("%s: step %d: queue popped %+v (%v), heap %+v (%v)", name, n.events+n.departures, got, ok2, want, ok)
		}
		if !ok || got.at > duration {
			break
		}
		dep, serving, taken := s.dep, s.queue.n > 0, s.events.nextID
		s.handle(got)
		n.events++
		// A handler that sends may handle the arrivals inline, after
		// completing the departure due at the same instant: that
		// departure must be the next to pop. Every id the handler took
		// for neither a queued event nor the pending departure went to
		// an inline arrival, which must pop next in turn.
		if serving && (s.queue.n == 0 || s.dep != dep) {
			if want := ref.pop(); want.kind != evDepartRef || want.eventKey != dep {
				t.Fatalf("%s: departure %+v completed inline, heap pops %+v first", name, dep, want)
			}
			n.departures++
		}
		queued := map[uint64]bool{s.dep.id: s.queue.n > 0}
		for _, e := range s.events.pushedSince(taken) {
			queued[e.id] = true
		}
		mirror()
		for id := taken + 1; id <= s.events.nextID; id++ {
			if queued[id] {
				continue
			}
			arrival := event{eventKey: eventKey{at: got.at, id: id}, sentAt: got.at, sender: got.sender, kind: evQueueArrive}
			ref.push(arrival)
			if want := ref.pop(); want != arrival {
				t.Fatalf("%s: arrival %+v handled inline, heap pops %+v first", name, arrival, want)
			}
			n.inline++
		}
	}
	n.spilled = s.events.spilled
	return n
}

// TestRunsPopLikeHeap checks the pinned runs' pop order against the
// reference heap. The unperturbed runs, shared-extra-delay among them,
// never spill; the RTT-jitter and RTT-step-down runs do.
func TestRunsPopLikeHeap(t *testing.T) {
	for _, c := range goldenCases() {
		cfg, flows := c.setup(t)
		n := popsLikeHeap(t, c.name, cfg, flows, goldenDuration)
		switch {
		case cfg.Perturb == nil && n.spilled != 0:
			t.Errorf("%s: unperturbed run spilled %d pushes", c.name, n.spilled)
		case (c.name == "rtt-jitter" || c.name == "base-rtt-step-down") && n.spilled == 0:
			t.Errorf("%s: run never took the spill path", c.name)
		default:
			t.Logf("%s: %d events, %d arrivals handled inline, %d departures, %d spilled", c.name, n.events, n.inline, n.departures, n.spilled)
		}
	}
}

// FuzzRunsPopLikeHeap checks the pop order of decoded runs (see
// identityConfig) against the reference heap. The last input byte picks
// no perturbation, an RTT jitter, a base-RTT step up then down, or a
// link flap with a capacity dip and the churn of flow 0.
func FuzzRunsPopLikeHeap(f *testing.F) {
	for seed := uint64(1); seed <= 16; seed++ {
		f.Add(randomScript(seed, 10))
	}
	schedules := [][]chaos.Event{
		nil,
		{{Kind: chaos.KindRTTJitter, At: 2, Duration: 20, Amplitude: 0.004}},
		{{Kind: chaos.KindBaseRTTStep, At: 4, Delta: 0.01}, {Kind: chaos.KindBaseRTTStep, At: 10, Delta: -0.015}},
		{
			{Kind: chaos.KindLinkFlap, At: 3, Duration: 2},
			{Kind: chaos.KindCapacityScale, At: 8, Duration: 5, Scale: 0.5},
			{Kind: chaos.KindFlowDepart, At: 4, Flow: 0},
			{Kind: chaos.KindFlowArrive, At: 9, Flow: 0},
		},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, flows, dur := identityConfig(data)
		if len(data) > 0 {
			if events := schedules[int(data[len(data)-1])%len(schedules)]; events != nil {
				inj, err := (&chaos.Schedule{Events: events}).Compile(11, len(flows), 1)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Perturb = inj
			}
		}
		n := popsLikeHeap(t, "fuzz", cfg, flows, dur)
		if cfg.Perturb == nil && n.spilled != 0 {
			t.Errorf("%+v: unperturbed run spilled %d pushes", cfg, n.spilled)
		}
	})
}

// TestNoDepartureEvents: departures are completed between events, not
// handled as events, so a run with few drops handles at most about two
// events per delivered packet, its queue arrival and its ACK, where a
// departure event made it three (3.09 on the droptail run). Arrivals
// handled inline bring it near one (1.09 on droptail, 1.01 on the
// 100 Mbps link).
func TestNoDepartureEvents(t *testing.T) {
	for _, c := range goldenCases() {
		if c.name != "droptail" && c.name != "emulab-100-staggered" {
			continue
		}
		cfg, flows := c.setup(t)
		s, err := newSim(cfg, flows, goldenDuration, nil)
		if err != nil {
			t.Fatal(err)
		}
		handled := 0
		for {
			e, ok := s.next(goldenDuration)
			if !ok {
				break
			}
			s.handle(e)
			handled++
		}
		var delivered int64
		for _, d := range s.result.Delivered {
			delivered += d
		}
		perPacket := float64(handled) / float64(delivered)
		t.Logf("%s: %d events handled, %d packets delivered: %.3f per packet", c.name, handled, delivered, perPacket)
		if perPacket > 2.15 {
			t.Errorf("%s: %.3f events handled per delivered packet, want about 2", c.name, perPacket)
		}
	}
}
