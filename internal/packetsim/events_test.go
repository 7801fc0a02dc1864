package packetsim

import (
	"sort"
	"testing"
	"unsafe"

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

func (d *differential) push(at float64, kind evKind, sender int, sentAt float64) {
	d.q.push(at, kind, sender, sentAt)
	d.id++
	d.ref.push(event{eventKey: eventKey{at: at, id: d.id}, sentAt: sentAt, sender: int32(sender), kind: kind})
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
// each three-byte op pops, or pushes one event for one sender. Queue
// arrivals are scheduled at the sender's extra delay, as in the
// simulator. Unless perturbed, feedback is scheduled at 0.25 plus the
// extra delay, constant per class, and a departure push waits for the
// pending one to pop; perturbed feedback delays vary per push (out of
// order, as under chaos RTT offsets) and departures may double up.
// Timers double up freely. Coarse delays make time ties common. It
// returns the number of spilled pushes.
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
	departing := false
	popped := func() bool {
		e, ok := d.pop()
		if ok && e.kind == evQueueDepart {
			departing = false
		}
		return ok
	}
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
			popped()
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
			if departing && !perturbed {
				continue
			}
			kind, delay, s, departing = evQueueDepart, float64(b%4)/16, -1, true
		case 7:
			kind, delay, s = evTick, 0.5, -1
		}
		d.push(d.now+delay, kind, s, d.now)
	}
	for popped() {
	}
	return d.q.spilled
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
	if q.heads[len(q.fifos)] != idle && q.depart.id > id {
		out = append(out, q.depart)
	}
	for _, e := range q.timers {
		if e.id > id {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// TestRunsPopLikeHeap drives the simulator over the pinned runs, feeding
// every event it schedules to the reference heap as well, and checks
// that each event it handles is the one the heap pops. The unperturbed
// runs, shared-extra-delay among them, never spill; the RTT-jitter and
// RTT-step-down runs do.
func TestRunsPopLikeHeap(t *testing.T) {
	for _, c := range goldenCases() {
		cfg, flows := c.setup(t)
		s, err := newSim(cfg, flows, goldenDuration, nil)
		if err != nil {
			t.Fatal(err)
		}
		var ref eventHeap
		var mirrored uint64
		mirror := func() {
			for _, e := range s.events.pushedSince(mirrored) {
				ref.push(e)
				mirrored = e.id
			}
		}
		mirror()
		events := 0
		for {
			var want event
			ok := len(ref) > 0
			if ok {
				want = ref.pop()
			}
			got, ok2 := s.events.pop()
			if ok != ok2 || got != want {
				t.Fatalf("%s: event %d: queue popped %+v (%v), heap %+v (%v)", c.name, events, got, ok2, want, ok)
			}
			if !ok || got.at > goldenDuration {
				break
			}
			s.handle(got)
			mirror()
			events++
		}
		switch spilled := s.events.spilled; {
		case cfg.Perturb == nil && spilled != 0:
			t.Errorf("%s: unperturbed run spilled %d pushes", c.name, spilled)
		case (c.name == "rtt-jitter" || c.name == "base-rtt-step-down") && spilled == 0:
			t.Errorf("%s: run never took the spill path", c.name)
		default:
			t.Logf("%s: %d events, %d spilled", c.name, events, spilled)
		}
	}
}
