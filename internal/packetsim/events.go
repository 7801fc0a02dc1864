package packetsim

import "math"

// event kinds, ordered deterministically by (time, id).
type evKind uint8

const (
	evFlowStart evKind = iota
	evQueueArrive
	evQueueDepart
	evAck
	evLossNotify
	evMonitorEnd
	evTick
)

// event is 32 bytes: the key, then the payload with its narrow fields
// last, so a ring slot or heap swap moves half a cache line.
type event struct {
	eventKey
	sentAt float64 // send timestamp for RTT measurement (evAck)
	sender int32   // -1 for the departure and the tick
	kind   evKind
}

// eventKey is an event's place in the simulator's strict total order:
// time, then insertion id.
type eventKey struct {
	at float64
	id uint64 // insertion order; breaks time ties deterministically
}

func (k *eventKey) before(o *eventKey) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.id < o.id
}

// idle is the head key of an empty source: after every event, including
// one scheduled at +Inf, since ids never reach MaxUint64.
var idle = eventKey{at: math.Inf(1), id: math.MaxUint64}

// eventQueue is the simulator's pending-event set. ACK clocking gives
// most events a FIFO structure (see DESIGN.md §3.2): senders with equal
// ExtraDelay form a delay class, and each class schedules its packet
// events at delays that are constant within the class. The queue keeps
// one source per such stream and pops the least (at, id) over their
// heads:
//
//   - fifos[c], c < k: class c's queue arrivals, scheduled at
//     now + ExtraDelay, so their times never decrease;
//   - fifos[k+c]: class c's ACKs and loss notifications, scheduled at
//     now + 2Θ + ExtraDelay unless a Perturber shifts the RTT;
//   - depart: the pending departure, of which there is at most one;
//   - timers: a min-heap of the rare timers (flow starts, monitor ends,
//     the tick) and of the pushes that would break another source's
//     order — earlier than their FIFO's tail, or a second departure.
//
// Each source pops in (at, id) order and ids grow with every push, so
// the least head is the least pending event: the pop sequence is the
// one a single priority queue over all events gives, for any push
// sequence. The invariants above only keep the FIFOs' pushes out of the
// heap.
type eventQueue struct {
	class []int32 // sender → delay class
	fifos []ring[event]
	// heads holds the head key of fifos[i] at i, of depart at len(fifos)
	// and of timers at len(fifos)+1, idle when empty: one contiguous
	// scan per pop.
	heads  []eventKey
	depart event
	timers eventHeap
	nextID uint64
	// spilled counts pushes that break a FIFO's order or double the
	// departure; timers do not count.
	spilled int
}

// newEventQueue returns an empty queue for the flows, one delay class
// per distinct ExtraDelay.
func newEventQueue(flows []Flow) eventQueue {
	class := make([]int32, len(flows))
	k := int32(0)
	for i := range flows {
		class[i] = k
		for j := range i {
			if flows[j].ExtraDelay == flows[i].ExtraDelay {
				class[i] = class[j]
				break
			}
		}
		if class[i] == k {
			k++
		}
	}
	q := eventQueue{
		class:  class,
		fifos:  make([]ring[event], 2*k),
		heads:  make([]eventKey, 2*k+2),
		timers: make(eventHeap, 0, len(flows)+2),
	}
	for i := range q.heads {
		q.heads[i] = idle
	}
	return q
}

// push schedules an event, stamping it with the next insertion id.
// sender is -1 for the departure and the tick.
func (q *eventQueue) push(at float64, kind evKind, sender int, sentAt float64) {
	q.nextID++
	e := event{eventKey: eventKey{at: at, id: q.nextID}, sentAt: sentAt, sender: int32(sender), kind: kind}
	switch kind {
	case evQueueArrive, evAck, evLossNotify:
		src := int(q.class[sender])
		if kind != evQueueArrive {
			src += len(q.fifos) / 2
		}
		if f := &q.fifos[src]; f.n == 0 || f.back().at <= at {
			if f.n == 0 {
				q.heads[src] = e.eventKey
			}
			f.push(e)
			return
		}
		q.spilled++
	case evQueueDepart:
		if h := &q.heads[len(q.fifos)]; *h == idle {
			q.depart, *h = e, e.eventKey
			return
		}
		q.spilled++
	}
	q.timers.push(e)
	q.heads[len(q.fifos)+1] = q.timers[0].eventKey
}

// pop removes and returns the least pending event; ok is false when
// nothing is pending.
func (q *eventQueue) pop() (e event, ok bool) {
	heads := q.heads
	best := 0
	for i := 1; i < len(heads); i++ {
		if heads[i].before(&heads[best]) {
			best = i
		}
	}
	switch nf := len(q.fifos); {
	case heads[best] == idle:
		return event{}, false
	case best < nf:
		f := &q.fifos[best]
		e = f.pop()
		if f.n > 0 {
			heads[best] = f.front().eventKey
		} else {
			heads[best] = idle
		}
		return e, true
	case best == nf:
		heads[best] = idle
		return q.depart, true
	}
	e = q.timers.pop()
	if len(q.timers) > 0 {
		heads[best] = q.timers[0].eventKey
	} else {
		heads[best] = idle
	}
	return e, true
}

// eventHeap is a binary min-heap of events under eventKey.before. It is
// eventQueue's timer heap and the reference priority queue the queue's
// differential tests and fuzzer compare against.
type eventHeap []event

// push and pop are container/heap's algorithm on the concrete event type:
// the stdlib interface boxes every event into an `any`, which dominated
// the simulator's allocation profile (two allocations per event).
func (h *eventHeap) push(e event) {
	s := append(*h, e)
	*h = s
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s[i].before(&s[parent].eventKey) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	e := s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l := 2*i + 1
		if l >= len(s) {
			break
		}
		m := l
		if r := l + 1; r < len(s) && s[r].before(&s[l].eventKey) {
			m = r
		}
		if !s[m].before(&s[i].eventKey) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return e
}

// ring is a growable FIFO over a power-of-two circular buffer: once it
// has grown to a run's peak occupancy, pushes and pops allocate nothing.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		grown := make([]T, max(8, 2*len(r.buf)))
		k := copy(grown, r.buf[r.head:])
		copy(grown[k:], r.buf[:r.head])
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

func (r *ring[T]) pop() T {
	v := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

func (r *ring[T]) front() *T { return &r.buf[r.head] }

func (r *ring[T]) back() *T { return &r.buf[(r.head+r.n-1)&(len(r.buf)-1)] }
