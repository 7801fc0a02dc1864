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

type event struct {
	eventKey
	kind   evKind
	sender int
	sentAt float64 // send timestamp for RTT measurement (evAck)
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
// most events a per-sender FIFO structure (see DESIGN.md §3.2), so the
// queue keeps one source per event class and pops the least (at, id)
// over their heads:
//
//   - fifos[i], i < n: sender i's queue arrivals, scheduled at
//     now + ExtraDelay — a per-sender constant, so their times never
//     decrease;
//   - fifos[n+i]: sender i's ACKs and loss notifications, scheduled at
//     now + returnDelay(i), constant unless a Perturber shifts the RTT;
//   - slots[i]: sender i's flow start or monitor end (one is pending at
//     a time), slots[n] the departure, slots[n+1] the tick;
//   - spill: every push that would break its source's order — earlier
//     than its FIFO's tail, or into an occupied slot.
//
// Each source pops in (at, id) order and ids grow with every push, so
// the least head is the least pending event: the pop sequence is the
// one a single priority queue over all events gives, for any push
// sequence. The invariants above only keep the spill empty.
type eventQueue struct {
	n     int
	fifos []ring[event]
	slots []event
	// heads holds the head key of fifos[i] at i and of slots[j] at
	// len(fifos)+j, idle when empty: one contiguous scan per pop.
	heads  []eventKey
	spill  eventHeap
	nextID uint64
	// spilled counts pushes that went to the spill heap.
	spilled int
}

func newEventQueue(senders int) eventQueue {
	q := eventQueue{
		n:     senders,
		fifos: make([]ring[event], 2*senders),
		slots: make([]event, senders+2),
		heads: make([]eventKey, 3*senders+2),
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
	e := event{eventKey: eventKey{at: at, id: q.nextID}, kind: kind, sender: sender, sentAt: sentAt}
	switch kind {
	case evQueueArrive, evAck, evLossNotify:
		src := sender
		if kind != evQueueArrive {
			src += q.n
		}
		if f := &q.fifos[src]; f.n == 0 || f.back().at <= at {
			if f.n == 0 {
				q.heads[src] = e.eventKey
			}
			f.push(e)
			return
		}
	default:
		slot := q.slotOf(kind, sender)
		if src := len(q.fifos) + slot; q.heads[src] == idle {
			q.slots[slot] = e
			q.heads[src] = e.eventKey
			return
		}
	}
	q.spilled++
	q.spill.push(e)
}

func (q *eventQueue) slotOf(kind evKind, sender int) int {
	switch kind {
	case evQueueDepart:
		return q.n
	case evTick:
		return q.n + 1
	}
	return sender
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
	switch {
	case len(q.spill) > 0 && q.spill[0].before(&heads[best]):
		return q.spill.pop(), true
	case heads[best] == idle:
		return event{}, false
	case best < len(q.fifos):
		f := &q.fifos[best]
		e = f.pop()
		if f.n > 0 {
			heads[best] = f.front().eventKey
		} else {
			heads[best] = idle
		}
		return e, true
	}
	heads[best] = idle
	return q.slots[best-len(q.fifos)], true
}

// eventHeap is a binary min-heap of events under eventKey.before. It is
// eventQueue's spill and the reference priority queue the queue's
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
