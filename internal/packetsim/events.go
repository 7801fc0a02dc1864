package packetsim

import "math"

// event kinds, ordered deterministically by (time, id).
type evKind uint8

const (
	evFlowStart evKind = iota
	evQueueArrive
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
	sender int32   // -1 for the tick
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
//   - timers: a min-heap of the rare timers (flow starts, monitor ends,
//     the tick) and of the pushes that would break a FIFO's order by
//     being earlier than its tail.
//
// Each source pops in (at, id) order and ids grow with every push, so
// the least head is the least pending event: the pop sequence is the
// one a single priority queue over all events gives, for any push
// sequence. The invariants above only keep the FIFOs' pushes out of the
// heap. The bottleneck's departure is not an event: the simulator holds
// the pending one under a key from the same id sequence (stamp) and
// completes it once it precedes the least head (sim.next).
type eventQueue struct {
	class []int32 // sender → delay class
	fifos []ring[event]
	// heads holds the head key of fifos[i] at i and of timers at
	// len(fifos), idle when empty: one contiguous scan per pop.
	heads  []eventKey
	timers eventHeap
	nextID uint64
	// spilled counts pushes that break a FIFO's order; timers do not
	// count.
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
		heads:  make([]eventKey, 2*k+1),
		timers: make(eventHeap, 0, len(flows)+1),
	}
	for i := range q.heads {
		q.heads[i] = idle
	}
	return q
}

// stamp returns the key of an event at the given time with the next
// insertion id, as push would, without queuing anything.
func (q *eventQueue) stamp(at float64) eventKey {
	q.nextID++
	return eventKey{at: at, id: q.nextID}
}

// push schedules an event under the next insertion id and returns the
// index of the head of the source it joined. sender is -1 for the tick.
func (q *eventQueue) push(at float64, kind evKind, sender int, sentAt float64) int {
	e := event{eventKey: q.stamp(at), sentAt: sentAt, sender: int32(sender), kind: kind}
	if kind == evQueueArrive || kind == evAck || kind == evLossNotify {
		src := int(q.class[sender])
		if kind != evQueueArrive {
			src += len(q.fifos) / 2
		}
		if f := &q.fifos[src]; f.n == 0 || f.back().at <= at {
			if f.n == 0 {
				q.heads[src] = e.eventKey
			}
			f.push(e)
			return src
		}
		q.spilled++
	}
	q.timers.push(e)
	q.heads[len(q.fifos)] = q.timers[0].eventKey
	return len(q.fifos)
}

// least returns the index of the least head, which is idle when nothing
// is pending.
func (q *eventQueue) least() int {
	heads := q.heads
	best := 0
	for i := 1; i < len(heads); i++ {
		if heads[i].before(&heads[best]) {
			best = i
		}
	}
	return best
}

// take removes and returns the head event of source i, which must not
// be idle.
func (q *eventQueue) take(i int) event {
	if i < len(q.fifos) {
		f := &q.fifos[i]
		e := f.pop()
		if f.n > 0 {
			q.heads[i] = f.front().eventKey
		} else {
			q.heads[i] = idle
		}
		return e
	}
	e := q.timers.pop()
	if len(q.timers) > 0 {
		q.heads[i] = q.timers[0].eventKey
	} else {
		q.heads[i] = idle
	}
	return e
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
