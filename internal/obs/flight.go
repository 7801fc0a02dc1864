package obs

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// The flight recorder is a fixed-size, lock-free ring of the most recent
// span completions and notable events (panics, deadline expiries, shard
// crashes). It runs whenever obs is enabled and costs one atomic add plus
// one atomic pointer store per event, so it can stay on for the whole
// life of a long sweep. When something goes wrong — a recovered cell
// panic, a SIGQUIT from the operator — the ring is dumped to stderr and
// attached to the active run record, so the last thing every worker did
// survives the failure.

// FlightRingSize is the ring's capacity. 256 events at span granularity
// covers the last few seconds of a busy sweep — enough context to see
// what every worker was doing when a cell died.
const FlightRingSize = 256

// FlightEvent is one entry of the flight-recorder ring: a completed span
// (Kind "span", with duration and ids) or a point event (Kind "panic",
// "deadline", "shard", ...).
type FlightEvent struct {
	Seq             uint64    `json:"seq"`
	Time            time.Time `json:"time"`
	Kind            string    `json:"kind"`
	Name            string    `json:"name"`
	Detail          string    `json:"detail,omitempty"`
	Gid             int64     `json:"gid"`
	SpanID          uint64    `json:"span_id,omitempty"`
	ParentID        uint64    `json:"parent_id,omitempty"`
	DurationSeconds float64   `json:"duration_seconds,omitempty"`
}

var flight struct {
	seq   atomic.Uint64
	slots [FlightRingSize]atomic.Pointer[FlightEvent]
}

// recordFlight claims the next ring slot and publishes e into it. The
// claim is a single atomic add, the publish a single pointer store;
// readers only ever see complete events (possibly missing the newest few
// during a concurrent wrap, which is fine for a crash dump).
func recordFlight(e *FlightEvent) {
	e.Seq = flight.seq.Add(1)
	flight.slots[(e.Seq-1)%FlightRingSize].Store(e)
}

// NoteEvent records a point event (Kind "panic", "deadline", "shard",
// ...) onto the flight ring, stamped with the calling goroutine. No-op
// while obs is disabled.
func NoteEvent(kind, name, detail string) {
	if !Enabled() {
		return
	}
	recordFlight(&FlightEvent{
		Time:   time.Now(),
		Kind:   kind,
		Name:   name,
		Detail: detail,
		Gid:    curGID(),
	})
}

// FlightEvents snapshots the ring, oldest first. The snapshot is
// best-effort under concurrent writes: an event being overwritten right
// now may be missing, never torn.
func FlightEvents() []FlightEvent {
	out := make([]FlightEvent, 0, FlightRingSize)
	for i := range flight.slots {
		if e := flight.slots[i].Load(); e != nil {
			out = append(out, *e)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// FlightLen returns the number of events recorded since process start
// (not capped at the ring size).
func FlightLen() uint64 { return flight.seq.Load() }

// ResetFlight clears the ring (tests; the seq counter keeps counting so
// later events still sort after earlier ones).
func ResetFlight() {
	for i := range flight.slots {
		flight.slots[i].Store(nil)
	}
}

// DumpFlight writes a human-readable flight dump to w: the recent event
// ring oldest-first, then the spans still open (what each worker was in
// the middle of). This is the crash-time rendering; the same data lands
// structured in the run record via AttachFlightToRecord.
func DumpFlight(w io.Writer) {
	events := FlightEvents()
	fmt.Fprintf(w, "== obs flight recorder: %d recent events (%d total) ==\n", len(events), FlightLen())
	for _, e := range events {
		switch e.Kind {
		case "span":
			fmt.Fprintf(w, "%s g%-4d span  %-32s %10.3fms", e.Time.Format("15:04:05.000"), e.Gid, e.Name, e.DurationSeconds*1e3)
		default:
			fmt.Fprintf(w, "%s g%-4d %-5s %-32s", e.Time.Format("15:04:05.000"), e.Gid, e.Kind, e.Name)
		}
		if e.Detail != "" {
			fmt.Fprintf(w, "  %s", e.Detail)
		}
		fmt.Fprintln(w)
	}
	open := ActiveSpans()
	fmt.Fprintf(w, "== obs flight recorder: %d open spans ==\n", len(open))
	for _, s := range open {
		fmt.Fprintf(w, "g%-4d open  %-32s %10.3fms", s.Gid, s.Name, s.ElapsedSeconds*1e3)
		if s.Detail != "" {
			fmt.Fprintf(w, "  %s", s.Detail)
		}
		fmt.Fprintln(w)
	}
}

// AttachFlightToRecord snapshots the ring and the open spans into the
// active run record (latest attach wins), so a -runrecord manifest from
// a run that hit a cell panic or a SIGQUIT carries the evidence.
// No-op without an active record.
func AttachFlightToRecord() {
	r := ActiveRecord()
	if r == nil {
		return
	}
	events := FlightEvents()
	open := ActiveSpans()
	r.mu.Lock()
	r.Flight = events
	r.FlightOpenSpans = open
	r.mu.Unlock()
}
