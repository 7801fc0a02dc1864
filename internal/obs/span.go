package obs

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements hierarchical timed spans, the "where did the time
// go inside one request" layer on top of the registry's aggregates. A
// span is opened with StartSpan (parent linkage flows through the
// context) or StartLeafSpan (no context at hand — store and session
// internals), and closed with End, which feeds three sinks at once:
//
//   - the "span.<name>" duration histogram in the registry, so /metrics
//     exposes live latency distributions per span name;
//   - the flight-recorder ring (flight.go), so the last spans before a
//     panic or SIGQUIT are reconstructible;
//   - the timeline collector (timeline.go) when -exectimeline is
//     engaged, which renders Chrome trace-event JSON with one track per
//     goroutine (worker-pool goroutines make that one track per worker).
//
// The whole layer is atomic-gated: with obs disabled, StartSpan is one
// atomic load returning (ctx, nil), End on the nil span is a nil check,
// and neither allocates — pinned by TestStartSpanDisabledAllocFree and
// the engine's run-path alloc pins.

// Span is one open (or just-closed) timed operation. Fields are written
// by StartSpan/End only; readers (the active-span table, the HTTP
// snapshot) access them through the accessors below.
type Span struct {
	id     uint64
	parent uint64
	name   string
	gid    int64
	start  time.Time

	// detail is an optional free-form annotation (a cell index, a group
	// size). Written via SetDetail before End, read at End time and by
	// the active-span snapshot; detailMu keeps -race clean when an HTTP
	// scrape snapshots a span another goroutine is annotating.
	detailMu sync.Mutex
	detail   string
}

// spanCtxKey carries the current span through a context for parent
// linkage.
type spanCtxKey struct{}

var spanIDs atomic.Uint64

// activeSpans tracks open spans for the /snapshot endpoint and the
// flight dump ("what was in flight when it died").
var activeSpans struct {
	mu sync.Mutex
	m  map[uint64]*Span
}

// StartSpan opens a span named name as a child of the span carried by
// ctx (if any) and returns a derived context carrying the new span plus
// the span itself. With obs disabled it returns (ctx, nil) after a
// single atomic load and allocates nothing; End on a nil *Span is a
// no-op, so instrumented code never branches on the gate itself:
//
//	ctx, sp := obs.StartSpan(ctx, "engine.run.fluid")
//	defer sp.End()
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if !Enabled() {
		return ctx, nil
	}
	s := newSpan(name)
	if p, ok := ctx.Value(spanCtxKey{}).(*Span); ok && p != nil {
		s.parent = p.id
	}
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

// StartLeafSpan opens a parentless span for code that has no context to
// thread (store reads, lock waits, session internals). It lands on the
// calling goroutine's timeline track like any other span, so a leaf
// started inside a sweep worker still lines up under that worker's
// cells. Nil (and free) when obs is disabled.
func StartLeafSpan(name string) *Span {
	if !Enabled() {
		return nil
	}
	return newSpan(name)
}

func newSpan(name string) *Span {
	s := &Span{
		id:    spanIDs.Add(1),
		name:  name,
		gid:   curGID(),
		start: time.Now(),
	}
	activeSpans.mu.Lock()
	if activeSpans.m == nil {
		activeSpans.m = make(map[uint64]*Span)
	}
	activeSpans.m[s.id] = s
	activeSpans.mu.Unlock()
	return s
}

// SetDetail attaches a free-form annotation (a cell index, a group
// size) that rides into the flight recorder and timeline args. Safe on
// a nil span.
func (s *Span) SetDetail(d string) {
	if s == nil {
		return
	}
	s.detailMu.Lock()
	s.detail = d
	s.detailMu.Unlock()
}

// Detail returns the annotation set by SetDetail ("" on a nil span).
func (s *Span) Detail() string {
	if s == nil {
		return ""
	}
	s.detailMu.Lock()
	defer s.detailMu.Unlock()
	return s.detail
}

// Name returns the span's name ("" on a nil span).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// End closes the span: removes it from the active table, records its
// duration in the "span.<name>" histogram, pushes a completion event
// onto the flight ring, and hands it to the timeline collector when one
// is engaged. Safe (and free) on a nil span; a second End is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Now()
	d := end.Sub(s.start)
	activeSpans.mu.Lock()
	_, open := activeSpans.m[s.id]
	delete(activeSpans.m, s.id)
	activeSpans.mu.Unlock()
	if !open {
		return // double End
	}
	GetHistogram("span." + s.name).Observe(d)
	recordFlight(&FlightEvent{
		Time:            end,
		Kind:            "span",
		Name:            s.name,
		Detail:          s.Detail(),
		Gid:             s.gid,
		SpanID:          s.id,
		ParentID:        s.parent,
		DurationSeconds: d.Seconds(),
	})
	timelineAdd(s, end)
}

// ActiveSpan is one open span in a snapshot.
type ActiveSpan struct {
	ID             uint64    `json:"id"`
	ParentID       uint64    `json:"parent_id,omitempty"`
	Name           string    `json:"name"`
	Detail         string    `json:"detail,omitempty"`
	Gid            int64     `json:"gid"`
	Start          time.Time `json:"start"`
	ElapsedSeconds float64   `json:"elapsed_seconds"`
}

// ActiveSpans snapshots the open spans, oldest first.
func ActiveSpans() []ActiveSpan {
	now := time.Now()
	activeSpans.mu.Lock()
	out := make([]ActiveSpan, 0, len(activeSpans.m))
	for _, s := range activeSpans.m {
		out = append(out, ActiveSpan{
			ID:             s.id,
			ParentID:       s.parent,
			Name:           s.name,
			Detail:         s.Detail(),
			Gid:            s.gid,
			Start:          s.start,
			ElapsedSeconds: now.Sub(s.start).Seconds(),
		})
	}
	activeSpans.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// curGID parses the calling goroutine's id from the first line of its
// stack ("goroutine N [..."). runtime.Stack into a fixed buffer does not
// allocate, and one ~µs parse per span start is noise at span (per-run,
// per-cell) granularity. The id is the timeline track: a sweep worker
// is one goroutine, so spans — including ctx-less leaf spans from the
// store and session — group into per-worker tracks for free.
func curGID() int64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	const prefix = len("goroutine ")
	var id int64
	for _, c := range buf[prefix:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}
