package obs

import (
	"encoding/json"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The timeline collector retains every completed span while engaged and
// renders them as Chrome trace-event JSON ("X" complete events, one
// track per goroutine), the format both chrome://tracing and Perfetto
// (ui.perfetto.dev) load directly. The cmd/* tools engage it with
// -exectimeline out.json; BenchmarkSweep writes one for CI so the sweep
// engine's batching/fallback split is visually inspectable from the
// workflow artifacts.

// maxTimelineSpans bounds collector memory on very long runs; spans past
// the cap are counted as dropped and reported in the written file.
const maxTimelineSpans = 1 << 19

var tlEnabled atomic.Bool

var timeline struct {
	mu      sync.Mutex
	start   time.Time
	spans   []tlSpan
	dropped int64
}

type tlSpan struct {
	name   string
	detail string
	gid    int64
	start  time.Time
	dur    time.Duration
}

// EnableTimeline starts collecting completed spans (clearing any
// previous collection). Timestamps in the written trace are relative to
// this call.
func EnableTimeline() {
	timeline.mu.Lock()
	timeline.start = time.Now()
	timeline.spans = timeline.spans[:0]
	timeline.dropped = 0
	timeline.mu.Unlock()
	tlEnabled.Store(true)
}

// DisableTimeline stops collecting. Collected spans stay available to
// WriteTimeline until the next EnableTimeline.
func DisableTimeline() { tlEnabled.Store(false) }

// timelineAdd is called by Span.End for every completed span while the
// collector is engaged.
func timelineAdd(s *Span, end time.Time) {
	if !tlEnabled.Load() {
		return
	}
	timeline.mu.Lock()
	if len(timeline.spans) >= maxTimelineSpans {
		timeline.dropped++
	} else {
		timeline.spans = append(timeline.spans, tlSpan{
			name:   s.name,
			detail: s.Detail(),
			gid:    s.gid,
			start:  s.start,
			dur:    end.Sub(s.start),
		})
	}
	timeline.mu.Unlock()
}

// traceEvent is one Chrome trace-event JSON object. Only the fields the
// viewers read are emitted; Ts/Dur are microseconds.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// TimelineJSON renders the collected spans as Chrome trace-event JSON.
// Goroutines map to compact track ids in order of first appearance, with
// thread_name metadata naming each track g<goroutine-id>; the worker
// pool runs one goroutine per worker, so sweeps read as one track per
// worker.
func TimelineJSON(tool string) ([]byte, error) {
	timeline.mu.Lock()
	start := timeline.start
	spans := make([]tlSpan, len(timeline.spans))
	copy(spans, timeline.spans)
	dropped := timeline.dropped
	timeline.mu.Unlock()
	if start.IsZero() {
		start = time.Now()
	}

	tf := traceFile{DisplayTimeUnit: "ms"}
	tf.TraceEvents = append(tf.TraceEvents, traceEvent{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": tool},
	})
	tids := map[int64]int{}
	for _, s := range spans {
		tid, ok := tids[s.gid]
		if !ok {
			tid = len(tids) + 1
			tids[s.gid] = tid
			tf.TraceEvents = append(tf.TraceEvents, traceEvent{
				Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]any{"name": "g" + strconv.FormatInt(s.gid, 10)},
			})
		}
		ev := traceEvent{
			Name: s.name,
			Cat:  "span",
			Ph:   "X",
			Ts:   float64(s.start.Sub(start).Nanoseconds()) / 1e3,
			Dur:  float64(s.dur.Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  tid,
		}
		if s.detail != "" {
			ev.Args = map[string]any{"detail": s.detail}
		}
		tf.TraceEvents = append(tf.TraceEvents, ev)
	}
	if dropped > 0 {
		tf.TraceEvents = append(tf.TraceEvents, traceEvent{
			Name: "obs.timeline.dropped", Ph: "M", Pid: 1,
			Args: map[string]any{"dropped_spans": dropped},
		})
	}
	return json.Marshal(tf)
}

// WriteTimeline writes the collected timeline to path.
func WriteTimeline(path, tool string) error {
	raw, err := TimelineJSON(tool)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
