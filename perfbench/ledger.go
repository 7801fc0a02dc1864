package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
)

// The ledger splits a traced cycle's wall time among layers using every
// span the cycle closed: the program's own spans (engine, session,
// runstore, explore rounds) and the benchmark's spans around its calls
// into public functions. Each goroutine's time belongs to its innermost
// open span, so a span's self time is its duration minus the part its
// nested spans cover. At any instant:
//
//   - if goroutines other than the benchmark's own have an open span,
//     the instant is split evenly among them (the benchmark goroutine is
//     then blocked in a sweep, waiting for its workers);
//   - otherwise it goes to the benchmark goroutine's innermost span;
//   - with no span open anywhere it is unattributed (benchmark glue,
//     garbage collection between calls).
//
// The layer shares plus the unattributed share sum to the cycle's wall
// time by construction.

// passSpan brackets one traced pass on the benchmark goroutine; its own
// self time counts as unattributed.
const passSpan = "bench.pass"

// layerOf maps a span name to its ledger layer ("" = unattributed).
func layerOf(name string) string {
	switch {
	case name == passSpan:
		return ""
	case name == "engine.batch.step", name == "engine.batch.emit", name == "engine.run.fluid":
		return "fluid"
	case name == "engine.run.topo":
		return "nettopo"
	case name == "engine.run.packet":
		return "packetsim"
	case strings.HasPrefix(name, "engine."):
		return "engine"
	case strings.HasPrefix(name, "metrics."), name == evalSpan:
		return "metrics"
	case strings.HasPrefix(name, "runstore."):
		return "runstore"
	case strings.HasPrefix(name, "pareto."):
		return "pareto"
	case strings.HasPrefix(name, "experiment."):
		return "experiment"
	case strings.HasPrefix(name, "jobd."):
		return "jobd"
	}
	return "other"
}

// tspan is one closed span on the timeline, in microseconds.
type tspan struct {
	name       string
	tid        int
	start, end float64
}

// readTimeline decodes the spans collected since obs.EnableTimeline.
func readTimeline() ([]tspan, error) {
	raw, err := obs.TimelineJSON("perfbench")
	if err != nil {
		return nil, err
	}
	var tf struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		return nil, fmt.Errorf("timeline: %w", err)
	}
	var out []tspan
	for _, ev := range tf.TraceEvents {
		if ev.Name == "obs.timeline.dropped" {
			return nil, fmt.Errorf("timeline dropped spans; the ledger would be incomplete")
		}
		if ev.Ph == "X" {
			out = append(out, tspan{name: ev.Name, tid: ev.Tid, start: ev.Ts, end: ev.Ts + ev.Dur})
		}
	}
	return out, nil
}

// ledger is one traced interval's wall time split by layer (µs).
type ledger struct {
	wall         float64
	layer        map[string]float64 // self time by layer
	name         map[string]float64 // self time by span name
	unattributed float64
	busy         float64 // ∫ goroutines working dt
}

func newLedger() ledger {
	return ledger{layer: map[string]float64{}, name: map[string]float64{}}
}

// add folds the spans of one traced interval [t0, t1] into l. mainTid is
// the benchmark goroutine's timeline track.
func (l *ledger) add(spans []tspan, mainTid int, t0, t1 float64) {
	type event struct {
		t     float64
		open  bool
		index int
	}
	var evs []event
	for i, s := range spans {
		if s.end <= t0 || s.start >= t1 {
			continue
		}
		evs = append(evs, event{max(s.start, t0), true, i}, event{min(s.end, t1), false, i})
	}
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].t != evs[b].t {
			return evs[a].t < evs[b].t
		}
		return !evs[a].open && evs[b].open // close before open at one instant
	})
	open := map[int][]int{} // tid → open span indexes
	innermost := func(tid int) int {
		best := -1
		for _, i := range open[tid] {
			if best < 0 || spans[i].start > spans[best].start ||
				(spans[i].start == spans[best].start && spans[i].end <= spans[best].end) {
				best = i
			}
		}
		return best
	}
	credit := func(i int, dt float64) {
		n := spans[i].name
		l.name[n] += dt
		if ly := layerOf(n); ly != "" {
			l.layer[ly] += dt
		} else {
			l.unattributed += dt
		}
	}
	prev := t0
	attribute := func(now float64) {
		dt := now - prev
		prev = now
		if dt <= 0 {
			return
		}
		var workers []int
		for tid, idx := range open {
			if tid != mainTid && len(idx) > 0 {
				workers = append(workers, tid)
			}
		}
		switch {
		case len(workers) > 0:
			share := dt / float64(len(workers))
			for _, tid := range workers {
				credit(innermost(tid), share)
			}
			l.busy += dt * float64(len(workers))
		case len(open[mainTid]) > 0:
			credit(innermost(mainTid), dt)
			l.busy += dt
		default:
			l.unattributed += dt
		}
	}
	for _, ev := range evs {
		attribute(ev.t)
		s := spans[ev.index]
		if ev.open {
			open[s.tid] = append(open[s.tid], ev.index)
			continue
		}
		idx := open[s.tid]
		for k, i := range idx {
			if i == ev.index {
				open[s.tid] = append(idx[:k], idx[k+1:]...)
				break
			}
		}
	}
	attribute(t1)
	l.wall += t1 - t0
}

// mainTrack finds the benchmark goroutine's track and the bounds of the
// traced pass: the passSpan spans.
func mainTrack(spans []tspan) (tid int, passes [][2]float64, err error) {
	tid = -1
	for _, s := range spans {
		if s.name != passSpan {
			continue
		}
		if tid >= 0 && s.tid != tid {
			return 0, nil, fmt.Errorf("timeline: %s spans on two goroutines", passSpan)
		}
		tid = s.tid
		passes = append(passes, [2]float64{s.start, s.end})
	}
	if tid < 0 {
		return 0, nil, fmt.Errorf("timeline: no %s span", passSpan)
	}
	return tid, passes, nil
}

// addTimeline reads the timeline and adds every traced pass on it to l;
// pass i is also added to byPass[i mod len(byPass)], which splits the
// cycle's ledger by kind of pass.
func (l *ledger) addTimeline(byPass ...*ledger) error {
	spans, err := readTimeline()
	if err != nil {
		return err
	}
	tid, passes, err := mainTrack(spans)
	if err != nil {
		return err
	}
	for i, p := range passes {
		l.add(spans, tid, p[0], p[1])
		if len(byPass) > 0 {
			byPass[i%len(byPass)].add(spans, tid, p[0], p[1])
		}
	}
	return nil
}

// layerMS returns a layer's self time in milliseconds per cycle.
func (l *ledger) layerMS(layer string, cycles int) float64 {
	return l.layer[layer] / 1e3 / float64(cycles)
}

func (l *ledger) nameMS(name string, cycles int) float64 {
	return l.name[name] / 1e3 / float64(cycles)
}

// summary returns the breakdown per cycle as text, with the sum of the
// layer times next to the wall time they must add up to.
func (l *ledger) summary(cycles int) string {
	var total float64
	var parts []string
	keys := make([]string, 0, len(l.layer))
	for k := range l.layer {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		total += l.layer[k]
		parts = append(parts, fmt.Sprintf("%s=%.2fms(%.1f%%)", k, l.layerMS(k, cycles), 100*l.layer[k]/l.wall))
	}
	total += l.unattributed
	parts = append(parts, fmt.Sprintf("unattributed=%.2fms(%.1f%%)", l.unattributed/1e3/float64(cycles), 100*l.unattributed/l.wall))
	return fmt.Sprintf("ledger per cycle (wall %.2f ms, layers sum %.2f ms): %s",
		l.wall/1e3/float64(cycles), total/1e3/float64(cycles), strings.Join(parts, " "))
}
