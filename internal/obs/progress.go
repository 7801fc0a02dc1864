package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Progress renders a single live status line ("\r"-rewritten, so point
// it at a terminal stream like stderr). Updates are throttled to one
// repaint per interval except for the final cell, so hot sweeps don't
// bottleneck on terminal writes.
type Progress struct {
	mu       sync.Mutex
	w        io.Writer
	label    string
	start    time.Time
	lastDraw time.Time
	lastLen  int
	drew     bool
}

// progressInterval is the minimum time between repaints.
const progressInterval = 100 * time.Millisecond

// NewProgress builds a progress line labeled label writing to w.
func NewProgress(w io.Writer, label string) *Progress {
	return &Progress{w: w, label: label, start: time.Now()}
}

// Update repaints the line for done/total completed cells. Safe for
// concurrent use; matches the SetSweepProgress sink signature.
// Nested sweeps share the line — the repaint simply reflects whichever
// grid reported last.
func (p *Progress) Update(done, total int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	if done < total && p.drew && now.Sub(p.lastDraw) < progressInterval {
		return
	}
	p.drew = true
	p.lastDraw = now
	elapsed := now.Sub(p.start)
	rate := float64(done) / maxSeconds(elapsed)
	line := fmt.Sprintf("\r%s %d/%d cells (%.1f%%) | %.1f cells/s | elapsed %s",
		p.label, done, total, 100*float64(done)/float64(max(total, 1)), rate,
		elapsed.Round(100*time.Millisecond))
	if done < total && rate > 0 {
		eta := time.Duration(float64(total-done)/rate) * time.Second
		line += fmt.Sprintf(" eta %s", eta.Round(time.Second))
	}
	p.paint(line)
}

// Finish clears the throttle, repaints nothing, and terminates the line
// with a newline if anything was drawn.
func (p *Progress) Finish() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.drew {
		fmt.Fprintln(p.w)
		p.drew = false
	}
}

// paint writes line padded with spaces to cover the previous draw.
// Must hold p.mu.
func (p *Progress) paint(line string) {
	pad := p.lastLen - len(line)
	p.lastLen = len(line)
	if pad > 0 {
		line += strings.Repeat(" ", pad)
	}
	fmt.Fprint(p.w, line)
}

func maxSeconds(d time.Duration) float64 {
	if s := d.Seconds(); s > 1e-9 {
		return s
	}
	return 1e-9
}

// sweepProgress is the process-wide progress sink engine.Sweep reports
// every finished cell to. Set by the flag helper when -progress is
// given.
var sweepProgress atomic.Pointer[func(done, total int)]

// SetSweepProgress installs f as the global sweep progress sink
// (nil clears it).
func SetSweepProgress(f func(done, total int)) {
	if f == nil {
		sweepProgress.Store(nil)
		return
	}
	sweepProgress.Store(&f)
}

// SweepProgressFunc returns the installed global sink, or nil.
func SweepProgressFunc() func(done, total int) {
	if p := sweepProgress.Load(); p != nil {
		return *p
	}
	return nil
}

// progressDone/progressTotal mirror the latest sweep progress report so
// the /snapshot endpoint can expose it without a callback round-trip.
var progressDone, progressTotal atomic.Int64

// ReportProgress records the latest done/total sweep-cell counts for the
// exposition endpoint. The engine calls it on every cell completion while
// instrumented; whichever grid reported last wins, matching the progress
// line's behavior for nested sweeps.
func ReportProgress(done, total int) {
	progressDone.Store(int64(done))
	progressTotal.Store(int64(total))
}

// ProgressSnapshot is the sweep-progress section of /snapshot.
type ProgressSnapshot struct {
	Done  int64 `json:"done"`
	Total int64 `json:"total"`
}

// ProgressState returns the latest reported sweep progress.
func ProgressState() ProgressSnapshot {
	return ProgressSnapshot{Done: progressDone.Load(), Total: progressTotal.Load()}
}
