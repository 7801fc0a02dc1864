package obs

import (
	"context"
	"encoding/json"
	"log/slog"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Phase is one timed span of a run — an experiment grid, a report
// section, a render pass. Phases nest freely; the record keeps them in
// completion order.
type Phase struct {
	Name            string  `json:"name"`
	DurationSeconds float64 `json:"duration_seconds"`
}

// RunRecord is the structured manifest of one tool invocation: enough
// to replay the run (tool, version, every flag value, base seed) and to
// audit it (per-phase durations, headline scores, the full metrics
// snapshot). The flag helper writes it as runrecord.json; any Table or
// Figure reproduction is replayable from its record.
type RunRecord struct {
	Tool            string             `json:"tool"`
	Version         string             `json:"version"`
	GoVersion       string             `json:"go_version"`
	OS              string             `json:"os"`
	Arch            string             `json:"arch"`
	MaxProcs        int                `json:"max_procs"`
	Start           time.Time          `json:"start"`
	DurationSeconds float64            `json:"duration_seconds"`
	Params          map[string]string  `json:"params,omitempty"`
	BaseSeed        uint64             `json:"base_seed"`
	Cells           int                `json:"cells"`
	Phases          []Phase            `json:"phases,omitempty"`
	Scores          map[string]float64 `json:"scores,omitempty"`
	Metrics         *Snapshot          `json:"metrics,omitempty"`

	// Stats holds auxiliary stat groups (run-store hits/misses/bytes,
	// run-cache dedup counts) collected from registered sources at
	// Finish, so cold-vs-warm cache behavior is auditable from the
	// manifest alone.
	Stats map[string]map[string]float64 `json:"stats,omitempty"`

	// Flight carries the flight-recorder ring and the spans still open
	// at the last AttachFlightToRecord (sweep-cell panic, SIGQUIT) —
	// the post-mortem evidence of what every worker was doing.
	Flight          []FlightEvent `json:"flight,omitempty"`
	FlightOpenSpans []ActiveSpan  `json:"flight_open_spans,omitempty"`

	mu       sync.Mutex
	finished bool
}

// auxStats are named callbacks producing stat groups for run records and
// the /snapshot endpoint. Registered by subsystems that sit below obs in
// the import graph (the run store, the metrics session cache).
var auxStats struct {
	mu      sync.Mutex
	sources map[string]func() map[string]float64
}

// RegisterStatsSource installs f as the producer of the named stat group
// (nil removes it). The source is polled at RunRecord.Finish and on every
// /snapshot request; it must be safe to call at any time.
func RegisterStatsSource(name string, f func() map[string]float64) {
	auxStats.mu.Lock()
	defer auxStats.mu.Unlock()
	if f == nil {
		delete(auxStats.sources, name)
		return
	}
	if auxStats.sources == nil {
		auxStats.sources = map[string]func() map[string]float64{}
	}
	auxStats.sources[name] = f
}

// collectAuxStats polls every registered stats source, dropping empty
// groups.
func collectAuxStats() map[string]map[string]float64 {
	auxStats.mu.Lock()
	sources := make(map[string]func() map[string]float64, len(auxStats.sources))
	for k, f := range auxStats.sources {
		sources[k] = f
	}
	auxStats.mu.Unlock()
	var out map[string]map[string]float64
	for name, f := range sources {
		if m := f(); len(m) > 0 {
			if out == nil {
				out = map[string]map[string]float64{}
			}
			out[name] = m
		}
	}
	return out
}

// active is the record library code reports into (phases, scores, cell
// counts). At most one run record is active per process.
var active atomic.Pointer[RunRecord]

// BeginRecord creates a run record for tool, stamps version/host info,
// and installs it as the active record. It replaces any prior active
// record.
func BeginRecord(tool string) *RunRecord {
	r := &RunRecord{
		Tool:      tool,
		Version:   buildVersion(),
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		MaxProcs:  runtime.GOMAXPROCS(0),
		Start:     time.Now(),
	}
	active.Store(r)
	return r
}

// ActiveRecord returns the record installed by BeginRecord, or nil.
func ActiveRecord() *RunRecord { return active.Load() }

// EndRecord clears the active record (it stays usable by its holder).
func EndRecord() { active.Store(nil) }

// SetParam records one replay parameter (typically a flag name/value).
func (r *RunRecord) SetParam(name, value string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.Params == nil {
		r.Params = map[string]string{}
	}
	r.Params[name] = value
}

// Finish stamps the total duration and attaches the current metrics
// snapshot. Idempotent: the first call wins.
func (r *RunRecord) Finish() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.finished {
		return
	}
	r.finished = true
	r.DurationSeconds = time.Since(r.Start).Seconds()
	snap := TakeSnapshot()
	r.Metrics = &snap
	if stats := collectAuxStats(); stats != nil {
		r.Stats = stats
	}
}

// WriteFile renders the record as indented JSON at path.
func (r *RunRecord) WriteFile(path string) error {
	r.mu.Lock()
	raw, err := json.MarshalIndent(r, "", "  ")
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// StartPhase opens a named phase and returns its closer. When a run
// record is active the elapsed time is appended to it; either way the
// duration lands in the "phase.<name>" histogram (when enabled) and a
// debug line goes to the package logger. Use as:
//
//	defer obs.StartPhase("table2")()
func StartPhase(name string) func() {
	if !Enabled() && ActiveRecord() == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		d := time.Since(start)
		if Enabled() {
			GetHistogram("phase." + name).Observe(d)
		}
		if r := ActiveRecord(); r != nil {
			r.mu.Lock()
			r.Phases = append(r.Phases, Phase{Name: name, DurationSeconds: d.Seconds()})
			r.mu.Unlock()
		}
		Log().LogAttrs(context.Background(), slog.LevelDebug, "phase done",
			slog.String("phase", name), slog.Duration("took", d))
	}
}

// RecordScore stores a headline result (an axiom score, a table's mean)
// on the active run record. No-op when no record is active.
func RecordScore(name string, v float64) {
	r := ActiveRecord()
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.Scores == nil {
		r.Scores = map[string]float64{}
	}
	r.Scores[name] = v
}

// RecordSeed stores the run's base seed on the active record.
func RecordSeed(seed uint64) {
	if r := ActiveRecord(); r != nil {
		r.mu.Lock()
		r.BaseSeed = seed
		r.mu.Unlock()
	}
}

// AddCells adds n to the active record's total sweep-cell count.
func AddCells(n int) {
	if r := ActiveRecord(); r != nil {
		r.mu.Lock()
		r.Cells += n
		r.mu.Unlock()
	}
}

// buildVersion derives a git-describe-style version from the binary's
// embedded VCS metadata: "<rev12>[-dirty]" when built from a checkout,
// else the module version or "devel".
func buildVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "devel"
	}
	var rev, modified string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		if modified == "true" {
			rev += "-dirty"
		}
		return rev
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	return "devel"
}
