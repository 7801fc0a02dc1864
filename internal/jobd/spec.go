// Package jobd is the characterization-as-a-service core behind
// cmd/axiomd: it turns a POSTed sweep spec (protocol grid × link grid ×
// optional chaos schedule) into a set of deterministic cells, dedupes
// them against the persistent run store, fans the misses out across
// worker shards, and streams per-cell score rows back as NDJSON while
// they land.
//
// The package is built around one invariant the whole repo shares:
// every cell is a pure function of its canonical key. That is what
// makes the robustness machinery safe — a cell can be retried after a
// shard crash, recomputed after a deadline expiry, or served from the
// store on resubmission, and the bytes that come back are identical
// every time.
package jobd

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"

	"repro/internal/chaos"
	"repro/internal/protocol"
)

// Limits that bound what one POST can ask for, so a fat-fingered grid
// cannot wedge the daemon. Generous relative to the paper's tables
// (Table 1 is 15 protocols × 1 link).
const (
	maxCellsPerJob = 4096
	maxSenders     = 64
	maxSteps       = 1 << 20
)

// Spec is the wire format of one characterization job: the cross
// product of protocols and link parameters, each cell scored with
// metrics.Characterize under the optional chaos schedule.
type Spec struct {
	// Protocols are protocol spec strings as accepted by every CLI
	// ("reno", "aimd:1,0.5", "cubic:0.4,0.8", ...).
	Protocols []string `json:"protocols"`
	// Senders is the homogeneous sender count per cell (≥ 2: the
	// fairness metric is undefined for a single sender).
	Senders int `json:"senders"`
	// Link is the link-parameter grid; cells are the cross product of
	// its axes with Protocols.
	Link LinkGrid `json:"link"`
	// Steps is the simulation horizon in RTT steps (0 = the metrics
	// package default, 4000).
	Steps int `json:"steps,omitempty"`
	// TailFrac is the tail fraction for the score statistics (0 = the
	// metrics package default).
	TailFrac float64 `json:"tail_frac,omitempty"`
	// Chaos, when present, is a fault-injection schedule (the same JSON
	// accepted by -chaos files) applied to every run of every cell.
	Chaos json.RawMessage `json:"chaos,omitempty"`
	// ChaosSeed seeds the schedule's randomized components.
	ChaosSeed uint64 `json:"chaos_seed,omitempty"`
	// CellTimeoutMS bounds each cell's wall time (0 = server default).
	// An expired cell is retried on another shard before it is failed.
	CellTimeoutMS int `json:"cell_timeout_ms,omitempty"`
	// TimeoutMS bounds the whole job (0 = server default).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// LinkGrid is the link half of the grid: every combination of the three
// axes becomes one link configuration.
type LinkGrid struct {
	Mbps      []float64 `json:"mbps"`
	RTTms     []float64 `json:"rtt_ms"`
	BufferMSS []float64 `json:"buffer_mss"`
}

// ParseSpec decodes and validates one job spec. Unknown fields are
// rejected so client typos fail loudly instead of silently running the
// default grid.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("jobd: spec: %w", err)
	}
	if err := sp.validate(); err != nil {
		return nil, err
	}
	return &sp, nil
}

// validate applies the spec-only rules (a non-empty grid, senders >= 2,
// the grid-size limit) and then every Cell rule to every value the spec
// can put into a cell.
func (sp *Spec) validate() error {
	if len(sp.Protocols) == 0 {
		return fmt.Errorf("jobd: spec: no protocols")
	}
	if sp.Senders < 2 {
		return fmt.Errorf("jobd: spec: senders must be >= 2 (fairness is undefined below that), got %d", sp.Senders)
	}
	if len(sp.Link.Mbps) == 0 || len(sp.Link.RTTms) == 0 || len(sp.Link.BufferMSS) == 0 {
		return fmt.Errorf("jobd: spec: link grid needs at least one mbps, rtt_ms, and buffer_mss value")
	}
	// Multiply axis by axis and stop once over the limit, so the product
	// cannot overflow and wrap back under it.
	axes := []int{len(sp.Protocols), len(sp.Link.Mbps), len(sp.Link.RTTms), len(sp.Link.BufferMSS)}
	n := 1
	for _, axis := range axes {
		if n <= maxCellsPerJob {
			n *= axis
		}
	}
	if n > maxCellsPerJob {
		return fmt.Errorf("jobd: spec: grid of %d cells exceeds the %d-cell limit", n, maxCellsPerJob)
	}
	// Cell j takes value min(j, len-1) of every axis, so these cells hold
	// every axis value at least once. The chaos schedule is the same bytes
	// in every cell; only the first carries it, so it is parsed once.
	for j := range slices.Max(axes) {
		c := Cell{
			Proto:     sp.Protocols[min(j, len(sp.Protocols)-1)],
			Senders:   sp.Senders,
			Mbps:      sp.Link.Mbps[min(j, len(sp.Link.Mbps)-1)],
			RTTms:     sp.Link.RTTms[min(j, len(sp.Link.RTTms)-1)],
			BufferMSS: sp.Link.BufferMSS[min(j, len(sp.Link.BufferMSS)-1)],
			Steps:     sp.Steps,
			TailFrac:  sp.TailFrac,
		}
		if j == 0 {
			c.Chaos = sp.Chaos
		}
		if err := c.validate(); err != nil {
			return fmt.Errorf("jobd: spec: %w", err)
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// CellTimeout returns the per-cell deadline, falling back to def.
func (sp *Spec) CellTimeout(def time.Duration) time.Duration {
	if sp.CellTimeoutMS > 0 {
		return time.Duration(sp.CellTimeoutMS) * time.Millisecond
	}
	return def
}

// Timeout returns the whole-job deadline, falling back to def.
func (sp *Spec) Timeout(def time.Duration) time.Duration {
	if sp.TimeoutMS > 0 {
		return time.Duration(sp.TimeoutMS) * time.Millisecond
	}
	return def
}

// Cell is one point of the expanded grid: a fully-specified, seedable,
// retryable unit of work. Cells travel to worker shards as JSON, so
// every field round-trips exactly (encoding/json renders float64 with
// the shortest representation that parses back to the same bits).
type Cell struct {
	Index     int             `json:"index"`
	Proto     string          `json:"proto"`
	Senders   int             `json:"senders"`
	Mbps      float64         `json:"mbps"`
	RTTms     float64         `json:"rtt_ms"`
	BufferMSS float64         `json:"buffer_mss"`
	Steps     int             `json:"steps,omitempty"`
	TailFrac  float64         `json:"tail_frac,omitempty"`
	Chaos     json.RawMessage `json:"chaos,omitempty"`
	ChaosSeed uint64          `json:"chaos_seed,omitempty"`
}

// validate applies the per-field rules every cell must meet, whether it
// was expanded from a parsed Spec or read off a worker shard's stdin:
// a known protocol, 1 to maxSenders senders, steps in [0, maxSteps],
// tail_frac in [0, 1), finite positive mbps and rtt_ms, a finite
// non-negative buffer_mss and a parseable chaos schedule.
func (c *Cell) validate() error {
	if c.Senders < 1 || c.Senders > maxSenders {
		return fmt.Errorf("senders %d outside [1, %d]", c.Senders, maxSenders)
	}
	if c.Steps < 0 || c.Steps > maxSteps {
		return fmt.Errorf("steps %d outside [0, %d]", c.Steps, maxSteps)
	}
	if c.TailFrac < 0 || c.TailFrac >= 1 || !finite(c.TailFrac) {
		return fmt.Errorf("tail_frac %v outside [0, 1)", c.TailFrac)
	}
	if !finite(c.Mbps) || c.Mbps <= 0 {
		return fmt.Errorf("mbps %v must be finite and positive", c.Mbps)
	}
	if !finite(c.RTTms) || c.RTTms <= 0 {
		return fmt.Errorf("rtt_ms %v must be finite and positive", c.RTTms)
	}
	if !finite(c.BufferMSS) || c.BufferMSS < 0 {
		return fmt.Errorf("buffer_mss %v must be finite and non-negative", c.BufferMSS)
	}
	if _, err := protocol.Parse(c.Proto); err != nil {
		return err
	}
	if len(c.Chaos) > 0 {
		if _, err := chaos.Parse(c.Chaos); err != nil {
			return err
		}
	}
	return nil
}

// Expand enumerates the grid in deterministic order: protocols
// outermost, then mbps, rtt, buffer. The order is part of the contract
// — cell indexes are stable across resubmissions of the same spec.
func (sp *Spec) Expand() []Cell {
	cells := make([]Cell, 0, len(sp.Protocols)*len(sp.Link.Mbps)*len(sp.Link.RTTms)*len(sp.Link.BufferMSS))
	i := 0
	for _, ps := range sp.Protocols {
		for _, mbps := range sp.Link.Mbps {
			for _, rtt := range sp.Link.RTTms {
				for _, buf := range sp.Link.BufferMSS {
					cells = append(cells, Cell{
						Index:     i,
						Proto:     ps,
						Senders:   sp.Senders,
						Mbps:      mbps,
						RTTms:     rtt,
						BufferMSS: buf,
						Steps:     sp.Steps,
						TailFrac:  sp.TailFrac,
						Chaos:     sp.Chaos,
						ChaosSeed: sp.ChaosSeed,
					})
					i++
				}
			}
		}
	}
	return cells
}

// Key is the cell's canonical identity: the protocol's Fingerprint
// (semantic identity — "reno" and "aimd:1,0.5" collide on purpose),
// every numeric knob as IEEE-754 hex bits, and a digest of the chaos
// schedule. It is the run-store key cells dedupe and resume through, so
// two jobs that phrase the same cell differently share one simulation.
func (c *Cell) Key() (string, error) {
	p, err := protocol.Parse(c.Proto)
	if err != nil {
		return "", err
	}
	fp, ok := p.(protocol.Fingerprinter)
	if !ok {
		return "", fmt.Errorf("jobd: protocol %q has no fingerprint", c.Proto)
	}
	ch := "none"
	if len(c.Chaos) > 0 {
		var compact bytes.Buffer
		if err := json.Compact(&compact, c.Chaos); err != nil {
			return "", fmt.Errorf("jobd: chaos: %w", err)
		}
		sum := sha256.Sum256(compact.Bytes())
		ch = hex.EncodeToString(sum[:8])
	}
	return fmt.Sprintf("jobcell|proto=%s|n=%d|mbps=%s|rtt=%s|buf=%s|steps=%d|tail=%s|chaos=%s|cseed=%x",
		fp.Fingerprint(), c.Senders,
		hexBits(c.Mbps), hexBits(c.RTTms), hexBits(c.BufferMSS),
		c.Steps, hexBits(c.TailFrac), ch, c.ChaosSeed), nil
}

func hexBits(v float64) string {
	return strconv.FormatUint(math.Float64bits(v), 16)
}
