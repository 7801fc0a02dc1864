package engine

import (
	"flag"
	"sync"
	"time"
)

// Hardening is the process-wide default for the SweepConfig hardening
// fields, so CLI tools can mount one flag set and have the sweeps in the
// process honor it. CellTimeout and Retries apply to every sweep whose
// config leaves them zero.
type Hardening struct {
	// CellTimeout bounds each cell attempt (0 = none).
	CellTimeout time.Duration
	// Retries is the per-cell transient-failure retry budget.
	Retries int
}

var (
	hardeningMu sync.Mutex
	hardening   Hardening
)

// SetHardening installs the process-wide defaults.
func SetHardening(h Hardening) {
	hardeningMu.Lock()
	hardening = h
	hardeningMu.Unlock()
}

// applyHardening fills zero-valued timeout/retry fields of cfg from the
// process-wide defaults.
func applyHardening(cfg *SweepConfig) {
	hardeningMu.Lock()
	h := hardening
	hardeningMu.Unlock()
	if cfg.CellTimeout == 0 {
		cfg.CellTimeout = h.CellTimeout
	}
	if cfg.Retries == 0 {
		cfg.Retries = h.Retries
	}
}

// RegisterSweepFlags mounts -cell-timeout and -retries on fs (typically
// flag.CommandLine) and returns the holder to Apply after parsing.
func RegisterSweepFlags(fs *flag.FlagSet) *Hardening {
	h := &Hardening{}
	fs.DurationVar(&h.CellTimeout, "cell-timeout", 0, "per-cell attempt deadline for sweeps (0 = none)")
	fs.IntVar(&h.Retries, "retries", 0, "extra attempts for transiently failing sweep cells")
	return h
}

// Apply installs the parsed flag values as the process-wide hardening
// defaults.
func (h *Hardening) Apply() { SetHardening(*h) }
