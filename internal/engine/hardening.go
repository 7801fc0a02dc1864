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
	// NoBatch disables the grid-batch fast path process-wide (the
	// -nobatch escape hatch).
	NoBatch bool
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
	if h.NoBatch {
		cfg.NoBatch = true
	}
}

// SweepFlags holds the parsed values of the shared sweep-hardening
// flags. Mount with RegisterSweepFlags before flag.Parse, then call
// Apply once parsing is done.
type SweepFlags struct {
	CellTimeout time.Duration
	Retries     int
	// Checkpoint is the -checkpoint path: a run store directory the tool
	// uses in place of -store, even under -nostore (see storeflags).
	Checkpoint string
	NoBatch    bool
}

// RegisterSweepFlags mounts -cell-timeout, -retries, -checkpoint,
// -resume, and -nobatch on fs (typically flag.CommandLine) and returns
// the holder to Apply after parsing. -resume is accepted for
// compatibility and does nothing: completed cells of a keyed sweep are
// in the store the moment they finish, so resuming is running the same
// command again.
func RegisterSweepFlags(fs *flag.FlagSet) *SweepFlags {
	f := &SweepFlags{}
	fs.DurationVar(&f.CellTimeout, "cell-timeout", 0, "per-cell attempt deadline for sweeps (0 = none)")
	fs.IntVar(&f.Retries, "retries", 0, "extra attempts for transiently failing sweep cells")
	fs.StringVar(&f.Checkpoint, "checkpoint", "", "use the run store at this directory (overrides -store and -nostore); rerunning a command resumes it")
	fs.Bool("resume", false, "deprecated, does nothing: rerunning a command against the same store resumes it")
	fs.BoolVar(&f.NoBatch, "nobatch", false, "disable batched grid stepping; run every sweep cell individually")
	return f
}

// Apply installs the parsed flag values as the process-wide hardening
// defaults.
func (f *SweepFlags) Apply() {
	SetHardening(Hardening{
		CellTimeout: f.CellTimeout,
		Retries:     f.Retries,
		NoBatch:     f.NoBatch,
	})
}
