package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"repro/internal/runstore"
	"repro/internal/scenario"
)

// setupsPerCycle is how many set-ups a run makes before each timed cycle
// or round. Spreading them over the whole run, rather than making them
// all at its start, gives setup_s hundreds of samples taken on the same
// machine state as the other metrics, so a short burst of process-start
// jitter cannot set the median.
const setupsPerCycle = 4

// setupChild is the in-process workloads' set-up, run in a fresh process
// so nothing is cached from an earlier one: open the run store (which
// hashes the simulation sources) and load and validate every scenario
// pack under scenarios/topo.
func setupChild(root, storeDir string) error {
	if _, err := runstore.Open(storeDir, runstore.Options{}); err != nil {
		return err
	}
	files, err := filepath.Glob(filepath.Join(root, "scenarios", "topo", "*.json"))
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("no scenarios under %s", filepath.Join(root, "scenarios", "topo"))
	}
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return err
		}
		sp, err := scenario.Load(fh)
		fh.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		if err := sp.Validate(); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
	}
	return nil
}

// inprocSetup returns one in-process set-up: setupChild in a new
// process, timed from exec to exit in seconds. Every set-up opens the
// same existing store directory, so set-up time does not include creating
// directories on the disk.
func inprocSetup(e *env) (func() (float64, error), error) {
	self := filepath.Join(e.bin, "perfbench")
	dir, err := os.MkdirTemp(e.tmp, "setup-")
	if err != nil {
		return nil, err
	}
	return func() (float64, error) {
		cmd := exec.Command(self, "-root", e.root, "-setup-child", dir)
		cmd.Stderr = os.Stderr
		start := time.Now()
		err := cmd.Run()
		secs := time.Since(start).Seconds()
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		return secs, nil
	}, nil
}

// setups performs setupsPerCycle set-ups with one and appends their
// times to secs.
func setups(one func() (float64, error), secs *[]float64) error {
	for i := 0; i < setupsPerCycle; i++ {
		t, err := one()
		if err != nil {
			return err
		}
		*secs = append(*secs, t)
	}
	return nil
}
