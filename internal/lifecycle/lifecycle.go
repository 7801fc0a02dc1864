// Package lifecycle gives every CLI one clean-exit story for SIGINT
// and SIGTERM. Batch schedulers, CI harnesses, and the axiomd daemon's
// shard supervisor all stop tools with SIGTERM; before this package,
// that path lost the run record. Install makes both signals equivalent:
// flush observability artifacts, exit with the conventional 128+signo
// status. Finished runs need no flush: the metrics Session writes each
// one to the run store as it finishes.
package lifecycle

import (
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/obs"
)

// exit is indirect so tests can observe the code instead of dying.
var exit = os.Exit

// Install arms a process-wide handler for SIGINT and SIGTERM. On the
// first signal it runs stop — the obs flag-set's stop func, which writes
// runrecord.json and closes any profiles — and exits 128+signo.
// A second signal during cleanup force-exits immediately, so a wedged
// flush can never make the process unkillable.
//
// Call it once, after obs.Flags.Start has produced the stop func. stop
// may be nil; it must be safe to call concurrently with the deferred
// call in main (obs stop funcs are idempotent).
func Install(tool string, stop func() error) {
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-ch
		go func() {
			<-ch
			exit(exitCode(sig))
		}()
		fmt.Fprintf(os.Stderr, "%s: %v: flushing run record\n", tool, sig)
		Drain(tool, sig.String(), stop)
		exit(exitCode(sig))
	}()
}

// Drain performs the cleanup half of Install without exiting: note the
// trigger in the flight recorder, then run stop. The axiomd daemon
// reuses it on graceful drain, where the process keeps serving /healthz
// while jobs wind down.
func Drain(tool, reason string, stop func() error) {
	obs.NoteEvent("signal", "lifecycle.drain", tool+" "+reason)
	if stop != nil {
		if err := stop(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
		}
	}
}

// exitCode maps a delivered signal to the shell convention 128+signo
// (SIGINT → 130, SIGTERM → 143); anything unrecognized exits 1.
func exitCode(sig os.Signal) int {
	if s, ok := sig.(syscall.Signal); ok {
		return 128 + int(s)
	}
	return 1
}
