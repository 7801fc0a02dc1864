package lifecycle

import (
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

func TestExitCode(t *testing.T) {
	if got := exitCode(syscall.SIGTERM); got != 143 {
		t.Fatalf("exitCode(SIGTERM) = %d, want 143", got)
	}
	if got := exitCode(os.Interrupt); got != 130 {
		t.Fatalf("exitCode(SIGINT) = %d, want 130", got)
	}
}

func TestDrainRunsStop(t *testing.T) {
	var calls atomic.Int32
	Drain("testtool", "unit", func() error {
		calls.Add(1)
		return nil
	})
	if calls.Load() != 1 {
		t.Fatalf("stop ran %d times, want 1", calls.Load())
	}
	// nil stop must not panic.
	Drain("testtool", "unit", nil)
}

func TestInstallHandlesSIGTERM(t *testing.T) {
	exited := make(chan int, 1)
	orig := exit
	exit = func(code int) {
		exited <- code
		// Park the handler goroutine: the real os.Exit never returns.
		select {}
	}
	defer func() { exit = orig }()
	// Stop delivering to this Install's channel afterwards: its handler
	// stays parked on a second signal, and under -count=N the next
	// run's SIGTERM would otherwise reach it and exit early.
	defer signal.Reset(os.Interrupt, syscall.SIGTERM)

	stopped := make(chan struct{})
	Install("testtool", func() error {
		close(stopped)
		return nil
	})
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exited:
		if code != 143 {
			t.Fatalf("exit code %d, want 143", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SIGTERM handler never exited")
	}
	select {
	case <-stopped:
	default:
		t.Fatal("exit reached before stop ran")
	}
}
