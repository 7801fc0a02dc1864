package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// mainArgsEnv carries the command line for a re-exec'd test binary that
// should run main instead of the tests.
const mainArgsEnv = "AXIOMSIM_TEST_MAIN_ARGS"

// TestMain runs main instead of the tests when mainArgsEnv is set.
func TestMain(m *testing.M) {
	if args := os.Getenv(mainArgsEnv); args != "" {
		os.Args = append([]string{"axiomsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain re-execs this test binary to run main with args and returns
// its combined output and exit error.
func runMain(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), mainArgsEnv+"="+strings.Join(args, " "))
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// wantUsageError asserts that main exited with an error naming flag and
// printed no scores.
func wantUsageError(t *testing.T, flag string, args ...string) {
	t.Helper()
	out, err := runMain(t, args...)
	if err == nil {
		t.Errorf("%v: exit 0, want an error:\n%s", args, out)
		return
	}
	if !strings.Contains(out, flag) || strings.Contains(out, "tail metrics") || strings.Contains(out, "utilization") {
		t.Errorf("%v: output lacks the %s error or shows scores:\n%s", args, flag, out)
	}
}

// TestTailFlagRange: -tail outside [0, 1), NaN included, is a usage
// error (exit 1, nothing simulated) instead of scoring a one-sample or
// empty tail; in-range values run, and 0 selects the default tail on
// either model, as it does for every estimator.
func TestTailFlagRange(t *testing.T) {
	for _, tail := range []string{"2", "1", "-0.25", "NaN", "+Inf"} {
		wantUsageError(t, "-tail", "-nostore", "-steps", "100", "-tail", tail)
	}
	for _, tail := range []string{"0", "0.5"} {
		out, err := runMain(t, "-nostore", "-steps", "100", "-tail", tail)
		if err != nil || !strings.Contains(out, "tail metrics") {
			t.Errorf("-tail %s: err = %v, output:\n%s", tail, err, out)
		}
	}
	for _, model := range [][]string{{"-steps", "100"}, {"-model", "packet", "-duration", "1"}} {
		run := func(tail string) string {
			return runStdout(t, append([]string{"-nostore", "-protocols", "reno,cubic", "-tail", tail}, model...)...)
		}
		if zero, def := run("0"), run("0.75"); zero != def {
			t.Errorf("%v: -tail 0 printed\n%s\nwant the -tail 0.75 output\n%s", model, zero, def)
		}
	}
}

// TestLossFlagRange: -loss outside [0, 1), NaN included, is a usage
// error on either model instead of a panic or a silently lossless link.
func TestLossFlagRange(t *testing.T) {
	for _, loss := range []string{"1.5", "1", "-0.1", "NaN", "+Inf"} {
		wantUsageError(t, "-loss", "-nostore", "-steps", "100", "-loss", loss)
		wantUsageError(t, "-loss", "-nostore", "-model", "packet", "-duration", "1", "-loss", loss)
	}
	out, err := runMain(t, "-nostore", "-steps", "100", "-loss", "0.01")
	if err != nil || !strings.Contains(out, "tail metrics") {
		t.Errorf("-loss 0.01: err = %v, output:\n%s", err, out)
	}
}

// TestPacketBufferFlagRange: a packet-model -buffer that is not a finite,
// non-negative int is a usage error instead of a wrapped packet count.
func TestPacketBufferFlagRange(t *testing.T) {
	for _, buf := range []string{"NaN", "+Inf", "-Inf", "-1", "1e19"} {
		wantUsageError(t, "-buffer", "-nostore", "-model", "packet", "-duration", "1", "-buffer", buf)
	}
	out, err := runMain(t, "-nostore", "-model", "packet", "-duration", "1", "-buffer", "20")
	if err != nil || !strings.Contains(out, "buffer=20 pkts") {
		t.Errorf("-buffer 20: err = %v, output:\n%s", err, out)
	}
}
