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

// runMain re-execs this test binary to run main with args and returns
// its combined output and exit error.
func runMain(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestTailFlagRange$")
	cmd.Env = append(os.Environ(), mainArgsEnv+"="+strings.Join(args, " "))
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestTailFlagRange: -tail outside [0, 1), NaN included, is a usage
// error (exit 1, nothing simulated) instead of scoring a one-sample or
// empty tail; in-range values run.
func TestTailFlagRange(t *testing.T) {
	if args := os.Getenv(mainArgsEnv); args != "" {
		os.Args = append([]string{"axiomsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, tail := range []string{"2", "1", "-0.25", "NaN", "+Inf"} {
		out, err := runMain(t, "-nostore", "-steps", "100", "-tail", tail)
		if err == nil {
			t.Errorf("-tail %s: exit 0, want an error:\n%s", tail, out)
			continue
		}
		if !strings.Contains(out, "-tail") || strings.Contains(out, "tail metrics") {
			t.Errorf("-tail %s: output lacks the range error or shows scores:\n%s", tail, out)
		}
	}
	for _, tail := range []string{"0", "0.5"} {
		out, err := runMain(t, "-nostore", "-steps", "100", "-tail", tail)
		if err != nil || !strings.Contains(out, "tail metrics") {
			t.Errorf("-tail %s: err = %v, output:\n%s", tail, err, out)
		}
	}
}
