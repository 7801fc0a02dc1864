package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// mainArgsEnv carries the command line for a re-exec'd test binary that
// should run main instead of the tests.
const mainArgsEnv = "AXCHECK_TEST_MAIN_ARGS"

// TestMain runs main instead of the tests when mainArgsEnv is set.
func TestMain(m *testing.M) {
	if args := os.Getenv(mainArgsEnv); args != "" {
		os.Args = append([]string{"axcheck"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain re-execs this test binary to run main with args and returns
// its stdout, its stderr and its exit status.
func runMain(t *testing.T, args ...string) (stdout, stderr string, status int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), mainArgsEnv+"="+strings.Join(args, " "))
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		status = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), status
}

// TestUsageErrorsPrintOnePrefix: a bad claim, claimed score or link is a
// usage error (exit 2) reported in one line with one "axcheck: " prefix,
// before anything is searched.
func TestUsageErrorsPrintOnePrefix(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-alpha", "NaN"}, "axcheck: claimed score is NaN\n"},
		{[]string{"-buffer", "NaN"}, "axcheck: fluid: buffer must be non-negative, got NaN\n"},
		{[]string{"-claim", "bogus"}, "axcheck: unknown claim \"bogus\"\n"},
	} {
		stdout, stderr, status := runMain(t, append([]string{"-nostore"}, c.args...)...)
		if status != 2 {
			t.Errorf("%v: exit status %d, want 2", c.args, status)
		}
		if stderr != c.want {
			t.Errorf("%v: stderr %q, want %q", c.args, stderr, c.want)
		}
		if stdout != "" {
			t.Errorf("%v: printed a search result:\n%s", c.args, stdout)
		}
	}
}
