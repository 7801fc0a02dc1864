package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// mainArgsEnv carries the command line for a re-exec'd test binary that
// should run main instead of the tests.
const mainArgsEnv = "REPRODUCE_TEST_MAIN_ARGS"

func TestMain(m *testing.M) {
	if args := os.Getenv(mainArgsEnv); args != "" {
		os.Args = append([]string{"reproduce"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain re-execs this test binary to run main with -nostore and args
// and returns its stdout and stderr apart, and whether it exited 0.
func runMain(t *testing.T, args ...string) (stdout, stderr string, ok bool) {
	t.Helper()
	var out, errOut bytes.Buffer
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), mainArgsEnv+"="+strings.Join(append([]string{"-nostore"}, args...), " "))
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	return out.String(), errOut.String(), err == nil
}

// TestUnknownExperimentRejected: an -exp id no experiment has is an
// error listing the valid ids, and nothing runs.
func TestUnknownExperimentRejected(t *testing.T) {
	stdout, stderr, ok := runMain(t, "-exp", "nosuch")
	if ok {
		t.Error("exit 0, want an error")
	}
	for _, want := range []string{`reproduce: unknown experiment "nosuch"`, "table1, table1-sim,", "topo-axioms", "theorem5, all)"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr %q does not contain %q", stderr, want)
		}
	}
	if stdout != "" {
		t.Errorf("printed output:\n%s", stdout)
	}
}

// TestRemovedFlagsUndefined: the per-cell deadline and retry flags are
// gone, like the earlier -checkpoint, -resume and -nobatch.
func TestRemovedFlagsUndefined(t *testing.T) {
	for _, args := range [][]string{
		{"-cell-timeout", "1ns"}, {"-retries", "2"}, {"-checkpoint", "ckdir"}, {"-resume"}, {"-nobatch"},
	} {
		stdout, stderr, ok := runMain(t, append([]string{"-exp", "table1"}, args...)...)
		if ok {
			t.Errorf("%s: exit 0, want an undefined-flag error", args[0])
		}
		if want := "flag provided but not defined: " + args[0]; !strings.Contains(stderr, want) {
			t.Errorf("%s: stderr %q does not contain %q", args[0], stderr, want)
		}
		if stdout != "" {
			t.Errorf("%s: printed output:\n%s", args[0], stdout)
		}
	}
}

// TestTable1RejectsInvalidLink: -exp table1 refuses the links table1-sim
// refuses instead of printing closed forms for them.
func TestTable1RejectsInvalidLink(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-n", "0"}, "reproduce: table1: axioms: need at least one sender, got 0\n"},
		{[]string{"-buffer", "-1"}, "reproduce: table1: fluid: buffer must be non-negative, got -1\n"},
		{[]string{"-buffer", "NaN"}, "reproduce: table1: fluid: buffer must be non-negative, got NaN\n"},
		{[]string{"-mbps", "NaN"}, "reproduce: table1: fluid: bandwidth must be positive and finite, got NaN\n"},
		{[]string{"-mbps", "0"}, "reproduce: table1: fluid: bandwidth must be positive and finite, got 0\n"},
	} {
		stdout, stderr, ok := runMain(t, append([]string{"-exp", "table1"}, c.args...)...)
		if ok {
			t.Errorf("%v: exit 0, want an error", c.args)
		}
		if stderr != c.want {
			t.Errorf("%v: stderr %q, want %q", c.args, stderr, c.want)
		}
		if strings.Contains(stdout, "Efficiency") {
			t.Errorf("%v: printed a table:\n%s", c.args, stdout)
		}
	}
	stdout, stderr, ok := runMain(t, "-exp", "table1")
	if !ok || !strings.Contains(stdout, "link: C=70.0 MSS, τ=100 MSS, n=2") || !strings.Contains(stdout, "Efficiency") {
		t.Errorf("default link: ok=%v stderr %q stdout:\n%s", ok, stderr, stdout)
	}
}
