package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainSplit re-execs this test binary to run main with args and
// returns its stdout and stderr apart, and whether it exited 0.
func runMainSplit(t *testing.T, args ...string) (stdout, stderr string, ok bool) {
	t.Helper()
	var out, errOut bytes.Buffer
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), mainArgsEnv+"="+strings.Join(args, " "))
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	return out.String(), errOut.String(), err == nil
}

// TestUsageErrorsPrintOnePrefix: a bad -protocols or -init value is
// reported in one line with one "axiomsim: " prefix, before anything is
// simulated.
func TestUsageErrorsPrintOnePrefix(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-protocols="}, "axiomsim: no protocols given\n"},
		{[]string{"-protocols", "0.5,reno"}, "axiomsim: dangling parameter \"0.5\" in -protocols\n"},
		{[]string{"-init", "1,abc"}, "axiomsim: bad initial window \"abc\"\n"},
	} {
		stdout, stderr, ok := runMainSplit(t, append([]string{"-nostore", "-steps", "50"}, c.args...)...)
		if ok {
			t.Errorf("%v: exit 0, want an error", c.args)
		}
		if stderr != c.want {
			t.Errorf("%v: stderr %q, want %q", c.args, stderr, c.want)
		}
		if stdout != "" {
			t.Errorf("%v: printed a result:\n%s", c.args, stdout)
		}
	}
}

// TestNaNInitRejected: a NaN initial window is an error naming the
// sender on either model, instead of a divergence report (fluid) or a
// silently scored run (packet).
func TestNaNInitRejected(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-protocols", "reno,reno", "-steps", "50", "-init", "NaN,1"}, "fluid: sender 0 has a NaN initial window"},
		{[]string{"-protocols", "reno,reno", "-steps", "50", "-init", "1,NaN"}, "fluid: sender 1 has a NaN initial window"},
		{[]string{"-model", "packet", "-duration", "1", "-init", "NaN,NaN"}, "packetsim: flow 0 has a NaN initial window"},
	} {
		stdout, stderr, ok := runMainSplit(t, append([]string{"-nostore"}, c.args...)...)
		if ok {
			t.Errorf("%v: exit 0, want an error", c.args)
		}
		if !strings.Contains(stderr, c.want) || strings.Count(stderr, "\n") != 1 {
			t.Errorf("%v: stderr %q, want one line naming %q", c.args, stderr, c.want)
		}
		if strings.Contains(stdout, "utilization") || strings.Contains(stdout, "tail metrics") {
			t.Errorf("%v: printed scores:\n%s", c.args, stdout)
		}
	}
}
