package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/stdout_golden.json")

// goldenRun is one pinned command line and the exact stdout main prints
// for it.
type goldenRun struct {
	Args   []string `json:"args"`
	Stdout string   `json:"stdout"`
}

// goldenArgs are the pinned command lines: the fluid model with the
// default tail, a shorter tail, a lossy and an infinite link, and the
// packet model.
var goldenArgs = [][]string{
	{"-nostore", "-protocols", "reno,cubic", "-steps", "400"},
	{"-nostore", "-protocols", "reno,cubic", "-steps", "400", "-tail", "0.5"},
	{"-nostore", "-protocols", "reno,cubic", "-steps", "400", "-loss", "0.01"},
	{"-nostore", "-protocols", "reno,cubic", "-steps", "400", "-infinite"},
	{"-nostore", "-protocols", "reno,cubic", "-model", "packet", "-duration", "2"},
}

// runStdout re-execs this test binary to run main with args and returns
// its stdout alone.
func runStdout(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), mainArgsEnv+"="+strings.Join(args, " "))
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%v: %v\n%s", args, err, stderr.String())
	}
	return stdout.String()
}

// TestStdoutGolden pins axiomsim's printed summary byte for byte, so a
// change in how it scores a run cannot move a printed digit unnoticed.
func TestStdoutGolden(t *testing.T) {
	got := make([]goldenRun, len(goldenArgs))
	for i, args := range goldenArgs {
		got[i] = goldenRun{Args: args, Stdout: runStdout(t, args...)}
	}
	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')
	path := filepath.Join("testdata", "stdout_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(raw, want) {
		return
	}
	var pinned []goldenRun
	if err := json.Unmarshal(want, &pinned); err != nil {
		t.Fatal(err)
	}
	if len(pinned) != len(got) {
		t.Fatalf("golden pins %d runs, test has %d", len(pinned), len(got))
	}
	for i := range got {
		if strings.Join(got[i].Args, " ") != strings.Join(pinned[i].Args, " ") || got[i].Stdout != pinned[i].Stdout {
			t.Errorf("%v: stdout\n%s\nwant %v:\n%s", got[i].Args, got[i].Stdout, pinned[i].Args, pinned[i].Stdout)
		}
	}
}
