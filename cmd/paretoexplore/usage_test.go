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
const mainArgsEnv = "PARETOEXPLORE_TEST_MAIN_ARGS"

func TestMain(m *testing.M) {
	if args := os.Getenv(mainArgsEnv); args != "" {
		os.Args = append([]string{"paretoexplore"}, strings.Fields(args)...)
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

// TestPointRejectsNonFiniteCoordinates: -point scores only finite
// coordinates; a NaN or infinite one prints no ceiling and no verdict
// and fails.
func TestPointRejectsNonFiniteCoordinates(t *testing.T) {
	for _, c := range []struct {
		point string
		want  string
	}{
		{"NaN,0.5,0.01", "paretoexplore: coordinate \"NaN\" must be finite\n"},
		{"1,+Inf,0.01", "paretoexplore: coordinate \"+Inf\" must be finite\n"},
		{"1,0.5,-Inf", "paretoexplore: coordinate \"-Inf\" must be finite\n"},
	} {
		stdout, stderr, ok := runMain(t, "-point", c.point)
		if ok {
			t.Errorf("-point %s: exit 0, want an error", c.point)
		}
		if stderr != c.want {
			t.Errorf("-point %s: stderr %q, want %q", c.point, stderr, c.want)
		}
		if stdout != "" {
			t.Errorf("-point %s: printed output:\n%s", c.point, stdout)
		}
	}
}

// TestPointRejectsInvalidTheorem3Link: the -point … -eps test scores
// Theorem 3 only on a link with a positive, finite capacity, a
// non-negative, finite buffer, ε < 1 and C+τ > α/2; otherwise it prints
// no ceiling and no verdict and fails.
func TestPointRejectsInvalidTheorem3Link(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-capacity", "NaN"}, "paretoexplore: axioms: capacity must be positive and finite, got NaN\n"},
		{[]string{"-capacity", "0"}, "paretoexplore: axioms: capacity must be positive and finite, got 0\n"},
		{[]string{"-capacity", "-5"}, "paretoexplore: axioms: capacity must be positive and finite, got -5\n"},
		{[]string{"-capacity", "+Inf"}, "paretoexplore: axioms: capacity must be positive and finite, got +Inf\n"},
		{[]string{"-tau", "-20"}, "paretoexplore: axioms: buffer must be non-negative and finite, got -20\n"},
		{[]string{"-tau", "NaN"}, "paretoexplore: axioms: buffer must be non-negative and finite, got NaN\n"},
		{[]string{"-eps", "1"}, "paretoexplore: robustness ε must be in [0,1), got 1\n"},
		{[]string{"-capacity", "1", "-tau", "0", "-point", "4,0.5,0.01"}, "paretoexplore: theorem 3 requires C+τ > α/2, got C+τ=1, α=4\n"},
	} {
		args := append([]string{"-point", "1,0.5,0.01", "-eps", "0.01"}, c.args...)
		stdout, stderr, ok := runMain(t, args...)
		if ok {
			t.Errorf("%v: exit 0, want an error", c.args)
		}
		if stderr != c.want {
			t.Errorf("%v: stderr %q, want %q", c.args, stderr, c.want)
		}
		if stdout != "" {
			t.Errorf("%v: printed output:\n%s", c.args, stdout)
		}
	}
	stdout, stderr, ok := runMain(t, "-point", "1,0.5,0.01", "-eps", "0.01")
	if !ok || !strings.Contains(stdout, "Theorem 3 ceiling with ε=0.01 on C=100 τ=20: 0.002067") ||
		!strings.Contains(stdout, "feasible (Theorem 3): false") {
		t.Errorf("default link: ok=%v stderr %q stdout:\n%s", ok, stderr, stdout)
	}
}

// TestCheckRejectsInvalidPairs: -check runs AIMD(a, b) only for finite
// a > 0 and 0 < b < 1; any other pair is named in the error before
// anything is simulated or printed, and the run fails.
func TestCheckRejectsInvalidPairs(t *testing.T) {
	const rangeErr = `AIMD(a, b) needs a > 0 and 0 < b < 1`
	for _, c := range []struct {
		check string
		want  string
	}{
		{"NaN,0.5", `paretoexplore: bad -check pair "NaN,0.5": coordinate "NaN" must be finite` + "\n"},
		{"1,Inf", `paretoexplore: bad -check pair "1,Inf": coordinate "Inf" must be finite` + "\n"},
		{"-1,0.5", `paretoexplore: bad -check pair "-1,0.5": ` + rangeErr + "\n"},
		{"1,1.5", `paretoexplore: bad -check pair "1,1.5": ` + rangeErr + "\n"},
		{"0,0.5", `paretoexplore: bad -check pair "0,0.5": ` + rangeErr + "\n"},
		{"1,0", `paretoexplore: bad -check pair "1,0": ` + rangeErr + "\n"},
		{"1,0.5;2,1", `paretoexplore: bad -check pair "2,1": ` + rangeErr + "\n"},
		{"1,0.5,3", `paretoexplore: bad -check pair "1,0.5,3": want a,b — got "1,0.5,3"` + "\n"},
	} {
		stdout, stderr, ok := runMain(t, "-check", c.check, "-steps", "50")
		if ok {
			t.Errorf("-check %s: exit 0, want an error", c.check)
		}
		if stderr != c.want {
			t.Errorf("-check %s: stderr %q, want %q", c.check, stderr, c.want)
		}
		if stdout != "" {
			t.Errorf("-check %s: printed output:\n%s", c.check, stdout)
		}
	}
	// A bad -check pair fails before -point prints anything.
	if stdout, _, ok := runMain(t, "-point", "1,0.5,1", "-check", "0,0.5"); ok || stdout != "" {
		t.Errorf("-point with a bad -check: ok=%v printed output:\n%s", ok, stdout)
	}
}
