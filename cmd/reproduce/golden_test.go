package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/exp_all_quick.golden")

// doneLine matches the per-experiment timing line, the only part of
// -exp output that varies between runs.
var doneLine = regexp.MustCompile(`(?m)^---- \S+ done in [^\n]* ----\n`)

// TestExpAllQuickGolden pins `-exp all -quick` stdout byte for byte,
// apart from the timing lines, at one and at four workers: a change in
// how any experiment is computed or rendered cannot move a printed
// character unnoticed, and the output does not depend on the worker
// count.
func TestExpAllQuickGolden(t *testing.T) {
	path := filepath.Join("testdata", "exp_all_quick.golden")
	for _, workers := range []int{1, 4} {
		stdout, stderr, ok := runMain(t, "-exp", "all", "-quick", "-workers", strconv.Itoa(workers))
		if !ok {
			t.Fatalf("-workers %d: %s", workers, stderr)
		}
		got := doneLine.ReplaceAllString(stdout, "")
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		if got != string(want) {
			t.Errorf("-workers %d: stdout differs from %s:\n%s", workers, path, got)
		}
	}
}
