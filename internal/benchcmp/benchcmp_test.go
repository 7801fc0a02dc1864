package benchcmp

import (
	"strings"
	"testing"
)

const oldRec = `{
  "os": "linux", "arch": "amd64", "max_procs": 8,
  "serial_ns_per_op": 1000000,
  "engine_ns_per_op": 400000,
  "engine_allocs_per_op": 5000,
  "runs_simulated": 5,
  "steps_simulated": 30000,
  "grid_cells": 24,
  "grid_steps": 96000,
  "grid_steps_per_sec": 2000000,
  "speedup": 2.5
}`

func TestComparePasses(t *testing.T) {
	newRec := strings.Replace(oldRec, `"engine_ns_per_op": 400000`, `"engine_ns_per_op": 440000`, 1)
	rep, err := Compare([]byte(oldRec), []byte(newRec), 1.25)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressions != 0 {
		t.Fatalf("10%% slower flagged as regression at limit 1.25:\n%s", Format(rep))
	}
	if rep.TimingSkipped {
		t.Fatal("same machine shape skipped timing keys")
	}
	if len(rep.Results) < 4 {
		t.Fatalf("compared only %d keys", len(rep.Results))
	}
}

func TestCompareFlagsTimingRegression(t *testing.T) {
	newRec := strings.Replace(oldRec, `"engine_ns_per_op": 400000`, `"engine_ns_per_op": 600000`, 1)
	rep, err := Compare([]byte(oldRec), []byte(newRec), 1.25)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressions != 1 {
		t.Fatalf("50%% slowdown not flagged exactly once:\n%s", Format(rep))
	}
}

func TestCompareFlagsAllocRegression(t *testing.T) {
	newRec := strings.Replace(oldRec, `"engine_allocs_per_op": 5000`, `"engine_allocs_per_op": 9000`, 1)
	rep, err := Compare([]byte(oldRec), []byte(newRec), 1.25)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressions != 1 {
		t.Fatalf("80%% alloc growth not flagged:\n%s", Format(rep))
	}
}

func TestCompareExactCountersAlwaysBite(t *testing.T) {
	// Different machine AND more simulated runs: timing skipped, counter
	// regression still caught.
	newRec := strings.NewReplacer(
		`"max_procs": 8`, `"max_procs": 2`,
		`"runs_simulated": 5`, `"runs_simulated": 6`,
	).Replace(oldRec)
	rep, err := Compare([]byte(oldRec), []byte(newRec), 1.25)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TimingSkipped {
		t.Fatal("different max_procs did not skip timing keys")
	}
	for _, r := range rep.Results {
		if isTimingKey(r.Key) {
			t.Fatalf("timing key %s compared across machines", r.Key)
		}
	}
	if rep.Regressions != 1 {
		t.Fatalf("extra simulated run not flagged:\n%s", Format(rep))
	}
}

func TestCompareCounterDecreaseIsFine(t *testing.T) {
	newRec := strings.Replace(oldRec, `"steps_simulated": 30000`, `"steps_simulated": 20000`, 1)
	rep, err := Compare([]byte(oldRec), []byte(newRec), 1.25)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressions != 0 {
		t.Fatalf("doing less work flagged as regression:\n%s", Format(rep))
	}
}

func TestCompareNewKeysTolerated(t *testing.T) {
	// A fresh record with a key the committed baseline predates must not
	// fail — that is exactly the rollout state of a new metric.
	newRec := strings.Replace(oldRec, `"speedup": 2.5`,
		`"speedup": 2.5, "brand_new_ns_per_op": 123`, 1)
	rep, err := Compare([]byte(oldRec), []byte(newRec), 1.25)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressions != 0 {
		t.Fatalf("baseline-missing key flagged:\n%s", Format(rep))
	}
}

func TestCompareFlagsThroughputDrop(t *testing.T) {
	// grid_steps_per_sec is a rate: it regresses when it FALLS below
	// 1/limit of the baseline, and a rise is never a regression.
	drop := strings.Replace(oldRec, `"grid_steps_per_sec": 2000000`, `"grid_steps_per_sec": 1500000`, 1)
	rep, err := Compare([]byte(oldRec), []byte(drop), 1.25)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressions != 1 {
		t.Fatalf("25%% throughput drop not flagged exactly once:\n%s", Format(rep))
	}
	rise := strings.Replace(oldRec, `"grid_steps_per_sec": 2000000`, `"grid_steps_per_sec": 9000000`, 1)
	rep, err = Compare([]byte(oldRec), []byte(rise), 1.25)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressions != 0 {
		t.Fatalf("throughput gain flagged as regression:\n%s", Format(rep))
	}
	// Small wobble within the limit passes.
	wobble := strings.Replace(oldRec, `"grid_steps_per_sec": 2000000`, `"grid_steps_per_sec": 1800000`, 1)
	rep, err = Compare([]byte(oldRec), []byte(wobble), 1.25)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressions != 0 {
		t.Fatalf("10%% throughput wobble flagged at limit 1.25:\n%s", Format(rep))
	}
}

func TestCompareRateKeySkippedAcrossMachines(t *testing.T) {
	newRec := strings.NewReplacer(
		`"max_procs": 8`, `"max_procs": 2`,
		`"grid_steps_per_sec": 2000000`, `"grid_steps_per_sec": 100`,
	).Replace(oldRec)
	rep, err := Compare([]byte(oldRec), []byte(newRec), 1.25)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if isRateKey(r.Key) {
			t.Fatalf("rate key %s compared across machine shapes", r.Key)
		}
	}
	if rep.Regressions != 0 {
		t.Fatalf("cross-machine rate drop flagged:\n%s", Format(rep))
	}
}

func TestCompareGridCountersBite(t *testing.T) {
	// grid_steps is an exact work counter: silently growing the benchmark
	// grid must fail the gate even across machines.
	newRec := strings.NewReplacer(
		`"max_procs": 8`, `"max_procs": 2`,
		`"grid_steps": 96000`, `"grid_steps": 96001`,
	).Replace(oldRec)
	rep, err := Compare([]byte(oldRec), []byte(newRec), 1.25)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressions != 1 {
		t.Fatalf("grid_steps growth not flagged:\n%s", Format(rep))
	}
}

const declRec = `{
  "os": "linux", "arch": "amd64", "max_procs": 8,
  "exact_keys": ["cells_evaluated", "cells_simulated"],
  "floor_keys": ["frontier_points", "cells_reduction"],
  "cells_evaluated": 339,
  "cells_simulated": 338,
  "frontier_points": 45,
  "cells_reduction": 12.4,
  "explore_ns_per_op": 500000000
}`

func TestCompareDeclaredExactKeysBite(t *testing.T) {
	// A record-declared exact key regresses on increase even across
	// machine shapes, exactly like the built-in counters.
	newRec := strings.NewReplacer(
		`"max_procs": 8`, `"max_procs": 2`,
		`"cells_simulated": 338`, `"cells_simulated": 400`,
	).Replace(declRec)
	rep, err := Compare([]byte(declRec), []byte(newRec), 1.25)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TimingSkipped {
		t.Fatal("different max_procs did not skip timing keys")
	}
	if rep.Regressions != 1 {
		t.Fatalf("declared exact key growth not flagged exactly once:\n%s", Format(rep))
	}
}

func TestCompareDeclaredExactKeyBeatsSuffixRule(t *testing.T) {
	// An _allocs_per_op key declared exact is compared exactly: one
	// extra allocation regresses although it is far inside the timing
	// limit, and a different machine shape does not skip it.
	const rec = `{
  "os": "linux", "arch": "amd64", "max_procs": 8,
  "exact_keys": ["packet_allocs_per_op"],
  "packet_allocs_per_op": 45,
  "packet_ns_per_op": 1000000
}`
	for _, shape := range []string{`"max_procs": 8`, `"max_procs": 2`} {
		newRec := strings.NewReplacer(
			`"max_procs": 8`, shape,
			`"packet_allocs_per_op": 45`, `"packet_allocs_per_op": 46`,
		).Replace(rec)
		rep, err := Compare([]byte(rec), []byte(newRec), 1.25)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Regressions != 1 {
			t.Fatalf("%s: one extra alloc on a declared exact key not flagged exactly once:\n%s", shape, Format(rep))
		}
	}
	fewer := strings.Replace(rec, `"packet_allocs_per_op": 45`, `"packet_allocs_per_op": 30`, 1)
	rep, err := Compare([]byte(rec), []byte(fewer), 1.25)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressions != 0 {
		t.Fatalf("fewer allocs flagged as regression:\n%s", Format(rep))
	}
}

func TestCompareDeclaredFloorKeysBite(t *testing.T) {
	// Floor keys are quality counters: shrinking them regresses, growing
	// them is fine.
	shrink := strings.Replace(declRec, `"frontier_points": 45`, `"frontier_points": 30`, 1)
	rep, err := Compare([]byte(declRec), []byte(shrink), 1.25)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressions != 1 {
		t.Fatalf("frontier shrink not flagged exactly once:\n%s", Format(rep))
	}
	grow := strings.NewReplacer(
		`"frontier_points": 45`, `"frontier_points": 60`,
		`"cells_reduction": 12.4`, `"cells_reduction": 15.0`,
	).Replace(declRec)
	rep, err = Compare([]byte(declRec), []byte(grow), 1.25)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressions != 0 {
		t.Fatalf("quality improvement flagged as regression:\n%s", Format(rep))
	}
}

func TestCompareDeclaredKeysUnionedFromBothRecords(t *testing.T) {
	// A baseline that predates the declaration still gates: the candidate
	// declares the keys, and the baseline happens to carry values.
	oldNoDecl := strings.Replace(declRec,
		`  "exact_keys": ["cells_evaluated", "cells_simulated"],
  "floor_keys": ["frontier_points", "cells_reduction"],
`, "", 1)
	if oldNoDecl == declRec {
		t.Fatal("test fixture edit failed")
	}
	newRec := strings.Replace(declRec, `"cells_evaluated": 339`, `"cells_evaluated": 500`, 1)
	rep, err := Compare([]byte(oldNoDecl), []byte(newRec), 1.25)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressions != 1 {
		t.Fatalf("candidate-declared exact key not gated against undeclared baseline:\n%s", Format(rep))
	}
}

func TestCompareDeclaredKeyMissingFromBaselineWarns(t *testing.T) {
	oldNoKey := strings.Replace(declRec, `  "cells_reduction": 12.4,`+"\n", "", 1)
	if oldNoKey == declRec {
		t.Fatal("test fixture edit failed")
	}
	rep, err := Compare([]byte(oldNoKey), []byte(declRec), 1.25)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressions != 0 {
		t.Fatalf("baseline-missing declared key counted as regression:\n%s", Format(rep))
	}
	if len(rep.MissingOld) != 1 || rep.MissingOld[0] != "cells_reduction" {
		t.Fatalf("MissingOld = %v, want [cells_reduction]", rep.MissingOld)
	}
}

func TestCompareMalformedDeclarationIgnored(t *testing.T) {
	// A non-array declaration degrades to "not gated" rather than erroring.
	bad := strings.Replace(declRec,
		`"exact_keys": ["cells_evaluated", "cells_simulated"]`,
		`"exact_keys": "cells_evaluated"`, 1)
	worse := strings.Replace(bad, `"cells_evaluated": 339`, `"cells_evaluated": 500`, 1)
	rep, err := Compare([]byte(bad), []byte(worse), 1.25)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if r.Key == "cells_evaluated" {
			t.Fatalf("malformed declaration still gated cells_evaluated:\n%s", Format(rep))
		}
	}
}

func TestCompareRejectsBadInput(t *testing.T) {
	if _, err := Compare([]byte("not json"), []byte(oldRec), 1.25); err == nil {
		t.Fatal("malformed old record accepted")
	}
	if _, err := Compare([]byte(oldRec), []byte(oldRec), 0); err == nil {
		t.Fatal("zero limit accepted")
	}
}

// TestCompareMissingBaselineKeyWarns pins the graceful-degradation
// contract: a gated key that exists only in the candidate (a metric that
// just landed) is reported as a warning, never as a regression.
func TestCompareMissingBaselineKeyWarns(t *testing.T) {
	stripped := strings.Replace(oldRec, `  "grid_steps_per_sec": 2000000,`+"\n", "", 1)
	// Also drop an ungated key (speedup) to verify only gated keys warn.
	stripped = strings.Replace(stripped, `,
  "speedup": 2.5`, "", 1)
	if stripped == oldRec || strings.Contains(stripped, "speedup") {
		t.Fatal("test fixture edit failed")
	}
	rep, err := Compare([]byte(stripped), []byte(oldRec), 1.25)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressions != 0 {
		t.Fatalf("missing baseline key counted as regression:\n%s", Format(rep))
	}
	if len(rep.MissingOld) != 1 || rep.MissingOld[0] != "grid_steps_per_sec" {
		t.Fatalf("MissingOld = %v, want [grid_steps_per_sec]", rep.MissingOld)
	}
	out := Format(rep)
	if !strings.Contains(out, "warning: grid_steps_per_sec absent from baseline") {
		t.Fatalf("Format missing warning line:\n%s", out)
	}
	// Ungated keys (speedup has no gated suffix) never warn.
	for _, k := range rep.MissingOld {
		if k == "speedup" {
			t.Fatal("ungated key reported as missing")
		}
	}
}
