// Package benchcmp compares a freshly generated benchmark baseline
// record (BENCH_sweep.json, BENCH_characterize.json) against a committed
// one and flags regressions. It is the engine behind CI's bench gate.
//
// Three classes of keys are compared:
//
//   - Timing and allocation keys (suffix _ns_per_op or _allocs_per_op)
//     regress when new/old exceeds the configured limit. They are only
//     comparable between records produced on the same machine shape
//     (os, arch, GOMAXPROCS); across machines they are skipped with a
//     reason rather than producing noise failures.
//   - Throughput keys (suffix _per_sec, e.g. grid_steps_per_sec) are the
//     timing keys' inverse: machine-shape-gated, regressing when the
//     rate drops below 1/limit of the baseline.
//   - Work counters (runs_simulated, steps_simulated, grid_cells,
//     grid_steps) are machine-independent and compared exactly: the
//     whole point of the caching layers is that the same grid costs the
//     same number of simulated runs everywhere, so any increase is a
//     real regression even on a different machine.
//
// Records can additionally declare their own machine-independent keys
// instead of relying on the built-in counter list: an "exact_keys"
// array names keys that regress on any increase (work counters), and a
// "floor_keys" array names keys that regress on any decrease (quality
// floors such as frontier_points). Declared keys from both records are
// unioned with the built-ins and compared regardless of machine shape,
// so a new benchmark file gates itself without a benchcmp change. A
// declaration takes precedence over the suffix rules above: a declared
// exact packet_allocs_per_op is compared exactly, not within the limit.
package benchcmp

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// exactKeys are machine-independent work counters where any increase
// regresses, regardless of where the records were produced.
var exactKeys = []string{"runs_simulated", "steps_simulated", "grid_cells", "grid_steps"}

// machineKeys identify the machine shape; all must match for timing and
// allocation comparisons to be meaningful.
var machineKeys = []string{"os", "arch", "max_procs"}

// Result is one compared key.
type Result struct {
	Key       string
	Old, New  float64
	Ratio     float64 // new/old (0 when old is 0)
	Regressed bool
}

// Report is the outcome of comparing one baseline pair.
type Report struct {
	// TimingSkipped is set when the machine shapes differ; timing keys
	// were not compared (counters still were).
	TimingSkipped bool
	SkipReason    string
	Results       []Result
	Regressions   int
	// MissingOld lists gated keys (timing, rate, exact) present in the
	// candidate but absent from the committed baseline. A newly landed
	// metric has no baseline yet — that is a warning, never a failure;
	// the gate tightens once the baseline is regenerated.
	MissingOld []string
}

// Compare checks newRaw against the committed oldRaw. limit is the
// allowed new/old ratio for timing/alloc keys (1.25 = +25%).
func Compare(oldRaw, newRaw []byte, limit float64) (Report, error) {
	var rep Report
	if limit <= 0 {
		return rep, fmt.Errorf("benchcmp: limit must be positive, got %v", limit)
	}
	oldRec, err := parse(oldRaw)
	if err != nil {
		return rep, fmt.Errorf("benchcmp: old record: %w", err)
	}
	newRec, err := parse(newRaw)
	if err != nil {
		return rep, fmt.Errorf("benchcmp: new record: %w", err)
	}

	// Keys the records declare for themselves, unioned across both so a
	// key dropped from the candidate still shows up (as absent → zero
	// value → regression for floors, missing for exacts).
	exact := keySet(exactKeys)
	addDeclared(exact, oldRec, "exact_keys")
	addDeclared(exact, newRec, "exact_keys")
	floor := map[string]bool{}
	addDeclared(floor, oldRec, "floor_keys")
	addDeclared(floor, newRec, "floor_keys")

	for _, k := range machineKeys {
		if fmt.Sprint(oldRec[k]) != fmt.Sprint(newRec[k]) {
			rep.TimingSkipped = true
			rep.SkipReason = fmt.Sprintf("machine shape differs (%s: %v vs %v); timing keys skipped",
				k, oldRec[k], newRec[k])
			break
		}
	}

	keys := make([]string, 0, len(newRec))
	for k := range newRec {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		nv, ok := newRec[k].(float64)
		if !ok {
			continue
		}
		ov, ok := oldRec[k].(float64)
		if !ok {
			// Key absent from the committed baseline: a gated key that
			// just landed degrades to a warning instead of blocking its
			// own first merge.
			if isTimingKey(k) || isRateKey(k) || exact[k] || floor[k] {
				rep.MissingOld = append(rep.MissingOld, k)
			}
			continue
		}
		// Declared exact and floor keys are machine-independent by
		// declaration, so they win over the timing and rate suffix rules:
		// an exact foo_allocs_per_op is gated on any growth everywhere.
		switch {
		case exact[k]:
			r := Result{Key: k, Old: ov, New: nv, Regressed: nv > ov}
			if ov > 0 {
				r.Ratio = nv / ov
			}
			if r.Regressed {
				rep.Regressions++
			}
			rep.Results = append(rep.Results, r)
		case floor[k]:
			r := Result{Key: k, Old: ov, New: nv, Regressed: nv < ov}
			if ov > 0 {
				r.Ratio = nv / ov
			}
			if r.Regressed {
				rep.Regressions++
			}
			rep.Results = append(rep.Results, r)
		case isTimingKey(k):
			if rep.TimingSkipped {
				continue
			}
			r := Result{Key: k, Old: ov, New: nv}
			if ov > 0 {
				r.Ratio = nv / ov
				r.Regressed = r.Ratio > limit
			}
			if r.Regressed {
				rep.Regressions++
			}
			rep.Results = append(rep.Results, r)
		case isRateKey(k):
			if rep.TimingSkipped {
				continue
			}
			r := Result{Key: k, Old: ov, New: nv}
			if ov > 0 {
				r.Ratio = nv / ov
				r.Regressed = r.Ratio < 1/limit
			}
			if r.Regressed {
				rep.Regressions++
			}
			rep.Results = append(rep.Results, r)
		}
	}
	return rep, nil
}

func isTimingKey(k string) bool {
	return strings.HasSuffix(k, "_ns_per_op") || strings.HasSuffix(k, "_allocs_per_op")
}

// isRateKey reports throughput keys: higher is better, so they regress
// when the new/old ratio falls below the inverse limit.
func isRateKey(k string) bool {
	return strings.HasSuffix(k, "_per_sec")
}

func keySet(keys []string) map[string]bool {
	m := make(map[string]bool, len(keys))
	for _, k := range keys {
		m[k] = true
	}
	return m
}

// addDeclared folds a record's self-declared key list (a JSON string
// array under field) into set. Non-array or non-string entries are
// ignored: a malformed declaration degrades to "not gated", never to a
// parse failure of the whole comparison.
func addDeclared(set map[string]bool, rec map[string]any, field string) {
	arr, ok := rec[field].([]any)
	if !ok {
		return
	}
	for _, v := range arr {
		if s, ok := v.(string); ok && s != "" {
			set[s] = true
		}
	}
}

func parse(raw []byte) (map[string]any, error) {
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, err
	}
	return m, nil
}

// Format renders a report as an aligned human-readable table, one line
// per compared key, regressions marked.
func Format(rep Report) string {
	var sb strings.Builder
	if rep.TimingSkipped {
		fmt.Fprintf(&sb, "note: %s\n", rep.SkipReason)
	}
	for _, k := range rep.MissingOld {
		fmt.Fprintf(&sb, "warning: %s absent from baseline; not gated until the baseline is regenerated\n", k)
	}
	for _, r := range rep.Results {
		mark := "ok"
		if r.Regressed {
			mark = "REGRESSION"
		}
		fmt.Fprintf(&sb, "%-28s old=%-14.6g new=%-14.6g ratio=%-8.3f %s\n",
			r.Key, r.Old, r.New, r.Ratio, mark)
	}
	if len(rep.Results) == 0 {
		sb.WriteString("no comparable keys\n")
	}
	return sb.String()
}
