package runstore

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// exemptPackages are internal packages that may appear in the simulation
// import closure without participating in the source hash: they sit on
// the observation/caching side of the cache boundary and cannot change
// what a simulation computes.
//
//   - internal/obs: telemetry — counters, spans, profiles. Read-only
//     taps; disabling it is the documented no-op baseline.
//   - internal/runstore: the cache layer itself. Hashing it would be
//     circular (its key schema is already versioned by SchemaVersion),
//     and by construction it only stores and replays results.
//   - internal/parallel: work scheduling for sweep cells. Cells are
//     independent and deterministic; execution order cannot change any
//     cell's value.
//   - internal/retry: re-execution policy around transient failures; a
//     retried run recomputes the same deterministic result.
var exemptPackages = map[string]bool{
	"internal/obs":      true,
	"internal/runstore": true,
	"internal/parallel": true,
	"internal/retry":    true,
}

// simulationRoots are the packages whose import closure defines "can
// affect a stored value": every substrate runs through internal/engine,
// and every value the store holds is a run result internal/metrics
// builds. Packages that only consume those results (experiment, pareto,
// axioms) write nothing to the store and stay out of the hash.
var simulationRoots = []string{"internal/engine", "internal/metrics"}

// internalImportClosure walks non-test imports from the roots, restricted
// to repro/internal packages.
func internalImportClosure(t *testing.T, root string) map[string]bool {
	t.Helper()
	const prefix = "repro/"
	seen := map[string]bool{}
	queue := append([]string(nil), simulationRoots...)
	for len(queue) > 0 {
		pkg := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if seen[pkg] {
			continue
		}
		seen[pkg] = true
		dir := filepath.Join(root, filepath.FromSlash(pkg))
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("read %s: %v", pkg, err)
		}
		fset := token.NewFileSet()
		for _, e := range ents {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
			if err != nil {
				t.Fatalf("parse %s/%s: %v", pkg, name, err)
			}
			for _, imp := range f.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				if strings.HasPrefix(path, prefix+"internal/") {
					queue = append(queue, strings.TrimPrefix(path, prefix))
				}
			}
		}
	}
	return seen
}

// TestSimulationPackagesCoverImportClosure fails when a package that can
// affect simulation output is listed in neither SimulationPackages nor
// the documented exempt set — the guard that forced internal/nettopo into
// the source hash, and will force the next substrate too.
func TestSimulationPackagesCoverImportClosure(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, p := range SimulationPackages {
		listed[p] = true
	}
	closure := internalImportClosure(t, root)
	for pkg := range closure {
		if !listed[pkg] && !exemptPackages[pkg] {
			t.Errorf("%s is imported by the simulation path but missing from SimulationPackages (or the exempt list)", pkg)
		}
	}
	// Staleness guard: everything hashed must still exist and still be on
	// the simulation path, so the hash never keys on dead directories.
	for _, pkg := range SimulationPackages {
		if exemptPackages[pkg] {
			t.Errorf("%s is both hashed and exempt", pkg)
		}
		if !closure[pkg] {
			t.Errorf("%s is in SimulationPackages but no longer in the simulation import closure", pkg)
		}
	}
}

// TestCIWarmCacheKeyMatchesSimulationPackages parses the store-warm cache
// key in .github/workflows/ci.yml and asserts its hashFiles globs cover
// exactly go.mod plus SimulationPackages — the cross-process analogue of
// SourceHash must invalidate on the same inputs.
func TestCIWarmCacheKeyMatchesSimulationPackages(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`runstore-\$\{\{ env\.RUNSTORE_SCHEMA \}\}-\$\{\{ hashFiles\(([^)]*)\)`).FindSubmatch(raw)
	if m == nil {
		t.Fatal("store-warm cache key with hashFiles(...) not found in ci.yml")
	}
	var got []string
	for _, arg := range regexp.MustCompile(`'([^']+)'`).FindAllSubmatch(m[1], -1) {
		got = append(got, string(arg[1]))
	}
	want := []string{"go.mod"}
	for _, pkg := range SimulationPackages {
		want = append(want, pkg+"/**/*.go")
	}
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("ci.yml hashFiles globs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ci.yml hashFiles glob %q, want %q", got[i], want[i])
		}
	}
}
