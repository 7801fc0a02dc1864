package runstore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// SimulationPackages are the module-relative package directories whose
// source content participates in every store key: a change to any of
// them can change what a simulation produces, so it must re-address
// every cached run. Test files are excluded — they cannot affect
// simulation output. The CI workflow keys its persisted-store cache on
// the same directory set (hashFiles in .github/workflows/ci.yml); keep
// the two lists in sync.
var SimulationPackages = []string{
	"internal/chaos",
	"internal/engine",
	"internal/fluid",
	"internal/metrics",
	"internal/nettopo",
	"internal/packetsim",
	"internal/protocol",
	"internal/rand64",
	"internal/stats",
	"internal/trace",
}

var srcHash = sync.OnceValues(func() (string, error) {
	root, err := moduleRoot()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, pkg := range SimulationPackages {
		dir := filepath.Join(root, filepath.FromSlash(pkg))
		ents, err := os.ReadDir(dir)
		if err != nil {
			return "", fmt.Errorf("runstore: source hash: %w", err)
		}
		names := make([]string, 0, len(ents))
		for _, e := range ents {
			n := e.Name()
			if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
				continue
			}
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			data, err := os.ReadFile(filepath.Join(dir, n))
			if err != nil {
				return "", fmt.Errorf("runstore: source hash: %w", err)
			}
			fmt.Fprintf(h, "%s/%s:%d\n", pkg, n, len(data))
			h.Write(data)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
})

// SourceHash returns a 16-hex-digit content hash of the simulation-
// relevant packages' non-test source, computed once per process from the
// source tree this binary was built in. It fails (and the store stays
// disabled) when the binary runs away from its source checkout — better
// no persistence than stale entries that silently survive code changes.
func SourceHash() (string, error) { return srcHash() }

// moduleRoot locates the module root from this file's compile-time path
// (…/internal/runstore/srchash.go → three levels up), verified by the
// presence of go.mod.
func moduleRoot() (string, error) {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return "", fmt.Errorf("runstore: cannot locate source tree")
	}
	root := filepath.Dir(filepath.Dir(filepath.Dir(file)))
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return "", fmt.Errorf("runstore: source tree not found at %s: %w", root, err)
	}
	return root, nil
}
