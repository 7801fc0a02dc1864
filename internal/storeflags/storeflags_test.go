package storeflags

import (
	"encoding/json"
	"flag"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/runstore"
)

func TestRegisterMountsAllFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	Register(fs)
	for _, name := range []string{"store", "nostore", "store-max-bytes", "store-stats"} {
		if fs.Lookup(name) == nil {
			t.Fatalf("flag -%s not mounted", name)
		}
	}
	if err := fs.Parse([]string{"-store", "/x", "-nostore", "-store-max-bytes", "123", "-store-stats"}); err != nil {
		t.Fatal(err)
	}
}

// TestWriteStatsFormat pins the stderr contract the CI warm pass greps
// for: a `simulated=N` field on the run-cache line.
func TestWriteStatsFormat(t *testing.T) {
	metrics.ResetTotalStats()
	st, err := runstore.Open(t.TempDir(), runstore.Options{Version: "testver"})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	WriteStats(&sb, "tool", st)
	out := sb.String()
	if !strings.Contains(out, "simulated=0") {
		t.Fatalf("stats line missing simulated= field:\n%s", out)
	}
	if !strings.Contains(out, "run store: hits=0") {
		t.Fatalf("stats line missing store counters:\n%s", out)
	}
	sb.Reset()
	WriteStats(&sb, "tool", nil)
	if !strings.Contains(sb.String(), "run store: disabled") {
		t.Fatalf("nil store not reported as disabled:\n%s", sb.String())
	}
}

// TestApplyNoStore: -nostore must leave the process storeless.
func TestApplyNoStore(t *testing.T) {
	metrics.SetDefaultStore(nil)
	f := &Flags{NoStore: true, Stats: false}
	report := f.Apply("tool")
	report()
	if metrics.DefaultStore() != nil {
		t.Fatal("-nostore installed a default store")
	}
}

// TestApplyInstallsDefaultStore: Apply with an explicit dir wires the
// store into the metrics layer process-wide.
func TestApplyInstallsDefaultStore(t *testing.T) {
	defer metrics.SetDefaultStore(nil)
	f := &Flags{Dir: t.TempDir()}
	f.Apply("tool")
	if metrics.DefaultStore() == nil {
		t.Skip("store unavailable in this environment (no source tree)")
	}
}

// TestApplyRegistersStatsSources: Apply must expose the cache tiers as
// obs stat groups, so runrecord.json carries hits/misses/bytes without
// -store-stats.
func TestApplyRegistersStatsSources(t *testing.T) {
	metrics.ResetTotalStats()
	defer func() {
		metrics.SetDefaultStore(nil)
		obs.RegisterStatsSource("run_cache", nil)
		obs.RegisterStatsSource("run_store", nil)
	}()
	f := &Flags{Dir: t.TempDir()}
	_ = f.Apply("tool")

	st := metrics.DefaultStore()
	if st == nil {
		t.Fatal("Apply did not install a default store")
	}
	st.Put("k", []byte("v"))
	st.Get("k")

	r := obs.BeginRecord("tool")
	defer obs.EndRecord()
	r.Finish()
	groups := map[string]map[string]float64{}
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Stats map[string]map[string]float64 `json:"stats"`
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	groups = rec.Stats
	store, ok := groups["run_store"]
	if !ok {
		t.Fatalf("record stats missing run_store group: %v", groups)
	}
	if store["puts"] != 1 || store["hits"] != 1 {
		t.Fatalf("run_store stats = %v, want puts=1 hits=1", store)
	}
	if store["bytes"] <= 0 {
		t.Fatalf("run_store bytes = %v, want > 0", store["bytes"])
	}
	// The run-cache group exists even when idle (all-zero counters are
	// still meaningful: "nothing was simulated").
	if _, ok := groups["run_cache"]; !ok {
		t.Fatalf("record stats missing run_cache group: %v", groups)
	}
}
