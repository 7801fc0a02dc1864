package jobd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeStore is an in-memory Store with failure injection: flip fail to
// make every Put error (the breaker's trip signal), corrupt entries to
// model wrong-schema payloads the checksum layer cannot catch.
type fakeStore struct {
	mu   sync.Mutex
	m    map[string][]byte
	fail bool
	gets int
	puts int
}

func newFakeStore() *fakeStore { return &fakeStore{m: make(map[string][]byte)} }

func (f *fakeStore) Get(key string) ([]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gets++
	v, ok := f.m[key]
	return v, ok
}

func (f *fakeStore) Put(key string, payload []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.puts++
	if f.fail {
		return errors.New("fakeStore: injected write failure")
	}
	f.m[key] = append([]byte(nil), payload...)
	return nil
}

func (f *fakeStore) setFail(v bool) {
	f.mu.Lock()
	f.fail = v
	f.mu.Unlock()
}

func (f *fakeStore) corruptAll() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	for k := range f.m {
		f.m[k] = []byte(`{"eff":"not-hex"}`)
	}
	return len(f.m)
}

// testSpec is a small fast grid: 2 protocols × 2 bandwidths, 2 senders,
// a short horizon. ~8k simulated steps per cell — milliseconds.
const testSpec = `{"protocols":["reno","cubic"],"senders":2,` +
	`"link":{"mbps":[10,20],"rtt_ms":[42],"buffer_mss":[50]},"steps":120}`

const testSpecCells = 4

type jobOut struct {
	status int
	retry  string
	rows   map[int]ResultRow
	sum    Summary
}

func submit(t *testing.T, url, spec string) jobOut {
	t.Helper()
	resp, err := http.Post(url+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := jobOut{status: resp.StatusCode, retry: resp.Header.Get("Retry-After"), rows: make(map[int]ResultRow)}
	if resp.StatusCode != http.StatusOK {
		return out
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if bytes.Contains(line, []byte(`"done"`)) {
			if err := json.Unmarshal(line, &out.sum); err != nil {
				t.Fatalf("trailer: %v in %s", err, line)
			}
			continue
		}
		var row ResultRow
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatalf("row: %v in %s", err, line)
		}
		out.rows[row.Cell] = row
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func requireComplete(t *testing.T, out jobOut, cells int) {
	t.Helper()
	if out.status != http.StatusOK {
		t.Fatalf("job status %d", out.status)
	}
	if !out.sum.Done || out.sum.Cells != cells {
		t.Fatalf("bad trailer: %+v", out.sum)
	}
	if out.sum.Failed != 0 {
		t.Fatalf("%d cells failed: %+v", out.sum.Failed, out.sum)
	}
	if len(out.rows) != cells {
		t.Fatalf("streamed %d rows, want %d", len(out.rows), cells)
	}
	for i, row := range out.rows {
		if row.Scores == nil || row.Err != "" {
			t.Fatalf("cell %d incomplete: %+v", i, row)
		}
	}
}

func requireSameScores(t *testing.T, a, b jobOut) {
	t.Helper()
	if len(a.rows) != len(b.rows) {
		t.Fatalf("row counts differ: %d vs %d", len(a.rows), len(b.rows))
	}
	for i, ra := range a.rows {
		rb, ok := b.rows[i]
		if !ok {
			t.Fatalf("cell %d missing from second run", i)
		}
		if *ra.Scores != *rb.Scores {
			t.Fatalf("cell %d scores differ:\n  %+v\n  %+v", i, *ra.Scores, *rb.Scores)
		}
	}
}

func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	cfg.Tool = "jobd-test"
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs.URL
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	json.NewDecoder(resp.Body).Decode(&m) //nolint:errcheck // status-only checks pass an empty body
	return resp.StatusCode, m
}

func TestJobComputesStreamsAndCaches(t *testing.T) {
	st := newFakeStore()
	_, url := startServer(t, Config{Store: st})

	first := submit(t, url, testSpec)
	requireComplete(t, first, testSpecCells)
	if first.sum.Simulated != testSpecCells {
		t.Fatalf("cold run simulated %d, want %d", first.sum.Simulated, testSpecCells)
	}

	second := submit(t, url, testSpec)
	requireComplete(t, second, testSpecCells)
	if second.sum.Simulated != 0 || second.sum.CacheHits != testSpecCells {
		t.Fatalf("warm run: %+v", second.sum)
	}
	requireSameScores(t, first, second)

	// A fresh daemon sharing the store serves from disk, bit-identically.
	_, url2 := startServer(t, Config{Store: st})
	third := submit(t, url2, testSpec)
	requireComplete(t, third, testSpecCells)
	if third.sum.Simulated != 0 {
		t.Fatalf("store-warm run simulated %d cells: %+v", third.sum.Simulated, third.sum)
	}
	requireSameScores(t, first, third)
}

// TestRowsCarryDisplay: every streamed row, simulated or served from
// the cache, ships the human-readable display object next to the bit-exact
// scores, with the same values Scores.Display renders.
func TestRowsCarryDisplay(t *testing.T) {
	_, url := startServer(t, Config{Store: newFakeStore()})
	for _, run := range []string{"simulated", "cached"} {
		out := submit(t, url, testSpec)
		requireComplete(t, out, testSpecCells)
		for i, row := range out.rows {
			if row.Display == nil {
				t.Fatalf("%s cell %d: no display", run, i)
			}
			want, err := row.Scores.Display()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(row.Display, want) {
				t.Errorf("%s cell %d: display %s, want %s", run, i, mustJSON(t, row.Display), mustJSON(t, want))
			}
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestBadSpecsRejected(t *testing.T) {
	_, url := startServer(t, Config{})
	resp, err := http.Post(url+"/jobs", "application/json", strings.NewReader(`{"protocols":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec got %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(url + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /jobs got %d, want 405", resp.StatusCode)
	}
}

func TestStoreCorruptionRecomputesBitIdentically(t *testing.T) {
	st := newFakeStore()
	_, url := startServer(t, Config{Store: st})
	clean := submit(t, url, testSpec)
	requireComplete(t, clean, testSpecCells)

	if n := st.corruptAll(); n == 0 {
		t.Fatal("nothing stored to corrupt")
	}
	// A fresh server (empty memo) must see the corruption as misses,
	// recompute every cell, and land on the same bits.
	_, url2 := startServer(t, Config{Store: st})
	after := submit(t, url2, testSpec)
	requireComplete(t, after, testSpecCells)
	if after.sum.Simulated != testSpecCells {
		t.Fatalf("corrupted store served %d cached cells: %+v", after.sum.CacheHits, after.sum)
	}
	requireSameScores(t, clean, after)
}

func TestBreakerDegradesToCacheOnlyServing(t *testing.T) {
	st := newFakeStore()
	st.setFail(true)
	s, url := startServer(t, Config{
		Store:            st,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
	})

	out := submit(t, url, testSpec)
	requireComplete(t, out, testSpecCells)
	if out.sum.Breaker != "open" {
		t.Fatalf("breaker %q after persistent store failures, want open", out.sum.Breaker)
	}
	if s.brk.currentState() != breakerOpen {
		t.Fatal("breaker not open")
	}
	code, health := getJSON(t, url+"/healthz")
	if code != http.StatusOK || health["breaker"] != "open" {
		t.Fatalf("healthz during degrade: %d %v", code, health)
	}

	// Cache-only serving: the memo answers resubmissions, and the dead
	// store sees no further traffic at all while the breaker is open.
	st.mu.Lock()
	gets, puts := st.gets, st.puts
	st.mu.Unlock()
	warm := submit(t, url, testSpec)
	requireComplete(t, warm, testSpecCells)
	if warm.sum.CacheHits != testSpecCells || warm.sum.Simulated != 0 {
		t.Fatalf("cache-only resubmit: %+v", warm.sum)
	}
	requireSameScores(t, out, warm)
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.gets != gets || st.puts != puts {
		t.Fatalf("open breaker let store traffic through: gets %d→%d puts %d→%d", gets, st.gets, puts, st.puts)
	}
}

func TestCellDeadlineExpiryRetriesAndCompletes(t *testing.T) {
	// Baseline server constructed before the hold lands in the env.
	_, base := startServer(t, Config{})
	want := submit(t, base, testSpec)
	requireComplete(t, want, testSpecCells)

	// Cell 0's first attempt stalls 2s; the 150ms cell deadline kills
	// it; the retry (attempt 1) runs clean and the job completes with
	// the same bits as the unperturbed baseline.
	t.Setenv(holdEnv, "0:2000:1")
	_, url := startServer(t, Config{CellTimeout: 150 * time.Millisecond})
	out := submit(t, url, testSpec)
	requireComplete(t, out, testSpecCells)
	if out.sum.Retried == 0 {
		t.Fatalf("deadline never tripped: %+v", out.sum)
	}
	if row := out.rows[0]; row.Attempts < 2 {
		t.Fatalf("held cell completed in %d attempts, want >= 2: %+v", row.Attempts, row)
	}
	requireSameScores(t, want, out)
}

func TestFullQueueShedsWith429(t *testing.T) {
	// One worker, one active job, one queue slot. Every cell stalls
	// 400ms so the first job holds the slot while we probe.
	t.Setenv(holdEnv, "0:400:99")
	_, url := startServer(t, Config{
		Workers:   1,
		MaxActive: 1,
		MaxQueue:  1,
	})

	release := make(chan jobOut, 2)
	go func() { release <- submit(t, url, testSpec) }()
	waitFor(t, func() bool {
		_, h := getJSON(t, url+"/healthz")
		return h["active_jobs"] == float64(1)
	})
	go func() { release <- submit(t, url, testSpec) }()
	waitFor(t, func() bool {
		_, h := getJSON(t, url+"/healthz")
		return h["queue_depth"] == float64(1)
	})

	resp, err := http.Post(url+"/jobs", "application/json", strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow job got %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// The shed must not have broken the admitted jobs.
	for i := 0; i < 2; i++ {
		requireComplete(t, <-release, testSpecCells)
	}
}

func TestDrainStopsAdmissionKeepsHealth(t *testing.T) {
	s, url := startServer(t, Config{})
	if code, _ := getJSON(t, url+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz before drain: %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if code, _ := getJSON(t, url+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: want 503")
	}
	code, health := getJSON(t, url+"/healthz")
	if code != http.StatusOK || health["draining"] != true {
		t.Fatalf("healthz during drain: %d %v", code, health)
	}
	resp, err := http.Post(url+"/jobs", "application/json", strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining daemon admitted a job: %d", resp.StatusCode)
	}
}

func TestDrainWaitsForInflightJobs(t *testing.T) {
	t.Setenv(holdEnv, "0:300:99")
	s, url := startServer(t, Config{Workers: 2})
	done := make(chan jobOut, 1)
	go func() { done <- submit(t, url, testSpec) }()
	waitFor(t, func() bool {
		_, h := getJSON(t, url+"/healthz")
		return h["active_jobs"] == float64(1)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain did not wait the job out: %v", err)
	}
	out := <-done
	requireComplete(t, out, testSpecCells)
}

func TestChaosScheduleChangesScoresAndKeys(t *testing.T) {
	_, url := startServer(t, Config{})
	plain := submit(t, url, testSpec)
	requireComplete(t, plain, testSpecCells)

	chaotic := strings.TrimSuffix(testSpec, "}") +
		`,"chaos":{"events":[{"kind":"capacity-scale","at":10,"scale":0.5,"duration":40}]},"chaos_seed":7}`
	out := submit(t, url, chaotic)
	requireComplete(t, out, testSpecCells)
	same := 0
	for i, r := range plain.rows {
		if r.Key == out.rows[i].Key {
			t.Fatalf("cell %d: chaos schedule did not change the store key", i)
		}
		if *r.Scores == *out.rows[i].Scores {
			same++
		}
	}
	if same == testSpecCells {
		t.Fatal("capacity chaos left every score untouched")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}
