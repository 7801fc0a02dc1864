package metrics

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/internal/runstore"
)

func testStore(t *testing.T) *runstore.Store {
	t.Helper()
	st, err := runstore.Open(t.TempDir(), runstore.Options{Version: "testver"})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func storeSession(t *testing.T, st *runstore.Store) *Session {
	t.Helper()
	s := NewSession()
	s.SetStore(st)
	return s
}

// TestStoreBitIdentical is the tentpole contract: scores computed through
// the persistent store — cold (write path) and warm (disk-hit path,
// fresh session so memory can't mask it) — are bit-identical to scores
// computed with no caching at all.
func TestStoreBitIdentical(t *testing.T) {
	cfg := cap100()
	st := testStore(t)
	for _, p := range []protocol.Protocol{protocol.Reno(), protocol.CubicLinux()} {
		plain, err := Characterize(cfg, p, 2, Options{Steps: 800, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Characterize(cfg, p, 2, Options{Steps: 800, Session: storeSession(t, st)})
		if err != nil {
			t.Fatal(err)
		}
		warm, err := Characterize(cfg, p, 2, Options{Steps: 800, Session: storeSession(t, st)})
		if err != nil {
			t.Fatal(err)
		}
		if !scoresBitsEqual(plain, cold) {
			t.Fatalf("%s: cold store scores differ from uncached:\n  uncached %v\n  store    %v", p.Name(), plain, cold)
		}
		if !scoresBitsEqual(plain, warm) {
			t.Fatalf("%s: warm store scores differ from uncached:\n  uncached %v\n  store    %v", p.Name(), plain, warm)
		}
	}
}

// TestStoreBitIdenticalWithChaos extends the bit-identity contract to
// chaos-schedule runs, whose schedules travel through the run key as
// JSON plus a seed.
func TestStoreBitIdenticalWithChaos(t *testing.T) {
	cfg := cap100()
	st := testStore(t)
	opt := Options{Steps: 800, Chaos: chaos.BurstyLoss(0.02, 0.3, 0.08), ChaosSeed: 7}
	plain, err := Characterize(cfg, protocol.Reno(), 2, Options{Steps: 800, Chaos: opt.Chaos, ChaosSeed: 7, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	opt.Session = storeSession(t, st)
	cold, err := Characterize(cfg, protocol.Reno(), 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Session = storeSession(t, st)
	warm, err := Characterize(cfg, protocol.Reno(), 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !scoresBitsEqual(plain, cold) || !scoresBitsEqual(plain, warm) {
		t.Fatalf("chaos scores differ through store:\n  uncached %v\n  cold     %v\n  warm     %v", plain, cold, warm)
	}
	if s := opt.Session.Stats(); s.DiskHits == 0 || s.Misses != 0 {
		t.Fatalf("warm session did not run entirely from disk: %+v", s)
	}
}

// TestStoreWarmSessionSimulatesNothing pins the CI warm-pass assertion:
// a fresh session over a populated store must simulate zero runs.
func TestStoreWarmSessionSimulatesNothing(t *testing.T) {
	cfg := cap100()
	st := testStore(t)
	if _, err := Characterize(cfg, protocol.Reno(), 2, Options{Steps: 800, Session: storeSession(t, st)}); err != nil {
		t.Fatal(err)
	}
	warm := storeSession(t, st)
	if _, err := Characterize(cfg, protocol.Reno(), 2, Options{Steps: 800, Session: warm}); err != nil {
		t.Fatal(err)
	}
	if s := warm.Stats(); s.Simulated() != 0 || s.DiskHits == 0 {
		t.Fatalf("warm session simulated %d runs (stats %+v), want 0", s.Simulated(), s)
	}
}

// TestStoreCrossProcessContention hammers one store directory from many
// independent Session instances — separate sessions share no memory, so
// every coordination path they exercise (flock per key, atomic rename,
// checksummed reads) is exactly what distinct OS processes would use.
// Asserts: every unique cell simulates exactly once across all racers
// (losers must come from disk or memory), nothing is corrupt, and all
// scores match the uncached baseline bit for bit.
func TestStoreCrossProcessContention(t *testing.T) {
	cfg := cap100()
	st := testStore(t)
	protos := []protocol.Protocol{protocol.Reno(), protocol.CubicLinux(), protocol.ScalableAIMD()}
	baseline := make([]Scores, len(protos))
	for i, p := range protos {
		s, err := Characterize(cfg, p, 2, Options{Steps: 600, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		baseline[i] = s
	}

	const nProcs = 8
	sessions := make([]*Session, nProcs)
	results := make([][]Scores, nProcs)
	var wg sync.WaitGroup
	for pi := 0; pi < nProcs; pi++ {
		sessions[pi] = storeSession(t, st)
		results[pi] = make([]Scores, len(protos))
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			// Each "process" walks the protocols in a different order so
			// the claim/wait interleavings differ.
			for k := 0; k < len(protos); k++ {
				i := (k + pi) % len(protos)
				s, err := Characterize(cfg, protos[i], 2, Options{Steps: 600, Session: sessions[pi]})
				if err != nil {
					t.Error(err)
					return
				}
				results[pi][i] = s
			}
		}(pi)
	}
	wg.Wait()

	for pi := range results {
		for i := range protos {
			if !scoresBitsEqual(results[pi][i], baseline[i]) {
				t.Fatalf("proc %d, %s: contended scores differ from baseline:\n  baseline %v\n  got      %v",
					pi, protos[i].Name(), results[pi][i], baseline[i])
			}
		}
	}

	// Across all sessions each unique run simulated exactly once: total
	// misses equals the misses of a single cold pass.
	coldProbe := storeSession(t, testStore(t))
	for _, p := range protos {
		if _, err := Characterize(cfg, p, 2, Options{Steps: 600, Session: coldProbe}); err != nil {
			t.Fatal(err)
		}
	}
	wantMisses := coldProbe.Stats().Misses
	var misses, diskHits int64
	for _, s := range sessions {
		stats := s.Stats()
		misses += stats.Misses
		diskHits += stats.DiskHits
	}
	if misses != wantMisses {
		t.Fatalf("contended sessions simulated %d runs, want exactly %d (one per unique cell)", misses, wantMisses)
	}
	if diskHits == 0 {
		t.Fatal("no session ever hit the shared store")
	}
	if stats := st.Stats(); stats.Corrupt != 0 {
		t.Fatalf("store reported %d corrupt entries under contention", stats.Corrupt)
	}
}

// TestStoreCrossProcessContentionPayloads races the single-run payloads
// the same way TestStoreCrossProcessContention races streamed grids:
// eight sessions over one store resolve ext summaries (CharacterizeExt),
// fast-utilization probes and topology runs in different orders. Every
// unique key must simulate exactly once across all racers, and every
// result must match an uncached run bit for bit.
func TestStoreCrossProcessContentionPayloads(t *testing.T) {
	cfg := cap100()
	opt := func(s *Session) Options { return Options{Steps: 600, Session: s, NoCache: s == nil} }
	topo := func(p protocol.Protocol) func(*Session) ([]byte, error) {
		return func(s *Session) ([]byte, error) {
			links, flows := topoFixture()
			for i := range flows {
				flows[i].Proto = p
			}
			st, err := RunTopo(context.Background(), TopoRunSpec{Links: links, Flows: flows, Steps: 600, Session: s})
			if err != nil {
				return nil, err
			}
			return encodeTopoSummary(st), nil
		}
	}
	ext := func(p protocol.Protocol) func(*Session) ([]byte, error) {
		return func(s *Session) ([]byte, error) {
			e, err := CharacterizeExt(cfg, p, 2, opt(s))
			return []byte(fmt.Sprintf("%d|%x|%d", e.ConvergenceTime, math.Float64bits(e.Smoothness), e.Responsiveness)), err
		}
	}
	fastUtil := func(p protocol.Protocol) func(*Session) ([]byte, error) {
		return func(s *Session) ([]byte, error) {
			v, err := FastUtilization(p, opt(s))
			return encodeFloat(v), err
		}
	}
	items := []func(*Session) ([]byte, error){
		ext(protocol.Reno()), ext(protocol.CubicLinux()),
		fastUtil(protocol.Reno()), fastUtil(protocol.CubicLinux()),
		topo(protocol.Reno()), topo(protocol.ScalableAIMD()),
	}
	baseline := make([][]byte, len(items))
	for i, item := range items {
		b, err := item(nil)
		if err != nil {
			t.Fatal(err)
		}
		baseline[i] = b
	}

	st := testStore(t)
	const nProcs = 8
	sessions := make([]*Session, nProcs)
	results := make([][][]byte, nProcs)
	var wg sync.WaitGroup
	for pi := range sessions {
		sessions[pi] = storeSession(t, st)
		results[pi] = make([][]byte, len(items))
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			for k := range items {
				i := (k + pi) % len(items)
				b, err := items[i](sessions[pi])
				if err != nil {
					t.Error(err)
					return
				}
				results[pi][i] = b
			}
		}(pi)
	}
	wg.Wait()
	for pi := range results {
		for i := range items {
			if !bytes.Equal(results[pi][i], baseline[i]) {
				t.Fatalf("proc %d, item %d: contended result %x differs from uncached %x", pi, i, results[pi][i], baseline[i])
			}
		}
	}

	coldProbe := storeSession(t, testStore(t))
	for _, item := range items {
		if _, err := item(coldProbe); err != nil {
			t.Fatal(err)
		}
	}
	var misses int64
	for _, s := range sessions {
		misses += s.Stats().Misses
	}
	if want := coldProbe.Stats().Misses; misses != want {
		t.Fatalf("contended sessions simulated %d cacheable runs, want exactly %d (one per unique key)", misses, want)
	}
	if stats := st.Stats(); stats.Corrupt != 0 {
		t.Fatalf("store reported %d corrupt entries under contention", stats.Corrupt)
	}
}

// TestStoreCodecRoundTrip checks the ext summary path through the store:
// ConvergenceTime's and Smoothness's per-start summaries, "never settled"
// (-1) included, round-trip bit-identically in at most 32 bytes.
func TestStoreCodecRoundTrip(t *testing.T) {
	cfg := cap100()
	st := testStore(t)
	// Reno's halving sawtooth settles into a ±40% band, and its last step
	// lies outside a ±5% one.
	for _, c := range []struct {
		band    float64
		settled bool
	}{{0.4, true}, {0.05, false}} {
		o := Options{Steps: 400, Session: storeSession(t, st)}.withDefaults()
		cold, err := extRun(cfg, protocol.Reno(), 1, nil, c.band, o)
		if err != nil {
			t.Fatal(err)
		}
		if (cold.settle >= 0) != c.settled || cold.settle < -1 {
			t.Fatalf("band %v: settle %d, want settled=%v", c.band, cold.settle, c.settled)
		}
		if n := len(encodeExt(cold)); n > 32 {
			t.Fatalf("ext payload is %d bytes, want ≤ 32", n)
		}
		o.Session = storeSession(t, st)
		warm, err := extRun(cfg, protocol.Reno(), 1, nil, c.band, o)
		if err != nil {
			t.Fatal(err)
		}
		if s := o.Session.Stats(); s.DiskHits != 1 || s.Misses != 0 {
			t.Fatalf("band %v: ext summary not served from disk: %+v", c.band, s)
		}
		if warm.settle != cold.settle || math.Float64bits(warm.smooth) != math.Float64bits(cold.smooth) {
			t.Fatalf("band %v: restored summary %+v, want %+v", c.band, warm, cold)
		}
	}
}

// TestDefaultStoreInherited checks that internally created sessions pick
// up SetDefaultStore, which is what makes experiment regeneration
// incremental without any plumbing.
func TestDefaultStoreInherited(t *testing.T) {
	st := testStore(t)
	SetDefaultStore(st)
	defer SetDefaultStore(nil)
	cfg := cap100()
	// No Session in Options: Characterize builds its own private one,
	// which must inherit the default store.
	if _, err := Characterize(cfg, protocol.Reno(), 2, Options{Steps: 400}); err != nil {
		t.Fatal(err)
	}
	if stats := st.Stats(); stats.Puts == 0 {
		t.Fatalf("internal session did not write to the default store: %+v", stats)
	}
	warm := NewSession() // inherits default store too
	if _, err := Characterize(cfg, protocol.Reno(), 2, Options{Steps: 400, Session: warm}); err != nil {
		t.Fatal(err)
	}
	if s := warm.Stats(); s.Simulated() != 0 {
		t.Fatalf("warm run over default store simulated %d cells", s.Simulated())
	}
}

// TestStoreDecodeRejectsGarbage ensures a payload that passes the
// store's checksum but fails structural decoding falls back to
// simulation instead of erroring out.
func TestStoreDecodeRejectsGarbage(t *testing.T) {
	for i, payload := range [][]byte{
		nil,
		{99},
		{codecKindStream, 1, 2, 3},
		{codecKindExt},
	} {
		if _, err := decodeStreamSummary(payload); err == nil {
			t.Fatalf("payload %d decoded as a stream summary without error", i)
		}
		if _, err := decodeExt(payload); err == nil {
			t.Fatalf("payload %d decoded as an ext summary without error", i)
		}
	}
	// Kind mismatch both ways.
	s := NewStream(engine.Meta{Flows: 2, Capacity: 100, BaseRTT: 0.1, Horizon: 100}, 0.75)
	if _, err := decodeExt(encodeStreamSummary(s.Summary())); err == nil {
		t.Fatal("stream summary payload decoded as ext summary")
	}
	if _, err := decodeStreamSummary(encodeFloat(1)); err == nil {
		t.Fatal("probe payload decoded as stream summary")
	}

	// End to end: a checksummed entry that fails to decode is a miss.
	cfg := cap100()
	st := testStore(t)
	o := Options{Steps: 200, Session: storeSession(t, st)}
	want, err := Efficiency(cfg, protocol.Reno(), 2, o)
	if err != nil {
		t.Fatal(err)
	}
	key, _ := runKey(cfg, []protocol.Protocol{protocol.Reno(), protocol.Reno()}, DefaultInitConfigs(cfg, 2)[0], o.withDefaults(), keyStream)
	if err := st.Put(key, []byte{codecKindStream, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	o.Session = storeSession(t, st)
	got, err := Efficiency(cfg, protocol.Reno(), 2, o)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("efficiency after a garbage entry = %v, want %v", got, want)
	}
	if s := o.Session.Stats(); s.Misses != 1 {
		t.Fatalf("garbage entry was not re-simulated: %+v", s)
	}
}

// TestWarmFanOutExact runs ResolveRuns on one warm store from several
// goroutines at once, each through its own Session with four workers
// reading the store: every summary must match the cold pass's bit for
// bit, every key must count as one disk hit, no reader may take a
// cross-process lock, and a single worker must start no goroutine.
func TestWarmFanOutExact(t *testing.T) {
	cfg := cap100()
	var sets []RunSet
	for _, a := range []float64{0.5, 1, 2} {
		for _, b := range []float64{0.3, 0.5, 0.7, 0.9} {
			p := protocol.NewAIMD(a, b)
			sets = append(sets, RunSet{Cfg: cfg, Protos: []protocol.Protocol{p}},
				RunSet{Cfg: cfg, Protos: []protocol.Protocol{p, protocol.Reno()}})
		}
	}
	st := testStore(t)
	opt := Options{Steps: 200, Workers: 4}
	// A one-sender set's fair and skewed starts coincide, so the grid
	// has fewer distinct keys than runs; repeats are memory hits.
	runs, distinct := 0, map[string]bool{}
	for _, set := range sets {
		for _, init := range opt.initConfigs(set.Cfg.Capacity(), len(set.Protos)) {
			k, _ := runKey(set.Cfg, set.Protos, init, opt.withDefaults(), keyStream)
			runs++
			distinct[k] = true
		}
	}
	keys := len(distinct)
	encode := func(sums [][]*StreamSummary) [][]byte {
		var out [][]byte
		for _, set := range sums {
			for _, s := range set {
				out = append(out, encodeStreamSummary(s))
			}
		}
		return out
	}
	opt.Session = storeSession(t, st)
	cold, _, err := ResolveRuns(sets, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := opt.Session.Stats().Misses; got != int64(keys) {
		t.Fatalf("cold pass simulated %d runs, want %d distinct keys", got, keys)
	}
	want := encode(cold)
	// The cold pass took a lock per key; a warm pass must take none.
	locks := filepath.Join(st.Dir(), "locks")
	if err := os.RemoveAll(locks); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(locks, 0o755); err != nil {
		t.Fatal(err)
	}

	readers := storeReaders.Load()
	const callers = 4
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := opt
			o.Session = storeSession(t, st)
			sums, sim, err := ResolveRuns(sets, o)
			switch {
			case err != nil:
				errs[g] = err
			case slices.Contains(sim, true):
				errs[g] = fmt.Errorf("warm pass simulated a set: %v", sim)
			case !slices.EqualFunc(encode(sums), want, bytes.Equal):
				errs[g] = fmt.Errorf("warm summaries differ from the cold pass")
			default:
				if st := o.Session.Stats(); st.DiskHits != int64(keys) || st.Hits != int64(runs-keys) || st.Misses != 0 {
					errs[g] = fmt.Errorf("warm stats %+v, want %d disk hits and %d memory hits", st, keys, runs-keys)
				}
			}
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("caller %d: %v", g, err)
		}
	}
	if started := storeReaders.Load() - readers; started == 0 {
		t.Error("four workers started no store reader")
	}
	if ents, err := os.ReadDir(locks); err != nil || len(ents) != 0 {
		t.Errorf("warm passes left %d lock files (err %v), want none", len(ents), err)
	}

	readers = storeReaders.Load()
	o := opt
	o.Workers = 1
	o.Session = storeSession(t, st)
	sums, _, err := ResolveRuns(sets, o)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(encode(sums), want, bytes.Equal) {
		t.Error("one-worker warm summaries differ from the cold pass")
	}
	if started := storeReaders.Load() - readers; started != 0 {
		t.Errorf("one worker started %d store readers, want none", started)
	}
}
