package metrics

import (
	"errors"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/chaos"
	"repro/internal/fluid"
	"repro/internal/protocol"
)

// scoresBitsEqual compares two 8-tuples bit for bit (NaN == NaN), which is
// exactly the cache's contract: a cached run must not move any score by
// even one ULP.
func scoresBitsEqual(a, b Scores) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return eq(a.Efficiency, b.Efficiency) &&
		eq(a.FastUtilization, b.FastUtilization) &&
		eq(a.LossAvoidance, b.LossAvoidance) &&
		eq(a.Fairness, b.Fairness) &&
		eq(a.Convergence, b.Convergence) &&
		eq(a.Robustness, b.Robustness) &&
		eq(a.TCPFriendliness, b.TCPFriendliness) &&
		eq(a.LatencyAvoidance, b.LatencyAvoidance)
}

func TestCharacterizeCacheBitIdentical(t *testing.T) {
	cfg := cap100()
	for _, p := range []protocol.Protocol{protocol.Reno(), protocol.CubicLinux()} {
		opt := Options{Steps: 800}
		opt.NoCache = true
		plain, err := Characterize(cfg, p, 2, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.NoCache = false
		opt.Session = NewSession()
		cached, err := Characterize(cfg, p, 2, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !scoresBitsEqual(plain, cached) {
			t.Fatalf("%s: cached scores differ from uncached:\n  uncached %v\n  cached   %v", p.Name(), plain, cached)
		}
		// Every unique run simulates once: one miss per session entry.
		if st, unique := opt.Session.Stats(), len(opt.Session.entries); st.Misses != int64(unique) || st.Uncacheable != 0 {
			t.Fatalf("%s: %+v, want %d misses (the unique runs) and none uncacheable", p.Name(), st, unique)
		}
	}
}

func TestCharacterizeCacheBitIdenticalWithChaos(t *testing.T) {
	cfg := cap100()
	sched := chaos.BurstyLoss(0.02, 0.3, 0.08)
	opt := Options{Steps: 800, Chaos: sched, ChaosSeed: 7, NoCache: true}
	plain, err := Characterize(cfg, protocol.Reno(), 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.NoCache = false
	opt.Session = NewSession()
	cached, err := Characterize(cfg, protocol.Reno(), 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !scoresBitsEqual(plain, cached) {
		t.Fatalf("cached scores differ under chaos:\n  uncached %v\n  cached   %v", plain, cached)
	}
	// A different chaos seed must not collide with the cached runs.
	opt2 := Options{Steps: 800, Chaos: sched, ChaosSeed: 8, Session: opt.Session}
	other, err := Characterize(cfg, protocol.Reno(), 2, opt2)
	if err != nil {
		t.Fatal(err)
	}
	if scoresBitsEqual(cached, other) {
		t.Fatal("distinct chaos seeds produced identical scores — seed is missing from the run key")
	}
}

func TestCharacterizeExtCacheBitIdentical(t *testing.T) {
	cfg := cap100()
	opt := Options{Steps: 800, NoCache: true}
	plain, err := CharacterizeExt(cfg, protocol.Reno(), 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.NoCache = false
	opt.Session = NewSession()
	cached, err := CharacterizeExt(cfg, protocol.Reno(), 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if plain != cached {
		t.Fatalf("cached ext scores differ: uncached %v cached %v", plain, cached)
	}
	// ConvergenceTime and Smoothness fold from one pass: each of the three
	// default starts simulates once and is read once.
	st := opt.Session.Stats()
	if st.Misses != 3 || st.Hits != 0 {
		t.Fatalf("want 3 misses and no hits, got %+v", st)
	}
	if st.Uncacheable == 0 {
		t.Fatalf("Responsiveness attaches a BandwidthSchedule and must bypass the cache, got %+v", st)
	}
}

func TestCharacterizeSessionDedupStats(t *testing.T) {
	// Reno, n = 2: the five homogeneous scores fold from the same 3
	// streamed runs, read once, and the TCP-friendliness mix (Reno vs
	// Reno) collapses onto them in the same grid (3 hits); Robustness
	// quick-exits after one recorded probe and FastUtilization records one
	// more. So 8 requested runs simulate 5, each exactly once.
	opt := Options{Steps: 800, Session: NewSession()}
	if _, err := Characterize(cap100(), protocol.Reno(), 2, opt); err != nil {
		t.Fatal(err)
	}
	st := opt.Session.Stats()
	if st.Misses != 5 || st.Hits != 3 || st.Uncacheable != 0 {
		t.Fatalf("expected 5 misses / 3 hits / 0 uncacheable, got %+v", st)
	}
	if st.StepsSimulated != 5*int64(opt.Steps) {
		t.Fatalf("simulated %d steps, want 5 runs of %d: %+v", st.StepsSimulated, opt.Steps, st)
	}

	// A second identical call on the same session is served entirely from
	// cache.
	if _, err := Characterize(cap100(), protocol.Reno(), 2, opt); err != nil {
		t.Fatal(err)
	}
	st2 := opt.Session.Stats()
	if st2.Misses != st.Misses {
		t.Fatalf("second call simulated %d new runs, want 0", st2.Misses-st.Misses)
	}
	if st2.Hits != st.Hits+8 {
		t.Fatalf("second call hit %d times, want 8", st2.Hits-st.Hits)
	}
}

func TestCharacterizeUncacheableFuncProtocol(t *testing.T) {
	// protocol.Func carries no fingerprint, so every run must execute
	// uncached — and still produce the same scores as a NoCache run.
	mk := func() protocol.Protocol {
		return &protocol.Func{
			Label: "custom-aimd",
			Fn: func(fb protocol.Feedback) float64 {
				if fb.Loss > 0 {
					return fb.Window * 0.5
				}
				return fb.Window + 1
			},
		}
	}
	cfg := cap100()
	plain, err := Characterize(cfg, mk(), 2, Options{Steps: 600, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Steps: 600, Session: NewSession()}
	cached, err := Characterize(cfg, mk(), 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !scoresBitsEqual(plain, cached) {
		t.Fatalf("Func scores differ with a session attached:\n  plain  %v\n  session %v", plain, cached)
	}
	st := opt.Session.Stats()
	if st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Func runs must bypass the cache entirely, got %+v", st)
	}
	if st.Uncacheable == 0 {
		t.Fatal("uncacheable runs were not counted")
	}
}

func TestSessionConcurrentSharing(t *testing.T) {
	// Many goroutines characterizing the same protocol through one session
	// must single-flight the runs and all observe identical scores.
	opt := Options{Steps: 600, Session: NewSession()}
	cfg := cap100()
	const goroutines = 4
	scores := make([]Scores, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			scores[g], errs[g] = Characterize(cfg, protocol.Reno(), 2, opt)
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if !scoresBitsEqual(scores[0], scores[g]) {
			t.Fatalf("goroutine %d saw different scores:\n  %v\n  %v", g, scores[0], scores[g])
		}
	}
	if st := opt.Session.Stats(); st.Misses != 5 {
		t.Fatalf("concurrent callers re-simulated runs: %+v (want 5 misses)", st)
	}
}

func TestSessionResolveClassification(t *testing.T) {
	// One call with a duplicated key, a distinct key, and an uncacheable
	// cell: the duplicate must resolve as a waiter (no self-deadlock, no
	// second simulation), and exec must see exactly the claimed misses
	// plus the uncacheable cell, in index order.
	s := NewSession()
	var calls [][]int
	streams := map[int]*StreamSummary{0: {}, 2: {}, 3: {}}
	exec := func(miss []int) ([]*StreamSummary, error) {
		calls = append(calls, append([]int(nil), miss...))
		out := make([]*StreamSummary, len(miss))
		for j, i := range miss {
			out[j] = streams[i]
		}
		return out, nil
	}
	out, sim, err := resolve(s, []string{"a", "a", "b", "c"}, []bool{true, true, true, false}, 100, 1, streamCodec, exec)
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 1 || len(calls[0]) != 3 || calls[0][0] != 0 || calls[0][1] != 2 || calls[0][2] != 3 {
		t.Fatalf("exec saw %v, want one call with [0 2 3]", calls)
	}
	if out[0] != streams[0] || out[1] != streams[0] || out[2] != streams[2] || out[3] != streams[3] {
		t.Fatal("batch results routed to wrong cells")
	}
	// Simulated flags: claimed misses and the uncacheable cell ran; the
	// waiter on the duplicate key did not.
	if !sim[0] || sim[1] || !sim[2] || !sim[3] {
		t.Fatalf("simulated flags = %v, want [true false true true]", sim)
	}
	st := s.Stats()
	if st.Misses != 2 || st.Hits != 1 || st.Uncacheable != 1 {
		t.Fatalf("expected 2 misses / 1 hit / 1 uncacheable, got %+v", st)
	}
	if st.StepsSimulated != 300 || st.StepsSaved != 100 {
		t.Fatalf("step accounting off: %+v", st)
	}

	// A second batch over the same cacheable keys is all hits.
	out2, sim2, err := resolve(s, []string{"a", "b"}, []bool{true, true}, 100, 1, streamCodec, func(miss []int) ([]*StreamSummary, error) {
		t.Fatalf("warm batch simulated %v", miss)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if out2[0] != streams[0] || out2[1] != streams[2] {
		t.Fatal("warm batch returned wrong summaries")
	}
	if sim2[0] || sim2[1] {
		t.Fatalf("warm batch simulated flags = %v, want all false", sim2)
	}
	if st := s.Stats(); st.Hits != 3 {
		t.Fatalf("warm batch should add 2 hits, got %+v", st)
	}
}

func TestSessionResolveErrorEvicts(t *testing.T) {
	// A failed call must not poison the session: the claims are evicted
	// so a retry re-simulates and succeeds.
	s := NewSession()
	boom := errors.New("boom")
	if _, _, err := resolve(s, []string{"k"}, []bool{true}, 10, 1, streamCodec, func([]int) ([]*StreamSummary, error) {
		return nil, boom
	}); err != boom {
		t.Fatalf("got %v, want the exec error", err)
	}
	want := &StreamSummary{}
	out, _, err := resolve(s, []string{"k"}, []bool{true}, 10, 1, streamCodec, func(miss []int) ([]*StreamSummary, error) {
		return []*StreamSummary{want}, nil
	})
	if err != nil || out[0] != want {
		t.Fatalf("retry after failure: out=%v err=%v", out, err)
	}
	if st := s.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("failed attempts must not count: %+v", st)
	}

	// A waiter whose claimant fails claims the key itself and simulates
	// it; the claimant's error is not handed on. In the grid, the second
	// "k" then waits on the first.
	for _, c := range []struct {
		name         string
		keys         []string
		sim          []bool
		misses, hits int64
	}{
		{"one key", []string{"k"}, []bool{true}, 1, 0},
		{"grid with a duplicate", []string{"k", "j", "k"}, []bool{true, true, false}, 2, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := NewSession()
			started, release := make(chan struct{}), make(chan struct{})
			failed := make(chan error, 1)
			go func() {
				_, _, err := resolve(s, []string{"k"}, []bool{true}, 10, 1, streamCodec, func([]int) ([]*StreamSummary, error) {
					close(started)
					<-release
					return nil, boom
				})
				failed <- err
			}()
			<-started
			var (
				out []*StreamSummary
				sim []bool
				err error
			)
			waited := make(chan struct{})
			go func() {
				defer close(waited)
				cacheable := make([]bool, len(c.keys))
				for i := range cacheable {
					cacheable[i] = true
				}
				out, sim, err = resolve(s, c.keys, cacheable, 10, 1, streamCodec, func(miss []int) ([]*StreamSummary, error) {
					sums := make([]*StreamSummary, len(miss))
					for j := range sums {
						sums[j] = &StreamSummary{}
					}
					return sums, nil
				})
			}()
			waitForSessionWaiter(t)
			close(release)
			if err := <-failed; err != boom {
				t.Fatalf("claimant got %v, want the exec error", err)
			}
			<-waited
			if err != nil {
				t.Fatalf("waiter got %v, want it to simulate the key itself", err)
			}
			for i := range c.keys {
				if out[i] == nil || out[i] != out[slices.Index(c.keys, c.keys[i])] || sim[i] != c.sim[i] {
					t.Fatalf("run %d: summary %p (first of its key %p), simulated %v, want %v",
						i, out[i], out[slices.Index(c.keys, c.keys[i])], sim[i], c.sim[i])
				}
			}
			if st := s.Stats(); st.Misses != c.misses || st.Hits != c.hits {
				t.Fatalf("got %+v, want %d misses and %d hits", st, c.misses, c.hits)
			}
		})
	}
}

func TestRunKeyDistinguishesInputs(t *testing.T) {
	base := cap100()
	protos := []protocol.Protocol{protocol.Reno(), protocol.Reno()}
	o := Options{Steps: 800, TailFrac: 0.75}
	key := func(cfg fluid.Config, init []float64, o Options, kind runKind) string {
		k, ok := runKey(cfg, protos, init, o, kind)
		if !ok {
			t.Fatalf("expected cacheable key for %+v", cfg)
		}
		return k
	}
	ref := key(base, []float64{1, 50}, o, keyStream)
	if key(base, []float64{1, 50}, o, keyStream) != ref {
		t.Fatal("identical inputs produced different keys")
	}
	distinct := map[string]string{
		"init":     key(base, []float64{1, 51}, o, keyStream),
		"ext":      key(base, []float64{1, 50}, o, keyExt),
		"fastutil": key(base, []float64{1, 50}, o, keyFastUtil),
		"robust":   key(base, []float64{1, 50}, o, keyRobust),
	}
	o2 := o
	o2.Steps = 801
	distinct["steps"] = key(base, []float64{1, 50}, o2, keyStream)
	o3 := o
	o3.TailFrac = 0.8
	distinct["tailfrac"] = key(base, []float64{1, 50}, o3, keyStream)
	distinct["ext tailfrac"] = key(base, []float64{1, 50}, o3, keyExt)
	cfg2 := base
	cfg2.Bandwidth++
	distinct["bandwidth"] = key(cfg2, []float64{1, 50}, o, keyStream)
	cfg3 := base
	cfg3.Loss = fluid.NewConstantLoss(0.01)
	distinct["loss"] = key(cfg3, []float64{1, 50}, o, keyStream)
	seen := map[string]string{ref: "reference"}
	for what, k := range distinct {
		if prev, dup := seen[k]; dup {
			t.Fatalf("changing %s gave the same run key as %s", what, prev)
		}
		seen[k] = what
	}

	// Closures kill cacheability.
	cfgSched := base
	cfgSched.BandwidthSchedule = func(int) float64 { return base.Bandwidth }
	if _, ok := runKey(cfgSched, protos, nil, o, keyStream); ok {
		t.Fatal("BandwidthSchedule runs must be uncacheable")
	}
	if _, ok := runKey(base, []protocol.Protocol{&protocol.Func{Fn: func(fb protocol.Feedback) float64 { return fb.Window }}}, nil, o, keyStream); ok {
		t.Fatal("protocol.Func runs must be uncacheable")
	}
}
