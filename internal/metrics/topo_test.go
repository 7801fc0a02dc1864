package metrics

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/nettopo"
	"repro/internal/protocol"
	"repro/internal/runstore"
)

// topoFixture is a 2-sender incast: two edge links into one narrower
// core, the canonical two-bottleneck shape.
func topoFixture() ([]nettopo.LinkSpec, []nettopo.FlowSpec) {
	theta := 0.021
	edge := nettopo.LinkSpec{Bandwidth: 200 / (2 * theta), PropDelay: theta, Buffer: 20, Src: "s", Dst: "sw"}
	core := nettopo.LinkSpec{Bandwidth: 100 / (2 * theta), PropDelay: theta, Buffer: 20, Src: "sw", Dst: "sink"}
	edge2 := edge
	edge2.Src = "s2"
	links := []nettopo.LinkSpec{edge, edge2, core}
	flows := []nettopo.FlowSpec{
		{Proto: protocol.Reno(), Init: 1, Path: []int{0, 2}},
		{Proto: protocol.Reno(), Init: 40, Path: []int{1, 2}},
	}
	return links, flows
}

func runTopoFixture(t *testing.T, s *Session) *TopoSummary {
	t.Helper()
	links, flows := topoFixture()
	st, err := RunTopo(context.Background(), TopoRunSpec{
		Links: links, Flows: flows, Steps: 1200, Session: s,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestTopoStreamEstimators(t *testing.T) {
	links, flows := topoFixture()
	ts := NewTopoStream(links, flows, 1200, 0)
	if _, err := engine.Run(context.Background(), engine.Spec{
		Substrate: &engine.TopoSpec{Links: links, Flows: flows, Steps: 1200},
		Observers: []engine.Observer{ts},
	}); err != nil {
		t.Fatal(err)
	}
	if ts.Steps() != 1200 {
		t.Fatalf("observed %d steps, want 1200", ts.Steps())
	}
	st := ts.Summary()
	if !topoSummariesBitEqual(st, runTopoFixture(t, nil)) {
		t.Fatal("RunTopo's summary differs from the stream's")
	}
	// Both flows bottleneck on the shared core (index 2): it is half the
	// edge bandwidth and carries both windows.
	for f := 0; f < 2; f++ {
		if b := st.BottleneckOf(f); b != 2 {
			t.Errorf("flow %d bottleneck = link %d, want core (2)", f, b)
		}
	}
	if e := st.Efficiency(); e <= 0 || e > 1.5 {
		t.Errorf("efficiency %v out of range", e)
	}
	if f := st.Fairness(); math.IsNaN(f) || f <= 0 || f > 1 {
		t.Errorf("fairness %v, want (0,1] for two Renos on a shared core", f)
	}
	if c := st.Convergence; c < 0 || c > 1 {
		t.Errorf("convergence %v out of [0,1]", c)
	}
	if l := st.LossAvoidance(); l < 0 || l >= 1 {
		t.Errorf("loss avoidance %v out of [0,1)", l)
	}
	if l := st.LatencyAvoidance(); l < 0 {
		t.Errorf("latency avoidance %v negative", l)
	}
	// Same-protocol friendliness on the shared core is well-defined.
	if f := st.Friendliness([]int{0}, []int{1}); math.IsNaN(f) || f <= 0 {
		t.Errorf("friendliness %v, want positive", f)
	}
	// Disjoint P/Q never sharing a link → NaN.
	if f := st.Friendliness([]int{0}, nil); !math.IsNaN(f) {
		t.Errorf("friendliness with empty Q = %v, want NaN", f)
	}
}

func TestTopoFairnessUndefinedWithoutSharing(t *testing.T) {
	theta := 0.021
	link := nettopo.LinkSpec{Bandwidth: 100 / (2 * theta), PropDelay: theta, Buffer: 20}
	st, err := RunTopo(context.Background(), TopoRunSpec{
		Links: []nettopo.LinkSpec{link, link},
		Flows: []nettopo.FlowSpec{
			{Proto: protocol.Reno(), Init: 1, Path: []int{0}},
			{Proto: protocol.Reno(), Init: 1, Path: []int{1}},
		},
		Steps: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if f := st.Fairness(); !math.IsNaN(f) {
		t.Errorf("fairness on disjoint links = %v, want NaN", f)
	}
}

// topoSummariesBitEqual reports whether two summaries agree field by
// field, floats compared by bit pattern.
func topoSummariesBitEqual(a, b *TopoSummary) bool {
	if len(a.Paths) != len(b.Paths) {
		return false
	}
	for f := range a.Paths {
		if !slices.Equal(a.Paths[f], b.Paths[f]) {
			return false
		}
	}
	bits := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) })
	}
	return bits(a.BaseRTT, b.BaseRTT) && bits(a.LinkUtil, b.LinkUtil) && bits(a.LinkEff, b.LinkEff) &&
		bits(a.LinkMaxLoss, b.LinkMaxLoss) && bits(a.LinkMeanLoss, b.LinkMeanLoss) &&
		bits(a.AvgWindows, b.AvgWindows) && bits(a.AvgGoodputs, b.AvgGoodputs) &&
		bits(a.RTTInflations, b.RTTInflations) &&
		math.Float64bits(a.Convergence) == math.Float64bits(b.Convergence)
}

// TestTopoSessionMemoryHit: the second identical run must be served from
// the session without simulating, and hand back the very same summary.
func TestTopoSessionMemoryHit(t *testing.T) {
	s := NewSession()
	a := runTopoFixture(t, s)
	b := runTopoFixture(t, s)
	if a != b {
		t.Fatal("second run did not share the cached summary")
	}
	st := s.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 miss + 1 hit", st)
	}
}

// TestTopoStoreRoundTrip: a warm persistent store serves the run in a
// fresh session with zero simulations, and the decoded summary — and so
// every estimator — is bit-identical to the simulated one.
func TestTopoStoreRoundTrip(t *testing.T) {
	store, err := runstore.Open(t.TempDir(), runstore.Options{Version: "testver"})
	if err != nil {
		t.Fatal(err)
	}
	cold := NewSession()
	cold.SetStore(store)
	a := runTopoFixture(t, cold)
	if st := cold.Stats(); st.Misses != 1 {
		t.Fatalf("cold stats = %+v, want 1 miss", st)
	}

	warm := NewSession()
	warm.SetStore(store)
	b := runTopoFixture(t, warm)
	st := warm.Stats()
	if st.Simulated() != 0 || st.DiskHits != 1 {
		t.Fatalf("warm stats = %+v, want 1 disk hit and 0 simulated", st)
	}

	if !topoSummariesBitEqual(a, b) {
		t.Fatalf("decoded summary differs from the simulated one:\n%+v\n%+v", a, b)
	}
	if a.Efficiency() != b.Efficiency() ||
		a.Fairness() != b.Fairness() ||
		a.LossAvoidance() != b.LossAvoidance() ||
		a.LatencyAvoidance() != b.LatencyAvoidance() ||
		a.Friendliness([]int{0}, []int{1}) != b.Friendliness([]int{0}, []int{1}) {
		t.Fatal("decoded summary estimators differ from the simulated summary")
	}
}

// TestCharacterizeTopoStoreBitIdentical: CharacterizeTopo scored from
// summaries decoded out of a warm store — a fresh session, so memory
// cannot mask the codec — equals an uncached run bit for bit.
func TestCharacterizeTopoStoreBitIdentical(t *testing.T) {
	links, flows := topoFixture()
	o := Options{Steps: 600}
	plain, err := CharacterizeTopo(links, flows, protocol.Reno(), Options{Steps: 600, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	store := testStore(t)
	o.Session = storeSession(t, store)
	cold, err := CharacterizeTopo(links, flows, protocol.Reno(), o)
	if err != nil {
		t.Fatal(err)
	}
	o.Session = storeSession(t, store)
	warm, err := CharacterizeTopo(links, flows, protocol.Reno(), o)
	if err != nil {
		t.Fatal(err)
	}
	if st := o.Session.Stats(); st.Simulated() != 0 || st.DiskHits == 0 {
		t.Fatalf("warm CharacterizeTopo did not run from the store: %+v", st)
	}
	if !scoresBitsEqual(plain, cold) || !scoresBitsEqual(plain, warm) {
		t.Fatalf("topology scores differ through the store:\n  uncached %v\n  cold     %v\n  warm     %v", plain, cold, warm)
	}
}

func TestTopoCodecRejectsCorruption(t *testing.T) {
	st := runTopoFixture(t, nil)
	payload := encodeTopoSummary(st)
	if got, err := decodeTopoSummary(payload); err != nil || !topoSummariesBitEqual(got, st) {
		t.Fatalf("roundtrip failed: %v", err)
	}
	if _, err := decodeTopoSummary(nil); err == nil {
		t.Error("empty payload accepted")
	}
	if _, err := decodeTopoSummary(payload[:len(payload)-3]); err == nil {
		t.Error("truncated payload accepted")
	}
	if _, err := decodeTopoSummary(append(payload, 0)); err == nil {
		t.Error("payload with trailing bytes accepted")
	}
	bad := append([]byte(nil), payload...)
	bad[0] = codecKindStream
	if _, err := decodeTopoSummary(bad); err == nil {
		t.Error("wrong payload kind accepted")
	}
}

// TestTopoKeyDistinguishesInputs: the canonical fingerprint must react to
// every dynamics-relevant field and ignore node labels.
func TestTopoKeyDistinguishesInputs(t *testing.T) {
	links, flows := topoFixture()
	base := TopoRunSpec{Links: links, Flows: flows, Steps: 1200}
	base.withDefaults()
	key := func(spec TopoRunSpec) string {
		spec.withDefaults()
		k, ok := topoKey(&spec)
		if !ok {
			t.Fatal("fixture should be cacheable")
		}
		return k
	}
	ref := key(base)

	relabel := base
	relabel.Links = append([]nettopo.LinkSpec(nil), links...)
	relabel.Links[0].Src = "renamed"
	if key(relabel) != ref {
		t.Error("node relabeling changed the key")
	}

	for name, mut := range map[string]func(*TopoRunSpec){
		"steps":      func(s *TopoRunSpec) { s.Steps = 2400 },
		"bandwidth":  func(s *TopoRunSpec) { s.Links = append([]nettopo.LinkSpec(nil), links...); s.Links[2].Bandwidth *= 2 },
		"stochastic": func(s *TopoRunSpec) { s.Stochastic = true; s.Seed = 3 },
		"extra rtt": func(s *TopoRunSpec) {
			s.Flows = append([]nettopo.FlowSpec(nil), flows...)
			s.Flows[0].ExtraRTT = 0.01
		},
		"path": func(s *TopoRunSpec) {
			s.Flows = append([]nettopo.FlowSpec(nil), flows...)
			s.Flows[0].Path = []int{0}
		},
		"init": func(s *TopoRunSpec) {
			s.Flows = append([]nettopo.FlowSpec(nil), flows...)
			s.Flows[0].Init = 2
		},
	} {
		spec := base
		mut(&spec)
		if key(spec) == ref {
			t.Errorf("%s change did not change the key", name)
		}
	}
}

// TestTopoUncacheableProtocol: a protocol without a fingerprint must run
// outside the cache and be counted as uncacheable.
func TestTopoUncacheableProtocol(t *testing.T) {
	links, flows := topoFixture()
	flows[0].Proto = opaqueProto{protocol.Reno()}
	s := NewSession()
	if _, err := RunTopo(context.Background(), TopoRunSpec{
		Links: links, Flows: flows, Steps: 200, Session: s,
	}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Uncacheable != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want the run counted uncacheable", st)
	}
}

// opaqueProto hides the underlying protocol's Fingerprint method by
// wrapping instead of embedding it.
type opaqueProto struct{ p protocol.Protocol }

func (o opaqueProto) Next(fb protocol.Feedback) float64 { return o.p.Next(fb) }
func (o opaqueProto) LossBased() bool                   { return o.p.LossBased() }
func (o opaqueProto) Name() string                      { return o.p.Name() }
func (o opaqueProto) Clone() protocol.Protocol          { return opaqueProto{o.p.Clone()} }

func TestCharacterizeTopoParkingLot(t *testing.T) {
	theta := 0.021
	link := nettopo.LinkSpec{Bandwidth: 100 / (2 * theta), PropDelay: theta, Buffer: 20}
	links, err := nettopo.LinearChain(3, link)
	if err != nil {
		t.Fatal(err)
	}
	flows := []nettopo.FlowSpec{
		{Path: []int{0, 1, 2}},
		{Path: []int{0}},
		{Path: []int{1}},
		{Path: []int{2}},
	}
	s, err := CharacterizeTopo(links, flows, protocol.Reno(), Options{Steps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if s.Efficiency <= 0 || s.Efficiency > 1.5 {
		t.Errorf("efficiency %v out of range", s.Efficiency)
	}
	if math.IsNaN(s.Fairness) || s.Fairness <= 0 {
		t.Errorf("fairness %v, want positive (every link is shared)", s.Fairness)
	}
	if s.Convergence < 0 || s.Convergence > 1 {
		t.Errorf("convergence %v out of [0,1]", s.Convergence)
	}
	if math.IsNaN(s.TCPFriendliness) {
		t.Error("TCP friendliness NaN on a shared-path mix")
	}
	if s.FastUtilization <= 0 {
		t.Errorf("fast utilization %v, want positive for Reno", s.FastUtilization)
	}
	if s.Robustness != 0 {
		t.Errorf("robustness %v, want 0 for plain AIMD", s.Robustness)
	}
}
