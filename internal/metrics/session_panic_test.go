package metrics

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fluid"
	"repro/internal/protocol"
)

// panicGate makes exactly one simulation panic, at a moment the test
// controls: the first fire signals started, blocks until release closes,
// then panics. Every later fire returns normally.
type panicGate struct {
	fired            atomic.Bool
	started, release chan struct{}
}

func newPanicGate() *panicGate {
	return &panicGate{started: make(chan struct{}), release: make(chan struct{})}
}

func (g *panicGate) fire() {
	if g.fired.CompareAndSwap(false, true) {
		close(g.started)
		<-g.release
		panic("metrics test: simulated cell panic")
	}
}

// panicProto is Reno with a fingerprint (so its runs are cacheable) whose
// first Next call anywhere fires the gate.
type panicProto struct {
	p    protocol.Protocol
	gate *panicGate
}

func (o panicProto) Next(fb protocol.Feedback) float64 { o.gate.fire(); return o.p.Next(fb) }
func (o panicProto) LossBased() bool                   { return o.p.LossBased() }
func (o panicProto) Name() string                      { return "panic-" + o.p.Name() }
func (o panicProto) Clone() protocol.Protocol          { return panicProto{o.p.Clone(), o.gate} }
func (o panicProto) Fingerprint() string               { return "panic-test" }

// waitForSessionWaiter blocks until some goroutine is parked on a
// session entry, i.e. its innermost frame is a channel receive in
// session.go.
func waitForSessionWaiter(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			lines := strings.Split(g, "\n")
			if len(lines) > 2 && strings.Contains(lines[0], "[chan receive") && strings.Contains(lines[2], "/session.go:") {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no goroutine ever waited on the session entry")
}

// checkPanicReleasesWaiters drives one cache path through a panicking
// claimant: call runs once as the claimant (its simulation panics once
// gate is released) and once as a waiter on the same key. The waiter
// must come back with errSessionPanicked, the panic must surface on the
// claimant's goroutine, the key must be evicted, and a third call must
// simulate the cell afresh.
func checkPanicReleasesWaiters(t *testing.T, s *Session, gate *panicGate, call func() error) {
	t.Helper()
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		_ = call()
	}()
	<-gate.started
	waited := make(chan error, 1)
	go func() { waited <- call() }()
	waitForSessionWaiter(t)
	close(gate.release)

	if r := <-panicked; r == nil {
		t.Fatal("claimant returned instead of panicking")
	}
	if err := <-waited; err != errSessionPanicked {
		t.Fatalf("waiter got %v, want errSessionPanicked", err)
	}
	s.mu.Lock()
	left := len(s.entries)
	s.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d claims left in the session after the panic", left)
	}
	if st := s.Stats(); st != (SessionStats{}) {
		t.Fatalf("a panicked run was counted: %+v", st)
	}
	if err := call(); err != nil {
		t.Fatalf("call after the panic: %v", err)
	}
	if st := s.Stats(); st.Misses != 1 || st.Hits != 0 || st.StepsSimulated == 0 {
		t.Fatalf("call after the panic did not simulate afresh: %+v", st)
	}
}

// TestSessionPanicReleasesWaiters covers the claim-eviction-on-panic
// path of every payload the session caches: a streamed batch, an ext
// summary of a recorded run, and a topology run.
func TestSessionPanicReleasesWaiters(t *testing.T) {
	t.Run("stream-batch", func(t *testing.T) {
		s, gate := NewSession(), newPanicGate()
		checkPanicReleasesWaiters(t, s, gate, func() error {
			out, _, err := resolve(s, []string{"k"}, []bool{true}, 10, 1, streamCodec, func(miss []int) ([]*StreamSummary, error) {
				gate.fire()
				return []*StreamSummary{{}}, nil
			})
			if err == nil && out[0] == nil {
				t.Error("batch returned no summary")
			}
			return err
		})
	})
	t.Run("recorded-trace", func(t *testing.T) {
		s, gate := NewSession(), newPanicGate()
		cfg := fluid.Config{Bandwidth: 100 / 0.042, PropDelay: 0.021, Buffer: 20}
		p := panicProto{protocol.Reno(), gate}
		checkPanicReleasesWaiters(t, s, gate, func() error {
			_, err := extRun(cfg, p, 2, nil, extBand, Options{Steps: 50, Session: s}.withDefaults())
			return err
		})
	})
	t.Run("topology", func(t *testing.T) {
		s, gate := NewSession(), newPanicGate()
		links, flows := topoFixture()
		flows[0].Proto = panicProto{protocol.Reno(), gate}
		checkPanicReleasesWaiters(t, s, gate, func() error {
			st, err := RunTopo(context.Background(), TopoRunSpec{Links: links, Flows: flows, Steps: 50, Session: s})
			if err == nil && len(st.AvgWindows) != len(flows) {
				t.Errorf("topology summary has %d flows, want %d", len(st.AvgWindows), len(flows))
			}
			return err
		})
	})
}
