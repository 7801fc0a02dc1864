package protocol_test

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/fluid"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/stats"
	"repro/internal/trace"
)

func bbrLink() fluid.Config {
	theta := 0.021
	return fluid.Config{
		Bandwidth: 100 / (2 * theta),
		PropDelay: theta,
		Buffer:    40,
	}
}

// record runs senders on bbrLink for steps steps and returns the run's
// trace.
func record(t *testing.T, senders []fluid.Sender, steps int) *trace.Trace {
	t.Helper()
	sub := &engine.FluidSpec{Cfg: bbrLink(), Senders: senders, Steps: steps}
	rec := engine.NewRecorder(sub.Meta())
	if _, err := engine.Run(context.Background(), engine.Spec{Substrate: sub, Observers: []engine.Observer{rec}}); err != nil {
		t.Fatal(err)
	}
	return rec.Trace()
}

func TestBBRishNotLossBased(t *testing.T) {
	if protocol.NewBBRish().LossBased() {
		t.Fatal("BBRish must not be loss-based")
	}
}

func TestBBRishConvergesNearBDP(t *testing.T) {
	tr := record(t, fluid.MixedSenders([]protocol.Protocol{protocol.NewBBRish()}, []float64{1}), 2000)
	avg := tr.AvgWindow(0, 0.75)
	// The estimated BDP is C = 100 MSS; steady state hovers near it.
	if avg < 80 || avg > 135 {
		t.Fatalf("BBRish steady window = %v, want ≈ C = 100", avg)
	}
}

func TestBBRishKeepsLatencyLow(t *testing.T) {
	lat, err := metrics.LatencyAvoidance(bbrLink(), protocol.NewBBRish(), 1, metrics.Options{Steps: 2000})
	if err != nil {
		t.Fatal(err)
	}
	reno, err := metrics.LatencyAvoidance(bbrLink(), protocol.Reno(), 1, metrics.Options{Steps: 2000})
	if err != nil {
		t.Fatal(err)
	}
	// BBRish probes past the BDP briefly (gain 1.25) but drains; its
	// inflation stays well below the buffer-filling loss-based baseline.
	if lat >= reno {
		t.Fatalf("BBRish latency %v not below Reno's %v", lat, reno)
	}
	if lat > 0.5 {
		t.Fatalf("BBRish latency inflation = %v, want small", lat)
	}
}

func TestBBRishRobustToRandomLoss(t *testing.T) {
	// Metric VI: BBRish's delivery-rate model shrugs off 5% random loss
	// (rate drops 5%, the BDP estimate barely moves).
	ok, err := metrics.RobustTo(protocol.NewBBRish(), 0.05, metrics.Options{Steps: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("BBRish not robust to 5% loss")
	}
	// Contrast: Reno dies at 0.5%.
	ok, err = metrics.RobustTo(protocol.Reno(), 0.005, metrics.Options{Steps: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("Reno robust to 0.5%?")
	}
}

func TestBBRishCoexistsWithRenoUnlikeVegas(t *testing.T) {
	// A key BBR design goal the model reproduces: against a buffer-
	// filling loss-based competitor, the max-rate filter keeps
	// re-inflating BBRish during Reno's drain phases, so it holds a
	// meaningful share — whereas the latency-threshold avoider (Vegas)
	// is starved outright (Theorem 5's regime).
	share := func(q protocol.Protocol) float64 {
		tr := record(t, fluid.MixedSenders([]protocol.Protocol{protocol.Reno(), q}, []float64{1, 1}), 3000)
		return tr.AvgWindow(1, 0.75) / tr.AvgWindow(0, 0.75)
	}
	bbr := share(protocol.NewBBRish())
	vegas := share(protocol.DefaultVegas())
	if bbr < 0.15 {
		t.Fatalf("BBRish share vs Reno = %v, want meaningful coexistence", bbr)
	}
	if vegas >= bbr/2 {
		t.Fatalf("Vegas share %v not ≪ BBRish share %v", vegas, bbr)
	}
}

func TestBBRishRatioPreservation(t *testing.T) {
	// In the paper's model BBRish is ratio-preserving, hence ≈0-fair from
	// skewed starts: each flow's next window is proportional to its OWN
	// delivery-rate estimate (w ← gain·w·(1−L)·minRTT/RTT), a
	// multiplicative self-scaling with the same structure as MIMD.
	// (BBRv1's real-world inter-flow fairness problems are the pacing-
	// level sibling of this property.) The link is still shared without
	// collapse: the aggregate tracks the BDP.
	senders, err := fluid.HomogeneousSenders(protocol.NewBBRish(), 2, []float64{1, 60})
	if err != nil {
		t.Fatal(err)
	}
	tr := record(t, senders, 3000)
	a, b := tr.AvgWindow(0, 0.75), tr.AvgWindow(1, 0.75)
	if r := stats.MinOverMax([]float64{a, b}); r > 0.2 {
		t.Fatalf("expected skew preservation, got fairness %v (windows %v, %v)", r, a, b)
	}
	total := stats.Mean(stats.Tail(tr.Total(), 0.75))
	if total < 80 || total > 140 {
		t.Fatalf("aggregate %v strayed from BDP ≈ 100", total)
	}
}

func TestBBRishSpec(t *testing.T) {
	p := protocol.MustParse("bbr")
	if p.Name() != "BBRish(1)" {
		t.Fatalf("name = %q", p.Name())
	}
	c := p.Clone()
	if c.Name() != p.Name() {
		t.Fatal("clone name mismatch")
	}
}
