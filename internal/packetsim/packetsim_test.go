package packetsim

import (
	"context"
	"math"
	"testing"

	"repro/internal/protocol"
	"repro/internal/stats"
)

// ticks is what a test reads of a run's per-tick samples: the first
// sender's window and the link's RTT and loss, tick by tick.
type ticks struct {
	window0, rtt, loss []float64
}

// runTicks is Run with every per-tick sample collected through
// RunObserved.
func runTicks(cfg Config, flows []Flow, duration float64) (*Result, ticks, error) {
	var tk ticks
	res, err := RunObserved(context.Background(), cfg, flows, duration, func(s TickSample) {
		tk.window0 = append(tk.window0, s.Windows[0])
		tk.rtt = append(tk.rtt, s.RTT)
		tk.loss = append(tk.loss, s.Loss)
	})
	return res, tk, err
}

// link20 models the paper's 20 Mbps / 42ms RTT / 100-packet-buffer Emulab
// link: 20 Mbps = 1666.7 MSS/s, Θ = 21 ms, C ≈ 70 MSS.
func link20() Config {
	return Config{
		Bandwidth: 20e6 / 8 / 1500,
		PropDelay: 0.021,
		Buffer:    100,
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Bandwidth: 0, PropDelay: 0.021, Buffer: 10},
		{Bandwidth: 100, PropDelay: 0, Buffer: 10},
		{Bandwidth: 100, PropDelay: 0.021, Buffer: -1},
		{Bandwidth: 100, PropDelay: 0.021, Buffer: 10, RandomLoss: 1},
		{Bandwidth: 100, PropDelay: 0.021, Buffer: 10, Tick: -0.04},
		{Bandwidth: 100, PropDelay: 0.021, Buffer: 10, Tick: math.NaN()},
		{Bandwidth: 100, PropDelay: 0.021, Buffer: 10, Tick: math.Inf(1)},
		{Bandwidth: math.NaN(), PropDelay: 0.021, Buffer: 10},
		{Bandwidth: math.Inf(1), PropDelay: 0.021, Buffer: 10},
		{Bandwidth: 100, PropDelay: math.NaN(), Buffer: 10},
		{Bandwidth: 100, PropDelay: math.Inf(1), Buffer: 10},
		{Bandwidth: 100, PropDelay: 0.021, Buffer: 10, RandomLoss: math.NaN()},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg, []Flow{{Proto: protocol.Reno()}}, 1); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := Run(link20(), nil, 1); err == nil {
		t.Error("empty flow set accepted")
	}
	if _, err := Run(link20(), []Flow{{Proto: nil}}, 1); err == nil {
		t.Error("nil protocol accepted")
	}
	for _, f := range []Flow{
		{Proto: protocol.Reno(), ExtraDelay: math.NaN()},
		{Proto: protocol.Reno(), Start: math.NaN()},
		{Proto: protocol.Reno(), Init: math.NaN()},
	} {
		if _, err := Run(link20(), []Flow{f}, 1); err == nil {
			t.Errorf("flow %+v accepted", f)
		}
	}
	// A NaN initial window is rejected by name, not clamped into a run.
	nan := []Flow{{Proto: protocol.Reno(), Init: 1}, {Proto: protocol.Reno(), Init: math.NaN()}}
	if _, err := Run(link20(), nan, 1); err == nil || err.Error() != "packetsim: flow 1 has a NaN initial window" {
		t.Errorf("NaN initial window: error %v", err)
	}
	// Non-finite windows, starts and delays and a negative start are
	// rejected by name before any event runs: newSim schedules the flow
	// starts but handles nothing (an infinite window would send 1e9
	// packets at its start).
	inf := math.Inf(1)
	for _, c := range []struct {
		flow Flow
		want string
	}{
		{Flow{Init: inf}, "packetsim: flow 1 has an infinite initial window +Inf"},
		{Flow{Init: -inf}, "packetsim: flow 1 has an infinite initial window -Inf"},
		{Flow{Start: inf}, "packetsim: flow 1 start time must be non-negative and finite, got +Inf"},
		{Flow{Start: -1}, "packetsim: flow 1 start time must be non-negative and finite, got -1"},
		{Flow{Start: -inf}, "packetsim: flow 1 start time must be non-negative and finite, got -Inf"},
		{Flow{ExtraDelay: inf}, "packetsim: flow 1 extra delay must be non-negative and finite, got +Inf"},
		{Flow{ExtraDelay: -0.01}, "packetsim: flow 1 extra delay must be non-negative and finite, got -0.01"},
	} {
		c.flow.Proto = protocol.Reno()
		flows := []Flow{{Proto: protocol.Reno(), Init: 1}, c.flow}
		if s, err := newSim(link20(), flows, 1, nil); s != nil || err == nil || err.Error() != c.want {
			t.Errorf("flow %+v: sim %v, error %v; want %q", c.flow, s != nil, err, c.want)
		}
	}
	for _, d := range []float64{0, math.NaN(), math.Inf(1)} {
		if _, err := Run(link20(), []Flow{{Proto: protocol.Reno()}}, d); err == nil {
			t.Errorf("duration %v accepted", d)
		}
	}
	// A finite run longer than int ticks is valid; only its presize is capped.
	if _, err := newSim(link20(), []Flow{{Proto: protocol.Reno()}}, math.MaxFloat64, nil); err != nil {
		t.Errorf("MaxFloat64 duration rejected: %v", err)
	}
}

func TestCapacityMatchesFluidDefinition(t *testing.T) {
	cfg := link20()
	want := cfg.Bandwidth * 2 * cfg.PropDelay
	if got := cfg.Capacity(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("capacity = %v, want %v", got, want)
	}
}

func TestSingleRenoUtilizesLink(t *testing.T) {
	res, err := Run(link20(), []Flow{{Proto: protocol.Reno(), Init: 1}}, 60)
	if err != nil {
		t.Fatal(err)
	}
	// One Reno flow with a 100-packet buffer on a 70-MSS-BDP link keeps
	// the pipe essentially full: delivered throughput ≥ 80% of bandwidth.
	thr := res.Throughput(0, 0.5)
	if thr < 0.8*link20().Bandwidth {
		t.Fatalf("Reno throughput = %v MSS/s, want ≥ 80%% of %v", thr, link20().Bandwidth)
	}
	// And it cannot exceed the bottleneck.
	if thr > 1.01*link20().Bandwidth {
		t.Fatalf("throughput %v exceeds bottleneck %v", thr, link20().Bandwidth)
	}
}

func TestTwoRenosShareFairly(t *testing.T) {
	flows := []Flow{
		{Proto: protocol.Reno(), Init: 1},
		{Proto: protocol.Reno(), Init: 60},
	}
	res, err := Run(link20(), flows, 120)
	if err != nil {
		t.Fatal(err)
	}
	a := res.Throughput(0, 0.5)
	b := res.Throughput(1, 0.5)
	ratio := math.Min(a, b) / math.Max(a, b)
	if ratio < 0.6 {
		t.Fatalf("Reno/Reno throughput ratio = %v (a=%v b=%v), want ≥ 0.6", ratio, a, b)
	}
	// Combined they still fill the link.
	if a+b < 0.85*link20().Bandwidth {
		t.Fatalf("aggregate throughput %v too low", a+b)
	}
}

func TestScalableStarvesReno(t *testing.T) {
	flows := []Flow{
		{Proto: protocol.Scalable(), Init: 1},
		{Proto: protocol.Reno(), Init: 1},
	}
	res, err := Run(link20(), flows, 60)
	if err != nil {
		t.Fatal(err)
	}
	scal := res.Throughput(0, 0.5)
	reno := res.Throughput(1, 0.5)
	if scal <= reno {
		t.Fatalf("Scalable (%v) did not beat Reno (%v) on the packet link", scal, reno)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := link20()
	cfg.RandomLoss = 0.01
	cfg.Seed = 7
	flows := []Flow{{Proto: protocol.Reno(), Init: 1}}
	r1, tk1, err := runTicks(cfg, flows, 20)
	if err != nil {
		t.Fatal(err)
	}
	r2, tk2, err := runTicks(cfg, flows, 20)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Delivered[0] != r2.Delivered[0] {
		t.Fatalf("same-seed runs delivered %d vs %d", r1.Delivered[0], r2.Delivered[0])
	}
	for i := range tk1.window0 {
		if tk1.window0[i] != tk2.window0[i] {
			t.Fatalf("windows diverged at tick %d", i)
		}
	}
}

func TestRandomLossCollapsesRenoNotRobustAIMD(t *testing.T) {
	// The PCC-motivation scenario at packet granularity. Note the ε
	// choice: with ~1-RTT monitor intervals, a window of w packets
	// quantizes the measurable loss rate to multiples of 1/w, so a single
	// random drop reads as a loss rate of 1/w. For ε-tolerance to engage
	// before quantization bites, the equilibrium window must exceed 1/ε;
	// with 0.5% drops and ε = 5% the barrier sits at 20 packets, well
	// below the link's ~70-packet BDP.
	cfg := link20()
	cfg.RandomLoss = 0.005
	cfg.Seed = 3

	reno, err := Run(cfg, []Flow{{Proto: protocol.Reno(), Init: 1}}, 90)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := Run(cfg, []Flow{{Proto: protocol.NewRobustAIMD(1, 0.8, 0.05), Init: 1}}, 90)
	if err != nil {
		t.Fatal(err)
	}
	renoThr := reno.Throughput(0, 0.5)
	raThr := ra.Throughput(0, 0.5)
	if raThr <= renoThr {
		t.Fatalf("Robust-AIMD (%v) did not beat Reno (%v) under 0.5%% random loss", raThr, renoThr)
	}
	// The PCC-motivation magnitude: Reno loses most of the link.
	if renoThr > 0.5*cfg.Bandwidth {
		t.Fatalf("Reno throughput under 0.5%% loss = %v, expected severe degradation", renoThr)
	}
	if raThr < 0.7*cfg.Bandwidth {
		t.Fatalf("Robust-AIMD throughput under 0.5%% loss = %v, want ≥ 70%% of link", raThr)
	}
}

func TestStaggeredStartConverges(t *testing.T) {
	flows := []Flow{
		{Proto: protocol.Reno(), Init: 1, Start: 0},
		{Proto: protocol.Reno(), Init: 1, Start: 30},
	}
	res, err := Run(link20(), flows, 150)
	if err != nil {
		t.Fatal(err)
	}
	a := res.Throughput(0, 0.7)
	b := res.Throughput(1, 0.7)
	ratio := math.Min(a, b) / math.Max(a, b)
	if ratio < 0.5 {
		t.Fatalf("late joiner got ratio %v (a=%v, b=%v)", ratio, a, b)
	}
}

func TestTraceRTTBounds(t *testing.T) {
	cfg := link20()
	_, tk, err := runTicks(cfg, []Flow{{Proto: protocol.Reno(), Init: 1}}, 30)
	if err != nil {
		t.Fatal(err)
	}
	base := 2 * cfg.PropDelay
	maxQueueDelay := float64(cfg.Buffer+1) / cfg.Bandwidth
	for i, rtt := range tk.rtt {
		if rtt < base-1e-9 || rtt > base+maxQueueDelay+1e-9 {
			t.Fatalf("tick %d: RTT %v outside [%v, %v]", i, rtt, base, base+maxQueueDelay)
		}
	}
}

func TestLossFractionsAreRates(t *testing.T) {
	cfg := link20()
	cfg.Buffer = 5 // shallow buffer forces drops
	_, tk, err := runTicks(cfg, []Flow{{Proto: protocol.Scalable(), Init: 1}}, 30)
	if err != nil {
		t.Fatal(err)
	}
	anyLoss := false
	for i, l := range tk.loss {
		if l < 0 || l >= 1 {
			t.Fatalf("tick %d: loss %v outside [0,1)", i, l)
		}
		if l > 0 {
			anyLoss = true
		}
	}
	if !anyLoss {
		t.Fatal("MIMD on a 5-packet buffer produced no loss")
	}
}

func TestDeliveredConservation(t *testing.T) {
	// Delivered packets cannot exceed what the bottleneck can serialize.
	cfg := link20()
	dur := 30.0
	res, err := Run(cfg, []Flow{{Proto: protocol.Scalable(), Init: 1}}, dur)
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(res.Delivered[0]); got > cfg.Bandwidth*dur+1 {
		t.Fatalf("delivered %v packets > link capacity %v", got, cfg.Bandwidth*dur)
	}
	// DeliveredSeries sums to Delivered.
	if got := stats.Sum(res.DeliveredSeries[0]); math.Abs(got-float64(res.Delivered[0])) > 0.5 {
		t.Fatalf("series sum %v != total %v", got, res.Delivered[0])
	}
}

func TestThroughputTailBounds(t *testing.T) {
	res, err := Run(link20(), []Flow{{Proto: protocol.Reno(), Init: 1}}, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Degenerate tail fractions must not panic or divide by zero.
	if thr := res.Throughput(0, 1); thr < 0 {
		t.Fatalf("tail=1 throughput = %v", thr)
	}
	if thr := res.Throughput(0, 0); thr <= 0 {
		t.Fatalf("tail=0 throughput = %v", thr)
	}
}

func TestVegasKeepsQueueShort(t *testing.T) {
	cfg := link20()
	res, tk, err := runTicks(cfg, []Flow{{Proto: protocol.DefaultVegas(), Init: 1}}, 60)
	if err != nil {
		t.Fatal(err)
	}
	base := 2 * cfg.PropDelay
	// Vegas targets ≤ 4 queued packets; allow slack for MI quantization.
	tailRTT := stats.Max(stats.Tail(tk.rtt, 0.5))
	maxExtra := 12 / cfg.Bandwidth
	if tailRTT > base+maxExtra {
		t.Fatalf("Vegas tail RTT %v exceeds base+%v", tailRTT, maxExtra)
	}
	// While still using a good share of the link.
	if thr := res.Throughput(0, 0.5); thr < 0.7*cfg.Bandwidth {
		t.Fatalf("Vegas throughput = %v, want ≥ 70%% of link", thr)
	}
}

// TestTailThroughputWithinLink: a saturating flow's tail throughput is
// its tail deliveries over the tail's real duration, from the first tail
// tick entry to the end of the run, which takes in the deliveries after
// the last tick. So it never exceeds the link rate by more than one
// packet over that duration, whatever part of a tick the run ends in.
func TestTailThroughputWithinLink(t *testing.T) {
	cfg := link20()
	for _, d := range []float64{1, 2, 10} {
		res, err := Run(cfg, []Flow{{Proto: protocol.CubicLinux(), Init: 1}}, d)
		if err != nil {
			t.Fatal(err)
		}
		series := res.DeliveredSeries[0]
		start := int(0.75 * float64(len(series)))
		tail := d - float64(start)*res.TickLen
		sum := stats.Sum(series[start:])
		thr := res.Throughput(0, 0.75)
		if bound := cfg.Bandwidth + 1/tail; thr > bound {
			t.Errorf("%gs: tail throughput %v > link %v + one packet over %v s", d, thr, cfg.Bandwidth, tail)
		}
		if got := thr * tail; math.Abs(got-sum) > 1e-9*sum {
			t.Errorf("%gs: throughput × tail duration = %v, tail delivered %v", d, got, sum)
		}
	}
}
