package experiment

// Cross-validation between the two substrates: the fluid-flow model (in
// which the axioms are defined) and the packet-level testbed (on which the
// paper's experiments run) must agree on steady-state behaviour for the
// scenarios both can express.

import (
	"context"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/packetsim"
	"repro/internal/protocol"
	"repro/internal/stats"
)

// TestCrossValAIMDEfficiency compares a single Reno flow's steady-state
// utilization across the substrates. Table 1 predicts min(1, b(1+τ/C));
// with C ≈ 70 and τ = 100 the bound clips at 1, so both models should
// fill the link.
func TestCrossValAIMDEfficiency(t *testing.T) {
	// Fluid: min tail X/C compared against delivered throughput fraction.
	fl := FluidLink(20, 100)
	eff, err := metrics.Efficiency(fl, protocol.Reno(), 1, metrics.Options{Steps: 3000})
	if err != nil {
		t.Fatal(err)
	}
	pk := EmulabLink(20, 100)
	res, err := packetsim.Run(pk, []packetsim.Flow{{Proto: protocol.Reno(), Init: 1}}, 60)
	if err != nil {
		t.Fatal(err)
	}
	pktUtil := res.Throughput(0, 0.5) / pk.Bandwidth
	// Fluid "efficiency" counts queued traffic (X ≥ C means full), packet
	// utilization counts delivered packets; both should read ≈ full.
	if eff < 0.95 {
		t.Errorf("fluid efficiency = %v, want ≈ 1 on deep buffer", eff)
	}
	if pktUtil < 0.9 {
		t.Errorf("packet utilization = %v, want ≈ 1 on deep buffer", pktUtil)
	}
}

// TestCrossValShallowBufferPenalty checks both substrates show the same
// b-driven efficiency gap on a shallow buffer: Reno (b = 0.5) loses
// noticeably more of the link than AIMD(1, 0.8).
func TestCrossValShallowBufferPenalty(t *testing.T) {
	gentle := protocol.NewAIMD(1, 0.8)

	fl := FluidLink(20, 5)
	fluidReno, err := metrics.Efficiency(fl, protocol.Reno(), 1, metrics.Options{Steps: 3000})
	if err != nil {
		t.Fatal(err)
	}
	fluidGentle, err := metrics.Efficiency(fl, gentle, 1, metrics.Options{Steps: 3000})
	if err != nil {
		t.Fatal(err)
	}

	pk := EmulabLink(20, 5)
	utilOf := func(p protocol.Protocol) float64 {
		res, err := packetsim.Run(pk, []packetsim.Flow{{Proto: p, Init: 1}}, 60)
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput(0, 0.5) / pk.Bandwidth
	}
	pktReno := utilOf(protocol.Reno())
	pktGentle := utilOf(gentle)

	if fluidGentle <= fluidReno {
		t.Errorf("fluid: gentle %v ≤ reno %v", fluidGentle, fluidReno)
	}
	if pktGentle <= pktReno {
		t.Errorf("packet: gentle %v ≤ reno %v", pktGentle, pktReno)
	}
	// And the penalty magnitudes are in the same ballpark (within 0.25
	// absolute of each other).
	if d := math.Abs((fluidGentle - fluidReno) - (pktGentle - pktReno)); d > 0.25 {
		t.Errorf("penalty gap differs across substrates by %v (fluid %v vs packet %v)",
			d, fluidGentle-fluidReno, pktGentle-pktReno)
	}
}

// TestCrossValFairnessOrdering checks both substrates agree that AIMD
// converges to fairness while MIMD preserves initial skew.
func TestCrossValFairnessOrdering(t *testing.T) {
	// Fluid side is covered by metrics tests; here: packet side with the
	// same staggered start.
	pk := EmulabLink(20, 100)
	fairOf := func(p protocol.Protocol) float64 {
		res, err := packetsim.Run(pk, []packetsim.Flow{
			{Proto: p, Init: 1},
			{Proto: p, Init: 60},
		}, 90)
		if err != nil {
			t.Fatal(err)
		}
		a, b := res.Throughput(0, 0.5), res.Throughput(1, 0.5)
		return math.Min(a, b) / math.Max(a, b)
	}
	reno := fairOf(protocol.Reno())
	scal := fairOf(protocol.Scalable())
	if reno < 0.6 {
		t.Errorf("packet Reno fairness = %v, want high", reno)
	}
	if scal >= reno {
		t.Errorf("packet MIMD fairness %v ≥ AIMD %v; ordering broken", scal, reno)
	}
}

// TestRTTUnfairness exercises the per-flow ExtraDelay knob: two Reno flows
// whose propagation RTTs differ 3× share a bottleneck. On a shallow buffer
// the classic RTT-unfairness of loss-based AIMD appears (the short-RTT
// flow updates its window 3× as often and dominates); on a deep buffer the
// ~60 ms of shared queueing delay compresses the effective RTT ratio and
// the bias largely washes out — both are textbook behaviours.
func TestRTTUnfairness(t *testing.T) {
	ratioAt := func(buffer int) (ratio, util float64) {
		pk := EmulabLink(20, buffer)
		res, err := packetsim.Run(pk, []packetsim.Flow{
			{Proto: protocol.Reno(), Init: 1},                    // RTT = 42 ms
			{Proto: protocol.Reno(), Init: 1, ExtraDelay: 0.042}, // RTT = 126 ms
		}, 120)
		if err != nil {
			t.Fatal(err)
		}
		short := res.Throughput(0, 0.5)
		long := res.Throughput(1, 0.5)
		return short / long, (short + long) / pk.Bandwidth
	}

	shallowRatio, shallowUtil := ratioAt(10)
	deepRatio, deepUtil := ratioAt(100)

	// Shallow buffer: strong classical bias (≥ 2× for a 3× RTT gap).
	if shallowRatio < 2 {
		t.Errorf("shallow-buffer RTT bias too weak: short/long = %v", shallowRatio)
	}
	// Deep buffer: queueing delay dominates both RTTs; the bias shrinks.
	if deepRatio >= shallowRatio {
		t.Errorf("deep buffer did not compress RTT bias: %v ≥ %v", deepRatio, shallowRatio)
	}
	if shallowUtil < 0.7 || deepUtil < 0.8 {
		t.Errorf("aggregate utilization too low: shallow %v, deep %v", shallowUtil, deepUtil)
	}
}

// TestExtraDelayValidation rejects negative delays.
func TestExtraDelayValidation(t *testing.T) {
	pk := EmulabLink(20, 100)
	_, err := packetsim.Run(pk, []packetsim.Flow{
		{Proto: protocol.Reno(), ExtraDelay: -0.01},
	}, 1)
	if err == nil {
		t.Fatal("negative ExtraDelay accepted")
	}
}

// TestCrossValLossScale compares loss-rate scales: Table 1's AIMD loss
// entry 1−(C+τ)/(C+τ+na) should bound the packet-level measured mean loss
// within an order of magnitude.
func TestCrossValLossScale(t *testing.T) {
	sub := &engine.PacketSpec{Cfg: EmulabLink(20, 100), Flows: []packetsim.Flow{
		{Proto: protocol.Reno(), Init: 1},
		{Proto: protocol.Reno(), Init: 1},
	}, Duration: 60}
	rec := engine.NewRecorder(sub.Meta())
	if _, err := engine.Run(context.Background(), engine.Spec{Substrate: sub, Observers: []engine.Observer{rec}}); err != nil {
		t.Fatal(err)
	}
	measured := stats.Mean(stats.Tail(rec.Trace().Loss(), 0.5))
	theory := 1 - 170.0/(170+2) // C≈70, τ=100, n=2, a=1
	if measured > theory*10 {
		t.Errorf("packet loss %v far above theory scale %v", measured, theory)
	}
}
