package packetsim

import (
	"testing"

	"repro/internal/protocol"
	"repro/internal/rand64"
	"repro/internal/stats"
)

func TestDroptailAdmit(t *testing.T) {
	d := Droptail{Buffer: 3}
	rng := rand64.New(1)
	// Buffer 3 + one in service: admits at lengths 0..3, rejects at 4.
	for q := 0; q <= 3; q++ {
		if !d.Admit(q, rng) {
			t.Fatalf("droptail rejected at queue length %d", q)
		}
	}
	if d.Admit(4, rng) {
		t.Fatal("droptail admitted past capacity")
	}
	if d.Name() != "droptail(3)" {
		t.Fatalf("name = %q", d.Name())
	}
}

func TestREDRegions(t *testing.T) {
	r := NewRED(5, 15, 0.1, 20)
	rng := rand64.New(1)
	// Below MinThresh: always admit.
	for q := 0; q < 5; q++ {
		if !r.Admit(q, rng) {
			t.Fatalf("RED dropped below MinThresh at %d", q)
		}
	}
	// At/above MaxThresh: always drop.
	for _, q := range []int{15, 18, 21, 30} {
		if r.Admit(q, rng) {
			t.Fatalf("RED admitted at/above MaxThresh at %d", q)
		}
	}
	// In the linear region, the drop rate grows with queue length.
	rate := func(q int) float64 {
		drops := 0
		for i := 0; i < 20000; i++ {
			if !r.Admit(q, rng) {
				drops++
			}
		}
		return float64(drops) / 20000
	}
	low, high := rate(6), rate(14)
	if low >= high {
		t.Fatalf("RED drop rate not increasing: %v at 6 vs %v at 14", low, high)
	}
	// Near MaxThresh the rate approaches MaxP = 0.1.
	if high < 0.05 || high > 0.15 {
		t.Fatalf("RED drop rate near MaxThresh = %v, want ≈ 0.09", high)
	}
}

func TestREDConstructorPanics(t *testing.T) {
	cases := []func(){
		func() { NewRED(-1, 10, 0.1, 20) },
		func() { NewRED(10, 10, 0.1, 20) },
		func() { NewRED(5, 15, 0, 20) },
		func() { NewRED(5, 15, 1.5, 20) },
		func() { NewRED(5, 15, 0.1, 10) }, // buffer < MaxThresh
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			f()
		}()
	}
}

func TestREDKeepsQueueShorterThanDroptail(t *testing.T) {
	// RED's early drops hold the standing queue below droptail's: the
	// AQM buys latency. Compare tail RTTs for a single Reno flow.
	base := link20()
	base.Seed = 5

	dt := base // droptail 100
	_, tkDT, err := runTicks(dt, []Flow{{Proto: protocol.Reno(), Init: 1}}, 60)
	if err != nil {
		t.Fatal(err)
	}

	red := base
	red.Queue = NewRED(10, 40, 0.1, 100)
	resRED, tkRED, err := runTicks(red, []Flow{{Proto: protocol.Reno(), Init: 1}}, 60)
	if err != nil {
		t.Fatal(err)
	}

	rttDT := stats.Mean(stats.Tail(tkDT.rtt, 0.5))
	rttRED := stats.Mean(stats.Tail(tkRED.rtt, 0.5))
	if rttRED >= rttDT {
		t.Fatalf("RED RTT %v ≥ droptail RTT %v; AQM bought no latency", rttRED, rttDT)
	}
	// And throughput stays reasonable (AIMD under RED still utilizes).
	if thr := resRED.Throughput(0, 0.5); thr < 0.5*base.Bandwidth {
		t.Fatalf("RED throughput = %v, want ≥ 50%% of link", thr)
	}
}

func TestREDDeterministicWithSeed(t *testing.T) {
	cfg := link20()
	cfg.Queue = NewRED(10, 40, 0.1, 100)
	cfg.Seed = 11
	flows := []Flow{{Proto: protocol.Reno(), Init: 1}}
	a, err := Run(cfg, flows, 20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, flows, 20)
	if err != nil {
		t.Fatal(err)
	}
	if a.Delivered[0] != b.Delivered[0] {
		t.Fatalf("RED runs diverged: %d vs %d", a.Delivered[0], b.Delivered[0])
	}
}

func TestDisableRecoveryAblation(t *testing.T) {
	// With recovery disabled, a multi-MI loss episode triggers repeated
	// halvings: throughput for Reno must not increase.
	on := link20()
	on.Seed = 2
	off := on
	off.DisableRecovery = true
	flows := []Flow{
		{Proto: protocol.Reno(), Init: 1},
		{Proto: protocol.Reno(), Init: 1, ExtraDelay: 0.02},
	}
	resOn, err := Run(on, flows, 60)
	if err != nil {
		t.Fatal(err)
	}
	resOff, err := Run(off, flows, 60)
	if err != nil {
		t.Fatal(err)
	}
	// The short-RTT flow is the one multi-halving punishes.
	if resOff.Throughput(0, 0.5) > resOn.Throughput(0, 0.5)*1.1 {
		t.Fatalf("disabling recovery helped the short flow: %v > %v",
			resOff.Throughput(0, 0.5), resOn.Throughput(0, 0.5))
	}
}
