package nettopo

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/fluid"
	"repro/internal/protocol"
	"repro/internal/stats"
)

// The §6 network model's behavioural properties on parking lots and
// small chains: composition of loss and delay along a path, the
// parking-lot bias under stochastic loss, and agreement with the
// single-link fluid model on one link.

// parkingLot returns the k-hop parking lot on oneLink.
func parkingLot(t *testing.T, k int, proto protocol.Protocol, init float64) ([]LinkSpec, []FlowSpec) {
	t.Helper()
	links, flows, err := ParkingLot(k, oneLink(), proto, init)
	if err != nil {
		t.Fatal(err)
	}
	return links, flows
}

// tailMeans is one run's per-flow mean window and goodput and per-link
// mean load over capacity across the tail of its steps, the quantities
// metrics.TopoStream reduces a run to.
type tailMeans struct{ window, goodput, util []float64 }

// runTail runs the network steps steps through RunObserved and averages
// the last tailFrac of them.
func runTail(t *testing.T, links []LinkSpec, flows []FlowSpec, steps int, tailFrac float64, opts ...Option) tailMeans {
	t.Helper()
	n, err := New(links, flows, opts...)
	if err != nil {
		t.Fatal(err)
	}
	m := tailMeans{
		window:  make([]float64, len(flows)),
		goodput: make([]float64, len(flows)),
		util:    make([]float64, len(links)),
	}
	from := steps - stats.TailLen(steps, tailFrac)
	if err := n.RunObserved(context.Background(), steps, func(r *StepResult) {
		if r.Step < from {
			return
		}
		for f, w := range r.Windows {
			m.window[f] += w
			m.goodput[f] += w * (1 - r.FlowLoss[f]) / r.FlowRTT[f]
		}
		for l, load := range r.LinkLoad {
			m.util[l] += load
		}
	}); err != nil {
		t.Fatal(err)
	}
	cnt := float64(steps - from)
	for f := range flows {
		m.window[f] /= cnt
		m.goodput[f] /= cnt
	}
	for l := range links {
		m.util[l] /= cnt * links[l].Capacity()
	}
	return m
}

// TestNetworkValidation rejects the index-only (unnamed) networks that
// the §6 model cannot run: no links, no flows, a zero-bandwidth link,
// a nil protocol, and empty, out-of-range or repeating paths.
func TestNetworkValidation(t *testing.T) {
	good := oneLink()
	cases := []struct {
		links []LinkSpec
		flows []FlowSpec
	}{
		{nil, []FlowSpec{{Proto: protocol.Reno(), Init: 1, Path: []int{0}}}},
		{[]LinkSpec{good}, nil},
		{[]LinkSpec{{Bandwidth: 0, PropDelay: 1}}, []FlowSpec{{Proto: protocol.Reno(), Init: 1, Path: []int{0}}}},
		{[]LinkSpec{good}, []FlowSpec{{Proto: nil, Init: 1, Path: []int{0}}}},
		{[]LinkSpec{good}, []FlowSpec{{Proto: protocol.Reno(), Init: 1, Path: nil}}},
		{[]LinkSpec{good}, []FlowSpec{{Proto: protocol.Reno(), Init: 1, Path: []int{1}}}},
		{[]LinkSpec{good}, []FlowSpec{{Proto: protocol.Reno(), Init: 1, Path: []int{0, 0}}}},
	}
	for i, c := range cases {
		if _, err := New(c.links, c.flows); err == nil {
			t.Errorf("case %d: invalid network accepted", i)
		}
	}
}

// TestSingleLinkMatchesFluid anchors the generalization: a one-link
// network must reproduce the single-link fluid model's trajectory
// step-for-step (same windows, same loss).
func TestSingleLinkMatchesFluid(t *testing.T) {
	spec := oneLink()
	net, err := New([]LinkSpec{spec}, []FlowSpec{
		{Proto: protocol.Reno(), Init: 1, Path: []int{0}},
		{Proto: protocol.Reno(), Init: 60, Path: []int{0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	fl := fluid.MustNew(fluid.Config{
		Bandwidth: spec.Bandwidth,
		PropDelay: spec.PropDelay,
		Buffer:    spec.Buffer,
	},
		fluid.Sender{Proto: protocol.Reno(), Init: 1},
		fluid.Sender{Proto: protocol.Reno(), Init: 60},
	)
	for step := 0; step < 1000; step++ {
		mres := net.Step()
		fres := fl.Step()
		for i := 0; i < 2; i++ {
			if math.Abs(mres.Windows[i]-fres.Windows[i]) > 1e-9 {
				t.Fatalf("step %d flow %d: nettopo %v != fluid %v",
					step, i, mres.Windows[i], fres.Windows[i])
			}
		}
		if math.Abs(mres.FlowLoss[0]-fres.Loss[0]) > 1e-12 {
			t.Fatalf("step %d: loss %v != %v", step, mres.FlowLoss[0], fres.Loss[0])
		}
		if math.Abs(mres.FlowRTT[0]-fres.RTT) > 1e-12 {
			t.Fatalf("step %d: rtt %v != %v", step, mres.FlowRTT[0], fres.RTT)
		}
	}
}

// TestParkingLotDeterministicSymmetry documents a property of the
// synchronized deterministic model: because AIMD reacts only to the
// presence of loss and all flows on a shared bottleneck see loss at
// identical steps, the long flow's WINDOW matches the short flows' —
// path length shows up in goodput (double RTT), not in the window.
func TestParkingLotDeterministicSymmetry(t *testing.T) {
	links, flows := parkingLot(t, 2, protocol.Reno(), 1)
	res := runTail(t, links, flows, 4000, 0.75)
	long := res.window[0]
	short := res.window[1]
	if r := long / short; math.Abs(r-1) > 0.05 {
		t.Fatalf("deterministic parking lot window ratio = %v, want ≈ 1", r)
	}
	// Goodput halves with the doubled path RTT.
	gr := res.goodput[0] / res.goodput[1]
	if gr > 0.6 || gr < 0.4 {
		t.Fatalf("goodput ratio = %v, want ≈ 0.5 (double RTT)", gr)
	}
}

// TestParkingLotBias reproduces the classic network-wide result under
// stochastic loss observation: the long flow crossing k congested links
// is beaten below the short flows' share, and the bias grows with k.
func TestParkingLotBias(t *testing.T) {
	shareAt := func(k int) float64 {
		links, flows := parkingLot(t, k, protocol.Reno(), 1)
		res := runTail(t, links, flows, 6000, 0.75, WithStochasticLoss(7))
		long := res.window[0]
		short := 0.0
		for i := 1; i <= k; i++ {
			short += res.window[i]
		}
		return long / (short / float64(k))
	}
	two := shareAt(2)
	four := shareAt(4)
	if two >= 0.95 {
		t.Fatalf("2-hop long flow got window ratio %v, want < 1", two)
	}
	if four >= two {
		t.Fatalf("bias did not grow with hops: 2-hop %v, 4-hop %v", two, four)
	}
}

// TestStochasticDeterministicPerSeed ensures stochastic mode replays.
func TestStochasticDeterministicPerSeed(t *testing.T) {
	run := func() float64 {
		links, flows := parkingLot(t, 2, protocol.Reno(), 1)
		return runTail(t, links, flows, 1000, 0.5, WithStochasticLoss(3)).window[0]
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same-seed stochastic runs diverged: %v vs %v", a, b)
	}
}

func TestParkingLotUtilization(t *testing.T) {
	links, flows := parkingLot(t, 3, protocol.Reno(), 1)
	res := runTail(t, links, flows, 3000, 0.75)
	for l := 0; l < 3; l++ {
		if u := res.util[l]; u < 0.6 || u > 1.3 {
			t.Errorf("link %d utilization = %v", l, u)
		}
	}
}

func TestParkingLotValidation(t *testing.T) {
	if _, _, err := ParkingLot(0, oneLink(), protocol.Reno(), 1); err == nil {
		t.Fatal("0-hop parking lot accepted")
	}
}

// TestLossComposition checks the per-flow loss composition: a flow's loss
// is at least each of its links' and at most their sum.
func TestLossComposition(t *testing.T) {
	// Overload two links with MIMD to force simultaneous loss.
	links, flows := parkingLot(t, 2, protocol.Scalable(), 50)
	net, err := New(links, flows)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 500; s++ {
		res := net.Step()
		l0, l1 := res.LinkLoss[0], res.LinkLoss[1]
		fl := res.FlowLoss[0] // long flow crosses both
		if fl < math.Max(l0, l1)-1e-12 {
			t.Fatalf("step %d: composed loss %v below max(link)=%v", s, fl, math.Max(l0, l1))
		}
		if fl > l0+l1+1e-12 {
			t.Fatalf("step %d: composed loss %v above sum %v", s, fl, l0+l1)
		}
	}
}

// TestRTTAddsAlongPath checks delay composition.
func TestRTTAddsAlongPath(t *testing.T) {
	spec := oneLink()
	net, err := New([]LinkSpec{spec, spec}, []FlowSpec{
		{Proto: protocol.Reno(), Init: 1, Path: []int{0, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := net.Step()
	want := 2 * 2 * spec.PropDelay // two links, each contributing 2Θ
	if math.Abs(res.FlowRTT[0]-want) > 1e-12 {
		t.Fatalf("path RTT = %v, want %v", res.FlowRTT[0], want)
	}
}

func TestHeterogeneousProtocolsAcrossNetwork(t *testing.T) {
	// A Scalable flow and a Reno flow share link 0; Scalable wins there
	// while an unrelated Reno pair shares link 1 fairly.
	spec := oneLink()
	res := runTail(t, []LinkSpec{spec, spec}, []FlowSpec{
		{Proto: protocol.Scalable(), Init: 10, Path: []int{0}},
		{Proto: protocol.Reno(), Init: 10, Path: []int{0}},
		{Proto: protocol.Reno(), Init: 1, Path: []int{1}},
		{Proto: protocol.Reno(), Init: 80, Path: []int{1}},
	}, 3000, 0.75)
	if res.window[0] <= res.window[1] {
		t.Error("Scalable did not beat Reno on link 0")
	}
	a, b := res.window[2], res.window[3]
	if r := math.Min(a, b) / math.Max(a, b); r < 0.85 {
		t.Errorf("link 1 Reno pair unfair: %v", r)
	}
}

func TestGoodputAccountsForLossAndRTT(t *testing.T) {
	links, flows := parkingLot(t, 2, protocol.Reno(), 1)
	res := runTail(t, links, flows, 2000, 0.75)
	long := res.goodput[0]
	short := res.goodput[1]
	if long <= 0 || short <= 0 {
		t.Fatalf("non-positive goodputs: %v %v", long, short)
	}
	if long >= short {
		t.Errorf("long flow goodput %v ≥ short %v", long, short)
	}
}

// Property: the network never produces loss outside [0,1) or negative
// RTTs, across random parking-lot sizes and initial windows.
func TestQuickStepBounds(t *testing.T) {
	f := func(kRaw, initRaw uint8) bool {
		k := int(kRaw%4) + 1
		init := float64(initRaw%200) + 1
		links, flows, err := ParkingLot(k, oneLink(), protocol.Reno(), init)
		if err != nil {
			return false
		}
		net, err := New(links, flows)
		if err != nil {
			return false
		}
		for s := 0; s < 100; s++ {
			res := net.Step()
			for _, l := range res.FlowLoss {
				if l < 0 || l >= 1 {
					return false
				}
			}
			for _, r := range res.FlowRTT {
				if r <= 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestTailStats sanity-checks a one-hop parking lot's tail: a positive
// mean window, a well-used link and a link loss that stays below 1.
func TestTailStats(t *testing.T) {
	links, flows := parkingLot(t, 1, protocol.Reno(), 1)
	res := runTail(t, links, flows, 1000, 0.75)
	if got := res.window[0]; got <= 0 {
		t.Fatalf("mean tail window = %v", got)
	}
	// Tail utilization of the single link ≈ the fluid single-link case
	// with two senders (the parking lot adds one short flow): ≥ 0.6.
	if u := res.util[0]; u < 0.6 {
		t.Fatalf("utilization = %v", u)
	}
	net, err := New(links, flows)
	if err != nil {
		t.Fatal(err)
	}
	maxLoss := 0.0
	if err := net.RunObserved(context.Background(), 1000, func(r *StepResult) {
		maxLoss = math.Max(maxLoss, r.LinkLoss[0])
	}); err != nil {
		t.Fatal(err)
	}
	if maxLoss >= 1 {
		t.Fatalf("max link loss = %v", maxLoss)
	}
}
