package nettopo

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/protocol"
)

// oneLink is a 100-MSS-capacity link matching the fluid tests' setup.
func oneLink() LinkSpec {
	theta := 0.021
	return LinkSpec{
		Bandwidth: 100 / (2 * theta),
		PropDelay: theta,
		Buffer:    20,
	}
}

func namedLink(src, dst string) LinkSpec {
	l := oneLink()
	l.Src, l.Dst = src, dst
	return l
}

func renoFlow(path ...int) FlowSpec {
	return FlowSpec{Proto: protocol.Reno(), Init: 1, Path: path}
}

func TestValidation(t *testing.T) {
	good := oneLink()
	cases := []struct {
		name  string
		links []LinkSpec
		flows []FlowSpec
	}{
		{"no links", nil, []FlowSpec{renoFlow(0)}},
		{"no flows", []LinkSpec{good}, nil},
		{"zero bandwidth", []LinkSpec{{Bandwidth: 0, PropDelay: 1}}, []FlowSpec{renoFlow(0)}},
		{"nil proto", []LinkSpec{good}, []FlowSpec{{Proto: nil, Init: 1, Path: []int{0}}}},
		{"empty path", []LinkSpec{good}, []FlowSpec{{Proto: protocol.Reno(), Init: 1}}},
		{"unknown link", []LinkSpec{good}, []FlowSpec{renoFlow(1)}},
		{"repeated link", []LinkSpec{good}, []FlowSpec{renoFlow(0, 0)}},
		{"negative extra rtt", []LinkSpec{good}, []FlowSpec{{Proto: protocol.Reno(), Init: 1, Path: []int{0}, ExtraRTT: -1}}},
		{"half-named link", []LinkSpec{{Bandwidth: 1, PropDelay: 1, Src: "a"}}, []FlowSpec{renoFlow(0)}},
		{"self-loop", []LinkSpec{{Bandwidth: 1, PropDelay: 1, Src: "a", Dst: "a"}}, []FlowSpec{renoFlow(0)}},
		{"mixed naming", []LinkSpec{namedLink("a", "b"), oneLink()}, []FlowSpec{renoFlow(0), renoFlow(1)}},
		{"cycle", []LinkSpec{namedLink("a", "b"), namedLink("b", "c"), namedLink("c", "a")},
			[]FlowSpec{renoFlow(0)}},
		{"discontiguous path", []LinkSpec{namedLink("a", "b"), namedLink("c", "d")},
			[]FlowSpec{renoFlow(0, 1)}},
		{"backwards path", []LinkSpec{namedLink("a", "b"), namedLink("b", "c")},
			[]FlowSpec{renoFlow(1, 0)}},
	}
	for _, c := range cases {
		if _, err := New(c.links, c.flows); err == nil {
			t.Errorf("%s: invalid network accepted", c.name)
		}
	}
}

func TestNamedTopologyAccepted(t *testing.T) {
	// Diamond DAG: a→b, a→c, b→d, c→d. Two node-disjoint paths.
	links := []LinkSpec{
		namedLink("a", "b"), namedLink("a", "c"),
		namedLink("b", "d"), namedLink("c", "d"),
	}
	n, err := New(links, []FlowSpec{renoFlow(0, 2), renoFlow(1, 3)})
	if err != nil {
		t.Fatal(err)
	}
	r := n.RoutingMatrix()
	want := [][]bool{
		{true, false, true, false},
		{false, true, false, true},
	}
	for f := range want {
		for l := range want[f] {
			if r[f][l] != want[f][l] {
				t.Errorf("routing[%d][%d] = %v, want %v", f, l, r[f][l], want[f][l])
			}
		}
	}
}

func TestNewFromRouting(t *testing.T) {
	// The routing matrix names the links out of order; chaining by
	// endpoints must recover a→b→c→d regardless.
	links := []LinkSpec{namedLink("b", "c"), namedLink("a", "b"), namedLink("c", "d")}
	n, err := NewFromRouting(links,
		[]FlowSpec{{Proto: protocol.Reno(), Init: 1}},
		[][]bool{{true, true, true}})
	if err != nil {
		t.Fatal(err)
	}
	if got := n.BaseRTT(0); math.Abs(got-3*2*0.021) > 1e-15 {
		t.Errorf("BaseRTT = %v, want %v", got, 3*2*0.021)
	}

	// A row selecting two links leaving different sources with no chain
	// is not a single path.
	if _, err := NewFromRouting(
		[]LinkSpec{namedLink("a", "b"), namedLink("c", "d")},
		[]FlowSpec{{Proto: protocol.Reno(), Init: 1}},
		[][]bool{{true, true}}); err == nil {
		t.Error("disconnected routing row accepted")
	}

	// Path and routing row are mutually exclusive.
	if _, err := NewFromRouting(links,
		[]FlowSpec{{Proto: protocol.Reno(), Init: 1, Path: []int{0}}},
		[][]bool{{true, false, false}}); err == nil {
		t.Error("flow with both Path and routing row accepted")
	}
}

func TestExtraRTTShiftsBaseRTT(t *testing.T) {
	links := []LinkSpec{oneLink()}
	n, err := New(links, []FlowSpec{
		{Proto: protocol.Reno(), Init: 1, Path: []int{0}},
		{Proto: protocol.Reno(), Init: 1, Path: []int{0}, ExtraRTT: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := n.BaseRTT(1) - n.BaseRTT(0); math.Abs(d-0.1) > 1e-15 {
		t.Errorf("ExtraRTT shifted base RTT by %v, want 0.1", d)
	}
	res := n.Step()
	if d := res.FlowRTT[1] - res.FlowRTT[0]; math.Abs(d-0.1) > 1e-15 {
		t.Errorf("ExtraRTT shifted step RTT by %v, want 0.1", d)
	}
	// The longer-RTT flow must see strictly lower normalized growth under
	// an RTT-sensitive protocol; here just check the RTT composition is
	// per-flow, not shared.
	if res.FlowRTT[0] != 2*links[0].PropDelay {
		t.Errorf("flow 0 RTT = %v, want unloaded %v", res.FlowRTT[0], 2*links[0].PropDelay)
	}
}

// TestChainMatchesMultilink is the in-package half of the parity anchor:
// an anonymous-link chain reproduces the trajectories the retired
// multilink substrate produced for the same specs, bit for bit and step
// for step, stochastic mode included (testdata/multilink_parity.json).
func TestChainMatchesMultilink(t *testing.T) {
	const hops, steps = 3, 800
	fx := LoadParityFixture(t)
	links := make([]LinkSpec, hops)
	for i := range links {
		links[i] = oneLink()
	}
	flows := []FlowSpec{{Proto: protocol.Reno(), Init: 1, Path: []int{0, 1, 2}}}
	for i := 0; i < hops; i++ {
		flows = append(flows, FlowSpec{Proto: protocol.NewAIMD(1, 0.7), Init: 30, Path: []int{i}})
	}
	for _, seed := range []uint64{0, 7} {
		var opts []Option
		name := "deterministic"
		if seed != 0 {
			opts = append(opts, WithStochasticLoss(seed))
			name = "stochastic"
		}
		want, ok := fx.Chain[name]
		if !ok {
			t.Fatalf("fixture has no %s chain", name)
		}
		n, err := New(links, flows, opts...)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var buf [8]byte
		put := func(v float64) {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
		res, err := n.RunObserved(context.Background(), steps, true, func(r *StepResult) {
			for f := range r.Windows {
				put(r.Windows[f])
				put(r.FlowLoss[f])
				put(r.FlowRTT[f])
			}
			for l := range r.LinkLoss {
				put(r.LinkLoss[l])
				put(r.LinkRTT[l])
				put(r.LinkLoad[l])
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != want.Trajectory {
			t.Errorf("%s: trajectory digest %s, fixture %s", name, got, want.Trajectory)
		}
		for f := range flows {
			CheckBits(t, fmt.Sprintf("%s flow %d avg window", name, f), res.AvgWindow(f, 0.75), want.AvgWindow[f])
			CheckBits(t, fmt.Sprintf("%s flow %d avg goodput", name, f), res.AvgGoodput(f, 0.75), want.AvgGoodput[f])
		}
	}
}

func TestBuilders(t *testing.T) {
	link := oneLink()
	if _, err := LinearChain(0, link); err == nil {
		t.Error("zero-hop chain accepted")
	}
	chain, err := LinearChain(3, link)
	if err != nil {
		t.Fatal(err)
	}
	if chain[0].Src != "n0" || chain[2].Dst != "n3" {
		t.Errorf("chain endpoints %q→%q, want n0→n3", chain[0].Src, chain[2].Dst)
	}

	pl, err := ParkingLot(3, link, protocol.Reno(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(pl.RoutingMatrix()); got != 4 {
		t.Errorf("parking lot has %d flows, want 4", got)
	}

	inc, err := Incast(4, link, link, protocol.Reno(), 1)
	if err != nil {
		t.Fatal(err)
	}
	r := inc.RoutingMatrix()
	for f := range r {
		if !r[f][4] {
			t.Errorf("incast flow %d misses the core link", f)
		}
	}

	ft, err := FatTreeFanIn(2, 2, link, link, link, protocol.Reno(), 1)
	if err != nil {
		t.Fatal(err)
	}
	r = ft.RoutingMatrix()
	if len(r) != 4 {
		t.Fatalf("fat tree has %d flows, want 4", len(r))
	}
	core := len(ft.Links()) - 1
	for f := range r {
		hops := 0
		for _, on := range r[f] {
			if on {
				hops++
			}
		}
		if hops != 3 || !r[f][core] {
			t.Errorf("fat-tree flow %d: %d hops (want 3), core=%v", f, hops, r[f][core])
		}
	}
}

func TestPerturberFlowDeparture(t *testing.T) {
	links := []LinkSpec{oneLink()}
	n, err := New(links, []FlowSpec{renoFlow(0), renoFlow(0)},
		WithPerturber(dropFlow1{}))
	if err != nil {
		t.Fatal(err)
	}
	res := n.Step()
	if res.Windows[1] != 0 {
		t.Errorf("departed flow reported window %v, want 0", res.Windows[1])
	}
	if res.LinkLoad[0] != res.Windows[0] {
		t.Errorf("departed flow still loads the link: load %v, active window %v",
			res.LinkLoad[0], res.Windows[0])
	}
}

type dropFlow1 struct{}

func (dropFlow1) CapacityScale(int, int) float64 { return 1 }
func (dropFlow1) ExtraLoss(int, int) float64     { return 0 }
func (dropFlow1) RTTOffset(int, int) float64     { return 0 }
func (dropFlow1) FlowActive(_, flow int) bool    { return flow != 1 }
