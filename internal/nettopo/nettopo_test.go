package nettopo

import (
	"math"
	"slices"
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
	// Each link carries exactly the flow whose path names it.
	want := [][]int{{0}, {1}, {0}, {1}}
	for l := range want {
		if !slices.Equal(n.flowsOn[l], want[l]) {
			t.Errorf("link %d carries flows %v, want %v", l, n.flowsOn[l], want[l])
		}
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

	links, flows, err := ParkingLot(3, link, protocol.Reno(), 1)
	if err != nil {
		t.Fatal(err)
	}
	wantPaths := [][]int{{0, 1, 2}, {0}, {1}, {2}}
	if len(links) != 3 || len(flows) != len(wantPaths) {
		t.Fatalf("parking lot has %d links and %d flows, want 3 and 4", len(links), len(flows))
	}
	for f, want := range wantPaths {
		if !slices.Equal(flows[f].Path, want) {
			t.Errorf("parking-lot flow %d path %v, want %v", f, flows[f].Path, want)
		}
	}
	if _, err := New(links, flows); err != nil {
		t.Errorf("parking lot rejected: %v", err)
	}

	links, flows, err = FatTreeFanIn(2, 2, link, link, link, protocol.Reno(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 7 || len(flows) != 4 {
		t.Fatalf("fat tree has %d links and %d flows, want 7 and 4", len(links), len(flows))
	}
	core := len(links) - 1
	for f, fl := range flows {
		if len(fl.Path) != 3 || fl.Path[2] != core {
			t.Errorf("fat-tree flow %d path %v, want 3 hops ending at core link %d", f, fl.Path, core)
		}
	}
	// New checks that every path chains leaf → agg → core.
	if _, err := New(links, flows); err != nil {
		t.Errorf("fat tree rejected: %v", err)
	}
	if _, _, err := FatTreeFanIn(0, 2, link, link, link, protocol.Reno(), 1); err == nil {
		t.Error("leafless fat tree accepted")
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
