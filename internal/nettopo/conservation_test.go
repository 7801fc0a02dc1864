package nettopo

import (
	"math"
	"testing"

	"repro/internal/protocol"
	"repro/internal/rand64"
)

// randomDAG builds a random topology whose links all point from a
// lower-numbered node to a higher-numbered one (acyclic by construction)
// and random contiguous flow paths over it. Every node chain is
// reachable: link l always exists from node i to some j > i, and paths
// are grown by following Dst→Src adjacency.
func randomDAG(rng *rand64.Source) ([]LinkSpec, []FlowSpec) {
	nodes := 3 + int(rng.Uint64()%5) // 3..7
	nLinks := nodes - 1 + int(rng.Uint64()%uint64(nodes))
	links := make([]LinkSpec, 0, nLinks)
	name := func(i int) string { return nodeName("v", i) }
	// A spanning chain guarantees connectivity; extra links add skips.
	for i := 0; i+1 < nodes; i++ {
		links = append(links, LinkSpec{
			Bandwidth: 500 + 4000*rng.Float64(),
			PropDelay: 0.005 + 0.05*rng.Float64(),
			Buffer:    float64(int(rng.Uint64() % 40)),
			Src:       name(i),
			Dst:       name(i + 1),
		})
	}
	for len(links) < nLinks {
		i := int(rng.Uint64() % uint64(nodes-1))
		j := i + 2 + int(rng.Uint64()%uint64(nodes-i-1))
		if j >= nodes {
			continue
		}
		links = append(links, LinkSpec{
			Bandwidth: 500 + 4000*rng.Float64(),
			PropDelay: 0.005 + 0.05*rng.Float64(),
			Buffer:    float64(int(rng.Uint64() % 40)),
			Src:       name(i),
			Dst:       name(j),
		})
	}
	// Contiguous random walks over the Src-indexed adjacency.
	bySrc := map[string][]int{}
	for l, spec := range links {
		bySrc[spec.Src] = append(bySrc[spec.Src], l)
	}
	nFlows := 2 + int(rng.Uint64()%5)
	flows := make([]FlowSpec, 0, nFlows)
	for f := 0; f < nFlows; f++ {
		l := int(rng.Uint64() % uint64(len(links)))
		path := []int{l}
		for {
			next := bySrc[links[l].Dst]
			if len(next) == 0 || rng.Uint64()%3 == 0 {
				break
			}
			l = next[int(rng.Uint64()%uint64(len(next)))]
			path = append(path, l)
		}
		proto := protocol.Protocol(protocol.Reno())
		if rng.Uint64()%2 == 0 {
			proto = protocol.NewAIMD(1+2*rng.Float64(), 0.5+0.4*rng.Float64())
		}
		flows = append(flows, FlowSpec{
			Proto:    proto,
			Init:     1 + 80*rng.Float64(),
			Path:     path,
			ExtraRTT: 0.05 * rng.Float64(),
		})
	}
	return links, flows
}

// checkConservation drives the network and asserts the conservation law
// at every link of every step:
//
//   - a saturated link (load > C+τ) delivers exactly its capacity:
//     load·(1−loss) = C+τ, and signals the timeout RTT;
//   - an unsaturated link (load < C+τ) never drops: loss = 0;
//   - a link with no standing queue (load ≤ C) adds no queueing delay:
//     rtt = 2Θ exactly.
func checkConservation(t *testing.T, links []LinkSpec, flows []FlowSpec, steps int) {
	t.Helper()
	n, err := New(links, flows)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < steps; s++ {
		res := n.Step()
		for l, spec := range n.links { // defaulted: TimeoutRTT filled in
			c, tau := spec.Capacity(), spec.Buffer
			load, loss, rtt := res.LinkLoad[l], res.LinkLoss[l], res.LinkRTT[l]
			switch {
			case load > c+tau:
				delivered := load * (1 - loss)
				if math.Abs(delivered-(c+tau)) > 1e-9*(c+tau) {
					t.Fatalf("step %d link %d: saturated link delivered %v, capacity+buffer %v",
						s, l, delivered, c+tau)
				}
				if rtt != spec.TimeoutRTT {
					t.Fatalf("step %d link %d: saturated link rtt %v, want timeout %v",
						s, l, rtt, spec.TimeoutRTT)
				}
			case load < c+tau:
				if loss != 0 {
					t.Fatalf("step %d link %d: unsaturated link dropped %v", s, l, loss)
				}
				if load <= c && rtt != 2*spec.PropDelay {
					t.Fatalf("step %d link %d: queue-free link rtt %v, want 2Θ = %v",
						s, l, rtt, 2*spec.PropDelay)
				}
			}
		}
		// Flow composition: loss multiplies out survival, RTT adds up.
		for f := range flows {
			survive, rtt := 1.0, flows[f].ExtraRTT
			for _, l := range flows[f].Path {
				survive *= 1 - res.LinkLoss[l]
				rtt += res.LinkRTT[l]
			}
			if math.Abs(res.FlowLoss[f]-(1-survive)) > 1e-12 {
				t.Fatalf("step %d flow %d: composed loss %v, want %v", s, f, res.FlowLoss[f], 1-survive)
			}
			if math.Abs(res.FlowRTT[f]-rtt) > 1e-12 {
				t.Fatalf("step %d flow %d: composed rtt %v, want %v", s, f, res.FlowRTT[f], rtt)
			}
		}
	}
}

// TestConservationRandomDAGs is the seeded property sweep CI always runs.
func TestConservationRandomDAGs(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		links, flows := randomDAG(rand64.New(seed))
		checkConservation(t, links, flows, 400)
	}
}

// FuzzConservation explores the same property over fuzz-chosen seeds.
func FuzzConservation(f *testing.F) {
	for _, seed := range []uint64{1, 7, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		links, flows := randomDAG(rand64.New(seed))
		checkConservation(t, links, flows, 150)
	})
}
