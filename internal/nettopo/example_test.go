package nettopo_test

import (
	"context"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/nettopo"
	"repro/internal/protocol"
)

// ExampleParkingLot runs the canonical network-wide scenario: one flow
// crossing two links, each link also carrying a one-hop flow.
func ExampleParkingLot() {
	link := nettopo.LinkSpec{
		Bandwidth: 100 / 0.042, // C = 100 MSS
		PropDelay: 0.021,
		Buffer:    20,
	}
	links, flows, err := nettopo.ParkingLot(2, link, protocol.Reno(), 1)
	if err != nil {
		panic(err)
	}
	sum, err := metrics.RunTopo(context.Background(), metrics.TopoRunSpec{
		Links: links, Flows: flows, Steps: 2000, TailFrac: 0.75,
	})
	if err != nil {
		panic(err)
	}
	// The long flow's RTT is the sum of its hops'.
	fmt.Printf("flows: %d, long flow goodput < short flow goodput: %v\n",
		len(sum.AvgWindows), sum.AvgGoodputs[0] < sum.AvgGoodputs[1])
	// Output:
	// flows: 3, long flow goodput < short flow goodput: true
}
