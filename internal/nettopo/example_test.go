package nettopo_test

import (
	"fmt"

	"repro/internal/nettopo"
	"repro/internal/protocol"
)

// ExampleParkingLot builds the canonical network-wide scenario: one flow
// crossing two links, each link also carrying a one-hop flow.
func ExampleParkingLot() {
	link := nettopo.LinkSpec{
		Bandwidth: 100 / 0.042, // C = 100 MSS
		PropDelay: 0.021,
		Buffer:    20,
	}
	net, err := nettopo.ParkingLot(2, link, protocol.Reno(), 1)
	if err != nil {
		panic(err)
	}
	res := net.Run(2000)
	// The long flow's RTT is the sum of its hops'.
	fmt.Printf("flows: %d, long flow goodput < short flow goodput: %v\n",
		len(res.Windows), res.AvgGoodput(0, 0.75) < res.AvgGoodput(1, 0.75))
	// Output:
	// flows: 3, long flow goodput < short flow goodput: true
}
