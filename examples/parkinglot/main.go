// Parkinglot demonstrates the network-wide extension of the framework
// (§6's "generalizing our model to capture network-wide protocol
// interaction"): a long flow crosses k congested links, each of which also
// carries a dedicated one-hop flow. Under per-flow (stochastic) loss
// observation, the long flow is beaten below the short flows' share, and
// the bias deepens with the hop count — the classic "parking lot" result,
// here derived from nothing but the paper's §2 window-update rules.
//
//	go run ./examples/parkinglot
package main

import (
	"context"
	"fmt"
	"log"

	axiomcc "repro"
)

func main() {
	link := axiomcc.TopoLinkSpec{
		Bandwidth: 100 / 0.042, // C = 100 MSS per link
		PropDelay: 0.021,
		Buffer:    20,
	}

	fmt.Println("parking lot: one k-hop Reno flow vs one 1-hop Reno flow per link")
	fmt.Printf("%4s | %18s | %18s | %9s\n", "k", "long/short window", "long/short goodput", "link util")
	for _, k := range []int{1, 2, 3, 4} {
		links, flows, err := axiomcc.TopoParkingLot(k, link, axiomcc.Reno(), 1)
		if err != nil {
			log.Fatal(err)
		}
		sum, err := axiomcc.RunTopo(context.Background(), axiomcc.TopoRunSpec{
			Links:      links,
			Flows:      flows,
			Steps:      6000,
			TailFrac:   0.75,
			Stochastic: true,
			Seed:       7,
		})
		if err != nil {
			log.Fatal(err)
		}

		shortW, shortG := 0.0, 0.0
		for i := 1; i <= k; i++ {
			shortW += sum.AvgWindows[i]
			shortG += sum.AvgGoodputs[i]
		}
		shortW /= float64(k)
		shortG /= float64(k)
		util := 0.0
		for l := 0; l < k; l++ {
			util += sum.LinkUtil[l]
		}
		fmt.Printf("%4d | %18.3f | %18.3f | %9.3f\n",
			k,
			sum.AvgWindows[0]/shortW,
			sum.AvgGoodputs[0]/shortG,
			util/float64(k))
	}

	fmt.Println("\nthe long flow pays twice: it sees the union of all links' loss (window")
	fmt.Println("ratio < 1, worsening with k) AND the sum of their delays (goodput ratio")
	fmt.Println("falls even faster). Custom topologies: axiomcc.RunTopo over explicit")
	fmt.Println("TopoLinkSpec / TopoFlowSpec lists — any protocol mix, any paths.")
}
