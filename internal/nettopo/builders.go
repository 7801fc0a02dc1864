package nettopo

import (
	"fmt"

	"repro/internal/protocol"
)

// nodeName labels the i-th node of a generated topology.
func nodeName(prefix string, i int) string { return fmt.Sprintf("%s%d", prefix, i) }

// LinearChain returns k copies of link wired in a row through named nodes
// n0 → n1 → … → nk.
func LinearChain(k int, link LinkSpec) ([]LinkSpec, error) {
	if k < 1 {
		return nil, fmt.Errorf("nettopo: linear chain needs ≥ 1 hop, got %d", k)
	}
	links := make([]LinkSpec, k)
	for i := range links {
		links[i] = link
		links[i].Src = nodeName("n", i)
		links[i].Dst = nodeName("n", i+1)
	}
	return links, nil
}

// ParkingLot returns the canonical k-hop parking lot on a named chain:
// one "long" flow crosses all k links; each link also carries one
// dedicated "short" flow. Flow 0 is the long flow; flows 1..k are the
// short flows in link order. Every flow runs proto from init.
func ParkingLot(k int, link LinkSpec, proto protocol.Protocol, init float64) ([]LinkSpec, []FlowSpec, error) {
	links, err := LinearChain(k, link)
	if err != nil {
		return nil, nil, fmt.Errorf("nettopo: parking lot: %w", err)
	}
	path := make([]int, k)
	for i := range path {
		path[i] = i
	}
	flows := []FlowSpec{{Proto: proto, Init: init, Path: path}}
	for i := 0; i < k; i++ {
		flows = append(flows, FlowSpec{Proto: proto, Init: init, Path: []int{i}})
	}
	return links, flows, nil
}

// FatTreeFanIn returns a two-level fan-in: leaves·aggs leaf links feed
// aggs aggregation links, which feed one core link; one flow per leaf
// crosses leaf → agg → core. Link order is all leaves, then all aggs,
// then the core (the last index). Every flow runs proto from init.
func FatTreeFanIn(leaves, aggs int, leaf, agg, core LinkSpec, proto protocol.Protocol, init float64) ([]LinkSpec, []FlowSpec, error) {
	if leaves < 1 || aggs < 1 {
		return nil, nil, fmt.Errorf("nettopo: fat tree needs ≥ 1 leaf per agg and ≥ 1 agg, got %d×%d", leaves, aggs)
	}
	nLeaf := leaves * aggs
	links := make([]LinkSpec, 0, nLeaf+aggs+1)
	flows := make([]FlowSpec, 0, nLeaf)
	for a := 0; a < aggs; a++ {
		for i := 0; i < leaves; i++ {
			l := leaf
			l.Src = nodeName("host", a*leaves+i)
			l.Dst = nodeName("agg", a)
			links = append(links, l)
		}
	}
	for a := 0; a < aggs; a++ {
		l := agg
		l.Src = nodeName("agg", a)
		l.Dst = "core"
		links = append(links, l)
	}
	c := core
	c.Src = "core"
	c.Dst = "sink"
	links = append(links, c)
	for a := 0; a < aggs; a++ {
		for i := 0; i < leaves; i++ {
			flows = append(flows, FlowSpec{
				Proto: proto,
				Init:  init,
				Path:  []int{a*leaves + i, nLeaf + a, nLeaf + aggs},
			})
		}
	}
	return links, flows, nil
}
