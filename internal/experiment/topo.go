package experiment

import (
	"context"
	"fmt"
	"strings"
	"text/tabwriter"

	"repro/internal/engine"
	"repro/internal/fluid"
	"repro/internal/metrics"
	"repro/internal/nettopo"
	"repro/internal/obs"
)

// TopoShape is one named multi-bottleneck topology: the links and the
// flow paths (protocols and inits are filled in per characterization).
type TopoShape struct {
	Name  string
	Links []nettopo.LinkSpec
	Flows []nettopo.FlowSpec
}

// topoLink converts paper units to a nettopo link, mirroring FluidLink.
func topoLink(mbps, bufferMSS float64) nettopo.LinkSpec {
	return nettopo.LinkSpec{
		Bandwidth: fluid.MbpsToMSSps(mbps),
		PropDelay: PaperRTT / 2,
		Buffer:    bufferMSS,
	}
}

// TopoShapes returns the two canonical shapes the topo-axioms experiment
// characterizes protocols on:
//
//   - the §6 3-hop parking lot (one long flow over every hop, one short
//     flow per hop), where efficiency and convergence exercise per-flow
//     bottleneck attribution; and
//   - a 2×2 fat-tree fan-in (leaf → agg → core), where fairness and
//     friendliness are judged per shared link across three tiers.
func TopoShapes() ([]TopoShape, error) {
	chainLinks, chainFlows, err := nettopo.ParkingLot(3, topoLink(20, 20), nil, 0)
	if err != nil {
		return nil, err
	}
	treeLinks, treeFlows, err := nettopo.FatTreeFanIn(2, 2, topoLink(40, 20), topoLink(50, 30), topoLink(60, 40), nil, 0)
	if err != nil {
		return nil, err
	}
	return []TopoShape{
		{Name: "parking-lot-3", Links: chainLinks, Flows: chainFlows},
		{Name: "fat-tree-2x2", Links: treeLinks, Flows: treeFlows},
	}, nil
}

// TopoAxiomRow is one protocol's measured 8-tuple on one topology.
type TopoAxiomRow struct {
	Protocol string
	Topology string
	Scores   metrics.Scores
}

// TopoAxioms measures every Table 1 protocol's eight axiom metrics on
// every TopoShapes topology — the multi-bottleneck extension of
// table1-sim. Cells run through the sweep orchestrator; each cell shares
// opt.Session, so repeated baselines (the Reno cross traffic of every
// friendliness mix, the topology-independent fast-utilization and
// robustness probes) simulate once across the whole grid.
func TopoAxioms(opt metrics.Options) ([]TopoAxiomRow, error) {
	defer obs.StartPhase("topo-axioms")()
	shapes, err := TopoShapes()
	if err != nil {
		return nil, err
	}
	protos := Table1Protocols()
	cellOpt := opt.SweepCell()
	return engine.Sweep(context.Background(), len(protos)*len(shapes), engine.SweepConfig{Workers: opt.Workers},
		func(ctx context.Context, i int, _ uint64) (TopoAxiomRow, error) {
			p := protos[i/len(shapes)]
			shape := shapes[i%len(shapes)]
			scores, err := metrics.CharacterizeTopo(shape.Links, shape.Flows, p, cellOpt)
			if err != nil {
				return TopoAxiomRow{}, fmt.Errorf("experiment: %s on %s: %w", p.Name(), shape.Name, err)
			}
			return TopoAxiomRow{Protocol: p.Name(), Topology: shape.Name, Scores: scores}, nil
		})
}

// RenderTopoAxioms formats the multi-bottleneck axiom table.
func RenderTopoAxioms(rows []TopoAxiomRow) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Protocol\tTopology\tEff\tFast\tLoss\tFair\tConv\tRobust\tFriendly\tLatency")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
			r.Protocol, r.Topology,
			num(r.Scores.Efficiency), num(r.Scores.FastUtilization),
			num(r.Scores.LossAvoidance), num(r.Scores.Fairness),
			num(r.Scores.Convergence), num(r.Scores.Robustness),
			num(r.Scores.TCPFriendliness), num(r.Scores.LatencyAvoidance))
	}
	w.Flush()
	return sb.String()
}
