package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/packetsim"
	"repro/internal/protocol"
)

// runPacket is the packet-hierarchy workload: the §5.1 hierarchy grid
// and a row of Table 2 cells on the packet simulator. Packet runs are
// never cached, so the warm pass repeats the cold one; the prediction
// for an optimisation of Session, runstore or fluid is no change here.
func runPacket(e *env) (*result, error) {
	in := genPacket(e.seed)
	e.note("inputs: hierarchy %v senders × %v Mbps × %v MSS; table2 n=%d buffer %d; %gs simulated per run; sim seed %d; workers=%d",
		experiment.PaperSenderCounts, in.Bandwidths, experiment.PaperBuffersMSS, table2N, table2Buffer, float64(packetDuration), in.Seed, e.workers)

	grid := func(workers int) (passOut, error) {
		var out passOut
		var d digest
		sp := obs.StartLeafSpan("experiment.Hierarchy")
		h, err := experiment.Hierarchy(experiment.HierarchyConfig{
			Senders:    experiment.PaperSenderCounts,
			Bandwidths: in.Bandwidths,
			Buffers:    experiment.PaperBuffersMSS,
			Duration:   packetDuration,
			Seed:       in.Seed,
			Workers:    workers,
		})
		sp.End()
		if err != nil {
			return out, err
		}
		for _, c := range h.Cells {
			d.add(float64(c.N), c.Mbps, float64(c.Buffer))
			for i, name := range c.Names {
				d.addString(name)
				d.add(c.Efficiency[i], c.Loss[i], c.Fairness[i], c.Convergence[i])
			}
		}
		out.cells += len(h.Cells)

		sp = obs.StartLeafSpan("experiment.Table2")
		t2, err := experiment.Table2(experiment.Table2Config{
			Senders:    []int{table2N},
			Bandwidths: experiment.PaperBandwidthsMbps,
			BufferMSS:  table2Buffer,
			Duration:   packetDuration,
			Seeds:      1,
			Seed:       in.Seed,
			Workers:    workers,
		})
		sp.End()
		if err != nil {
			return out, err
		}
		for _, c := range t2.Cells {
			d.add(float64(c.N), c.Mbps, c.RAIMD, c.PCC, c.Improvement)
		}
		out.cells += len(t2.Cells)
		out.digest = d.sum()
		return out, nil
	}

	w := &inproc{
		pass: func(*metrics.Session) (passOut, error) { return grid(e.workers) },
		check: func(ref passOut) error {
			one, err := grid(1)
			if err != nil {
				return err
			}
			if one.digest != ref.digest {
				return fmt.Errorf("packet results differ between 1 worker (%s) and %d workers (%s)", one.digest, e.workers, ref.digest)
			}
			return nil
		},
		protos: []protocol.Protocol{protocol.Reno(), protocol.CubicLinux(), protocol.Scalable(), protocol.NewRobustAIMD(1, 0.8, 0.01)},
		replay: func(vals map[string]float64) error {
			delivered, secs, err := replayHierarchyPackets(in)
			if err != nil {
				return err
			}
			// A cycle is two passes over the grid.
			vals["packetsim.packets_delivered"] = 2 * float64(delivered)
			vals["packetsim.pkts_per_s"] = float64(delivered) / secs
			return nil
		},
	}
	return runInproc(e, w)
}

// replayHierarchyPackets re-runs the hierarchy grid's packet runs through
// engine.Run, serially, with the inputs experiment.Hierarchy gives them
// (staggered initial windows, the grid's simulator seed), and returns
// the packets delivered and the time spent.
func replayHierarchyPackets(in packetInputs) (int64, float64, error) {
	var delivered int64
	start := time.Now()
	for _, n := range experiment.PaperSenderCounts {
		for _, mbps := range in.Bandwidths {
			for _, buf := range experiment.PaperBuffersMSS {
				for _, p := range []protocol.Protocol{protocol.Reno(), protocol.CubicLinux(), protocol.Scalable()} {
					cfg := experiment.EmulabLink(mbps, buf)
					cfg.Seed = in.Seed
					flows := make([]packetsim.Flow, n)
					for i := range flows {
						flows[i] = packetsim.Flow{Proto: p.Clone(), Init: float64(1 + i*20)}
					}
					res, err := engine.Run(context.Background(), engine.Spec{
						Substrate: &engine.PacketSpec{Cfg: cfg, Flows: flows, Duration: packetDuration},
					})
					if err != nil {
						return 0, 0, err
					}
					for _, d := range res.Packet.Delivered {
						delivered += d
					}
				}
			}
		}
	}
	return delivered, time.Since(start).Seconds(), nil
}
