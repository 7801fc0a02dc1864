package experiment

import (
	"context"
	"fmt"
	"math"
	"strings"
	"text/tabwriter"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/packetsim"
	"repro/internal/protocol"
	"repro/internal/stats"
)

// Table2Config parameterizes the Table 2 reproduction. The paper's setup:
// Robust-AIMD(1, 0.8, 0.01) compared against PCC, for n ∈ {2, 3, 4}
// senders and bandwidths {20, 30, 60, 100} Mbps, fixed 42 ms RTT and a
// 100-MSS buffer. Of the n connections, one is a legacy TCP Reno flow and
// the remaining n−1 run the protocol under test (the paper's friendliness
// metric pits P-senders against Q-senders on one link; Table 2 reports how
// much better Reno fares against Robust-AIMD than against PCC).
type Table2Config struct {
	Senders    []int     // total connections per cell (default {2,3,4})
	Bandwidths []float64 // Mbps (default {20,30,60,100})
	BufferMSS  int       // droptail buffer (default 100)
	Duration   float64   // seconds of simulated time per run (default 60)
	Seeds      int       // independent runs averaged per cell (default 3)
	Seed       uint64    // base seed; run k uses Seed+k
	Workers    int       // sweep concurrency (0 = GOMAXPROCS, 1 = serial)
}

func (c Table2Config) withDefaults() Table2Config {
	if len(c.Senders) == 0 {
		c.Senders = PaperSenderCounts
	}
	if len(c.Bandwidths) == 0 {
		c.Bandwidths = PaperBandwidthsMbps
	}
	if c.BufferMSS == 0 {
		c.BufferMSS = 100
	}
	if c.Duration == 0 {
		c.Duration = 60
	}
	if c.Seeds == 0 {
		c.Seeds = 3
	}
	return c
}

// Table2Cell is one (n, bandwidth) entry: the measured TCP-friendliness of
// Robust-AIMD and of PCC (Reno throughput relative to the strongest
// competitor flow, tail-averaged), and their ratio — the paper's
// "improvement" figure (>1 means Robust-AIMD is friendlier).
type Table2Cell struct {
	N           int
	Mbps        float64
	RAIMD       float64
	PCC         float64
	Improvement float64
}

// Table2Result is the full grid plus the average improvement the paper
// quotes (1.92× on average, always >1.5× in their runs).
type Table2Result struct {
	Cells           []Table2Cell
	MeanImprovement float64
	MinImprovement  float64
}

// friendlinessOnPacketLink measures Metric VII on the packet simulator:
// nProto flows of p share the link with one TCP Reno flow; the score is
// Reno's tail throughput divided by the strongest p-flow's. variant
// perturbs flow start times (a few ms each) — the packet simulator is
// deterministic, so phase perturbation is what decorrelates repeated runs
// of the same cell.
func friendlinessOnPacketLink(ctx context.Context, cfg packetsim.Config, p protocol.Protocol, nProto int, duration float64, variant int) (float64, error) {
	flows := make([]packetsim.Flow, 0, nProto+1)
	for i := 0; i < nProto; i++ {
		flows = append(flows, packetsim.Flow{
			Proto: p,
			Init:  1,
			Start: float64(variant)*0.007 + float64(i)*0.003,
		})
	}
	flows = append(flows, packetsim.Flow{Proto: protocol.Reno(), Init: 1, Start: float64(variant) * 0.011})
	// Only tail throughput is consumed here, which the delivery counters
	// give without any observer — the cheap path for the Table 2 grid.
	eres, err := engine.Run(ctx, engine.Spec{
		Substrate: &engine.PacketSpec{Cfg: cfg, Flows: flows, Duration: duration},
	})
	if err != nil {
		return 0, err
	}
	res := eres.Packet
	reno := res.Throughput(nProto, 0.5)
	strongest := 0.0
	for i := 0; i < nProto; i++ {
		if t := res.Throughput(i, 0.5); t > strongest {
			strongest = t
		}
	}
	if strongest == 0 {
		return math.Inf(1), nil
	}
	return reno / strongest, nil
}

// cellFriendliness averages friendlinessOnPacketLink over seeds variants.
func cellFriendliness(ctx context.Context, cfg packetsim.Config, p protocol.Protocol, nProto int, duration float64, seeds int) (float64, error) {
	sum := 0.0
	for k := 0; k < seeds; k++ {
		runCfg := cfg
		runCfg.Seed = cfg.Seed + uint64(k)
		f, err := friendlinessOnPacketLink(ctx, runCfg, p, nProto, duration, k)
		if err != nil {
			return 0, err
		}
		sum += f
	}
	return sum / float64(seeds), nil
}

// Table2 reproduces the paper's Table 2 on the packet-level testbed.
func Table2(tc Table2Config) (*Table2Result, error) {
	defer obs.StartPhase("table2")()
	tc = tc.withDefaults()
	raimd := protocol.NewRobustAIMD(1, 0.8, 0.01)
	pcc := protocol.DefaultPCC()

	type cellSpec struct {
		n    int
		mbps float64
	}
	var specs []cellSpec
	for _, n := range tc.Senders {
		for _, mbps := range tc.Bandwidths {
			specs = append(specs, cellSpec{n: n, mbps: mbps})
		}
	}
	// Cells are independent deterministic simulations; the orchestrator
	// shards them across cores. Seeding keeps the paper's semantics (every
	// cell uses tc.Seed, not the sweep's cell seed; run k perturbs it by
	// k), so results are identical at any worker count.
	cells, err := engine.Sweep(context.Background(), len(specs), engine.SweepConfig{Workers: tc.Workers},
		func(ctx context.Context, i int, _ uint64) (Table2Cell, error) {
			sp := specs[i]
			cfg := EmulabLink(sp.mbps, tc.BufferMSS)
			cfg.Seed = tc.Seed
			ra, err := cellFriendliness(ctx, cfg, raimd, sp.n-1, tc.Duration, tc.Seeds)
			if err != nil {
				return Table2Cell{}, fmt.Errorf("experiment: table2 R-AIMD n=%d bw=%g: %w", sp.n, sp.mbps, err)
			}
			pc, err := cellFriendliness(ctx, cfg, pcc, sp.n-1, tc.Duration, tc.Seeds)
			if err != nil {
				return Table2Cell{}, fmt.Errorf("experiment: table2 PCC n=%d bw=%g: %w", sp.n, sp.mbps, err)
			}
			cell := Table2Cell{N: sp.n, Mbps: sp.mbps, RAIMD: ra, PCC: pc}
			if pc > 0 {
				cell.Improvement = ra / pc
			} else {
				cell.Improvement = math.Inf(1)
			}
			return cell, nil
		})
	if err != nil {
		return nil, err
	}

	result := &Table2Result{Cells: cells, MinImprovement: math.Inf(1)}
	var improvements []float64
	for _, cell := range cells {
		improvements = append(improvements, cell.Improvement)
		if cell.Improvement < result.MinImprovement {
			result.MinImprovement = cell.Improvement
		}
	}
	result.MeanImprovement = stats.Mean(improvements)
	obs.RecordScore("table2.mean_improvement", result.MeanImprovement)
	obs.RecordScore("table2.min_improvement", result.MinImprovement)
	return result, nil
}

// Render formats the grid like the paper's Table 2: one improvement entry
// per (n, BW) pair, with the underlying friendliness scores alongside.
func (r *Table2Result) Render() string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "(n,BW)\tR-AIMD friendliness\tPCC friendliness\tImprovement")
	for _, c := range r.Cells {
		fmt.Fprintf(w, "(%d,%g)\t%.3f\t%.3f\t%.2fx\n", c.N, c.Mbps, c.RAIMD, c.PCC, c.Improvement)
	}
	fmt.Fprintf(w, "mean\t\t\t%.2fx\n", r.MeanImprovement)
	fmt.Fprintf(w, "min\t\t\t%.2fx\n", r.MinImprovement)
	w.Flush()
	return sb.String()
}
