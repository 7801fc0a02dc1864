package experiment

import (
	"context"
	"fmt"
	"strings"
	"text/tabwriter"

	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/fluid"
	"repro/internal/metrics"
	"repro/internal/nettopo"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// optSteps returns the horizon the sweep's lossy run uses: o.Steps, or
// 4000 when it is unset.
func optSteps(o metrics.Options) int {
	if o.Steps == 0 {
		return 4000
	}
	return o.Steps
}

// RobustnessEntry is one protocol's Metric VI score alongside its lossy-
// link throughput share.
type RobustnessEntry struct {
	Name string
	// Threshold is the largest constant loss rate tolerated (Metric VI).
	Threshold float64
	// UtilAtHalfPercent is the fluid-model utilization the protocol
	// sustains under 0.5% constant non-congestion loss on a finite link.
	UtilAtHalfPercent float64
}

// robustnessProtocols is the protocol set both robustness experiments
// score: the paper's families plus the PCC stand-in, TFRC, and BBRish.
func robustnessProtocols() []protocol.Protocol {
	return []protocol.Protocol{
		protocol.Reno(),
		protocol.Scalable(),
		protocol.SQRT(),
		protocol.CubicLinux(),
		protocol.NewRobustAIMD(1, 0.8, 0.01),
		protocol.NewRobustAIMD(1, 0.8, 0.05),
		protocol.DefaultPCC(),
		protocol.DefaultTFRC(),
		protocol.NewBBRish(),
	}
}

// lossyUtil measures a single p-sender's mean tail utilization on the
// standard 20 Mbps link under a constant non-congestion loss rate and/or
// a chaos schedule, resolving the run through opt.Session. Both
// robustness sweeps reduce to this helper, so their shared columns are
// bit-identical by construction. opt's own chaos schedule and tail
// fraction do not apply.
func lossyUtil(p protocol.Protocol, opt metrics.Options, constLoss float64, sched *chaos.Schedule, seed uint64) (float64, error) {
	cfg := FluidLink(20, 100)
	if constLoss > 0 {
		cfg.Loss = fluid.NewConstantLoss(constLoss)
	}
	sums, err := metrics.StreamRuns(cfg, []protocol.Protocol{p}, metrics.Options{
		Steps:       optSteps(opt),
		TailFrac:    0.75,
		InitConfigs: [][]float64{{1}},
		Workers:     opt.Workers,
		Chaos:       sched,
		ChaosSeed:   seed,
		Session:     opt.Session,
	})
	if err != nil {
		return 0, err
	}
	return sums[0].Utilization, nil
}

// robustnessCell computes one protocol's Metric VI row: the bisected
// loss-tolerance threshold and the constant-0.5%-loss utilization.
func robustnessCell(p protocol.Protocol, cellOpt metrics.Options) (RobustnessEntry, error) {
	thr, err := metrics.Robustness(p, 0.5, 1e-3, cellOpt)
	if err != nil {
		return RobustnessEntry{}, err
	}
	util, err := lossyUtil(p, cellOpt, 0.005, nil, 0)
	if err != nil {
		return RobustnessEntry{}, err
	}
	return RobustnessEntry{Name: p.Name(), Threshold: thr, UtilAtHalfPercent: util}, nil
}

// RobustnessSweep scores the paper's protocol set (plus the PCC stand-in
// and TFRC) on Metric VI: Table 1's claim is that every family scores 0
// except Robust-AIMD, which scores its ε, while PCC tolerates ≈ 1/(1+δ).
func RobustnessSweep(opt metrics.Options) ([]RobustnessEntry, error) {
	defer obs.StartPhase("robustness")()
	protos := robustnessProtocols()
	cellOpt := opt.SweepCell()
	return engine.Sweep(context.Background(), len(protos), engine.SweepConfig{Workers: opt.Workers},
		func(_ context.Context, i int, _ uint64) (RobustnessEntry, error) {
			return robustnessCell(protos[i], cellOpt)
		})
}

// ChaosRobustnessEntry extends the Metric VI row with two scheduled-fault
// columns: utilization under bursty correlated (Gilbert–Elliott) loss and
// under a periodically flapping link.
type ChaosRobustnessEntry struct {
	RobustnessEntry
	// UtilBurstyLoss is the utilization under a two-state Gilbert–Elliott
	// loss chain whose stationary mean is ≈ 0.5% — the bursty counterpart
	// of the constant-loss column.
	UtilBurstyLoss float64
	// UtilFlappyLink is the utilization on a link that goes down for 40
	// steps out of every 800.
	UtilFlappyLink float64
}

// ChaosRobustnessSweep is the chaos-aware extension of RobustnessSweep:
// the constant-loss columns are computed by the same code path (and are
// bit-identical to RobustnessSweep's), while the extra columns rerun the
// lossy-link scenario under deterministic fault-injection schedules
// seeded per cell from chaosSeed.
func ChaosRobustnessSweep(opt metrics.Options, chaosSeed uint64) ([]ChaosRobustnessEntry, error) {
	defer obs.StartPhase("robustness-chaos")()
	protos := robustnessProtocols()
	cellOpt := opt.SweepCell()
	// A GE chain dwelling ~3% of the time in an 8%-loss bad state gives a
	// stationary loss of 0.02/(0.02+0.3)·0.08 ≈ 0.5% — matched to the
	// constant-loss column so the two are directly comparable.
	bursty := chaos.BurstyLoss(0.02, 0.3, 0.08)
	flappy := chaos.FlappyLink(optSteps(opt), 800, 800, 40)
	for _, s := range []*chaos.Schedule{bursty, flappy} {
		if err := s.Normalize(); err != nil {
			return nil, err
		}
	}
	return engine.Sweep(context.Background(), len(protos), engine.SweepConfig{Workers: opt.Workers, BaseSeed: chaosSeed},
		func(_ context.Context, i int, seed uint64) (ChaosRobustnessEntry, error) {
			p := protos[i]
			base, err := robustnessCell(p, cellOpt)
			if err != nil {
				return ChaosRobustnessEntry{}, err
			}
			burstyUtil, err := lossyUtil(p, cellOpt, 0, bursty, seed)
			if err != nil {
				return ChaosRobustnessEntry{}, err
			}
			flappyUtil, err := lossyUtil(p, cellOpt, 0, flappy, seed)
			if err != nil {
				return ChaosRobustnessEntry{}, err
			}
			return ChaosRobustnessEntry{
				RobustnessEntry: base,
				UtilBurstyLoss:  burstyUtil,
				UtilFlappyLink:  flappyUtil,
			}, nil
		})
}

// RenderChaosRobustness formats the extended sweep.
func RenderChaosRobustness(entries []ChaosRobustnessEntry) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "protocol\tMetric VI threshold\tutil @0.5% loss\tutil @bursty loss\tutil @flappy link")
	for _, e := range entries {
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%.3f\t%.3f\n", e.Name, e.Threshold, e.UtilAtHalfPercent, e.UtilBurstyLoss, e.UtilFlappyLink)
	}
	w.Flush()
	return sb.String()
}

// RenderRobustness formats the sweep.
func RenderRobustness(entries []RobustnessEntry) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "protocol\tMetric VI threshold\tutilization @0.5% loss")
	for _, e := range entries {
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\n", e.Name, e.Threshold, e.UtilAtHalfPercent)
	}
	w.Flush()
	return sb.String()
}

// ParkingLotEntry is one hop-count's outcome in the network-wide
// experiment.
type ParkingLotEntry struct {
	Hops int
	// WindowRatio is long flow avg window / short flows' avg window
	// under stochastic loss observation.
	WindowRatio float64
	// GoodputRatio is the same for goodput (RTT-weighted).
	GoodputRatio float64
	// LinkUtil is the mean per-link utilization.
	LinkUtil float64
}

// ParkingLotExperiment sweeps parking-lot sizes for the §6 network-wide
// extension: the long flow's share decays with hop count.
func ParkingLotExperiment(hops []int, steps int, seed uint64) ([]ParkingLotEntry, error) {
	defer obs.StartPhase("parking-lot")()
	if len(hops) == 0 {
		hops = []int{1, 2, 3, 4}
	}
	if steps == 0 {
		steps = 6000
	}
	link := nettopo.LinkSpec{
		Bandwidth: 100 / 0.042,
		PropDelay: 0.021,
		Buffer:    20,
	}
	// One session resolves every hop count's run; it inherits the
	// process-wide store, so a warm rerun simulates nothing.
	session := metrics.NewSession()
	return engine.Sweep(context.Background(), len(hops), engine.SweepConfig{},
		func(ctx context.Context, i int, _ uint64) (ParkingLotEntry, error) {
			k := hops[i]
			links, flows, err := nettopo.ParkingLot(k, link, protocol.Reno(), 1)
			if err != nil {
				return ParkingLotEntry{}, err
			}
			sum, err := metrics.RunTopo(ctx, metrics.TopoRunSpec{
				Links:      links,
				Flows:      flows,
				Steps:      steps,
				TailFrac:   0.75,
				Stochastic: true,
				Seed:       seed,
				Session:    session,
			})
			if err != nil {
				return ParkingLotEntry{}, err
			}
			shortW, shortG := 0.0, 0.0
			for f := 1; f <= k; f++ {
				shortW += sum.AvgWindows[f]
				shortG += sum.AvgGoodputs[f]
			}
			shortW /= float64(k)
			shortG /= float64(k)
			util := 0.0
			for l := 0; l < k; l++ {
				util += sum.LinkUtil[l]
			}
			return ParkingLotEntry{
				Hops:         k,
				WindowRatio:  sum.AvgWindows[0] / shortW,
				GoodputRatio: sum.AvgGoodputs[0] / shortG,
				LinkUtil:     util / float64(k),
			}, nil
		})
}

// RenderParkingLot formats the sweep.
func RenderParkingLot(entries []ParkingLotEntry) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "hops\tlong/short window\tlong/short goodput\tlink util")
	for _, e := range entries {
		fmt.Fprintf(w, "%d\t%.3f\t%.3f\t%.3f\n", e.Hops, e.WindowRatio, e.GoodputRatio, e.LinkUtil)
	}
	w.Flush()
	return sb.String()
}
