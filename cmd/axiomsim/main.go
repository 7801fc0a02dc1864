// Command axiomsim runs a single congestion-control scenario — on the
// fluid-flow model or the packet-level testbed — and prints a summary, the
// per-sender outcomes and, optionally, the full trace as TSV.
//
// Examples:
//
//	axiomsim -protocols reno,reno -mbps 20 -buffer 100 -steps 4000
//	axiomsim -model packet -protocols raimd:1,0.8,0.01,pcc -mbps 60 -duration 60
//	axiomsim -protocols reno -loss 0.01 -infinite -steps 500 -tsv
//	axiomsim -protocols reno,cubic -chaos scenarios/chaos/flappy-link.json
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	axiomcc "repro"
	"repro/internal/lifecycle"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/svgplot"
)

// obsStop flushes profiles and the run manifest; fatal invokes it so
// error exits still leave valid artifacts behind. Idempotent.
var obsStop func() error

func main() {
	var (
		protoSpecs = flag.String("protocols", "reno,reno", "comma-separated protocol specs (see -list)")
		mbps       = flag.Float64("mbps", 20, "link bandwidth in Mbps")
		rttMS      = flag.Float64("rtt", 42, "round-trip propagation delay in ms")
		buffer     = flag.Float64("buffer", 100, "buffer size in MSS")
		steps      = flag.Int("steps", 4000, "fluid model: steps to simulate")
		duration   = flag.Float64("duration", 60, "packet model: seconds to simulate")
		model      = flag.String("model", "fluid", "simulator: fluid or packet")
		initStr    = flag.String("init", "", "comma-separated initial windows (default all 1)")
		lossRate   = flag.Float64("loss", 0, "non-congestion loss rate (fluid: constant process; packet: per-packet drop)")
		infinite   = flag.Bool("infinite", false, "fluid model: infinite-capacity link (Metric VI scenario)")
		seed       = flag.Uint64("seed", 0, "random seed for loss processes")
		tsv        = flag.Bool("tsv", false, "dump the full trace as TSV")
		svgPath    = flag.String("svg", "", "write a window-trace SVG chart to this file")
		tailFrac   = flag.Float64("tail", metrics.DefaultTailFrac, "tail fraction for summary statistics, in [0, 1); 0 selects the default")
		list       = flag.Bool("list", false, "list accepted protocol specs and exit")
		scenarioF  = flag.String("scenario", "", "run JSON scenario file(s), comma-separated (see scenarios/), and ignore the other flags")
		jsonOut    = flag.Bool("json", false, "with -scenario: emit the outcome as JSON")
		workers    = flag.Int("workers", 0, "with -scenario: parallel workers across scenario files (0 = GOMAXPROCS)")
		chaosPath  = flag.String("chaos", "", "fault-injection schedule (JSON file) applied to the run")
	)
	ofl := obs.RegisterFlags(flag.CommandLine)
	stfl := axiomcc.RegisterStoreFlags(flag.CommandLine)
	flag.Parse()
	defer stfl.Apply("axiomsim")()

	stop, err := ofl.Start("axiomsim")
	if err != nil {
		fatal(err)
	}
	obsStop = stop
	lifecycle.Install("axiomsim", stop)
	defer func() {
		if err := stop(); err != nil {
			fmt.Fprintln(os.Stderr, "axiomsim:", err)
		}
	}()
	obs.RecordSeed(*seed)

	if *scenarioF != "" {
		runScenarios(strings.Split(*scenarioF, ","), *jsonOut, *workers)
		return
	}

	if *list {
		fmt.Println(`protocol specs:
  reno                 AIMD(1,0.5)         scalable    MIMD(1.01,0.875)
  scalable-aimd        AIMD(1,0.875)       cubic       CUBIC(0.4,0.8)
  iiad                 BIN(1,1,1,0)        sqrt        BIN(1,0.5,0.5,0.5)
  pcc                  PCC stand-in        vegas       Vegas(2,4)
  tfrc                 equation-based      hstcp       HighSpeed TCP
  bbr                  BBR-style model     probe:a     Claim 1 probe
  aimd:a,b  mimd:a,b  bin:a,b,k,l  cubic:c,b  raimd:a,b,eps  pcc:delta
  vegas:alpha,beta  tfrc:alpha`)
		return
	}

	if !(*tailFrac >= 0 && *tailFrac < 1) {
		fatal(fmt.Errorf("-tail %v outside [0, 1)", *tailFrac))
	}
	// 0 selects the default tail, as it does for every estimator.
	tail := *tailFrac
	if tail == 0 {
		tail = metrics.DefaultTailFrac
	}
	if !(*lossRate >= 0 && *lossRate < 1) {
		fatal(fmt.Errorf("-loss %v outside [0, 1)", *lossRate))
	}
	protos, err := parseProtocols(*protoSpecs)
	if err != nil {
		fatal(err)
	}
	inits, err := parseFloats(*initStr)
	if err != nil {
		fatal(err)
	}
	var chaosSched *axiomcc.ChaosSchedule
	if *chaosPath != "" {
		if chaosSched, err = axiomcc.LoadChaosSchedule(*chaosPath); err != nil {
			fatal(err)
		}
	}

	theta := *rttMS / 1000 / 2
	switch *model {
	case "fluid":
		cfg := axiomcc.LinkConfig{
			Bandwidth: axiomcc.MbpsToMSSps(*mbps),
			PropDelay: theta,
			Buffer:    *buffer,
			Infinite:  *infinite,
			Seed:      *seed,
		}
		if *lossRate > 0 {
			cfg.Loss = axiomcc.NewConstantLoss(*lossRate)
		}
		// Even a single run goes through the sweep orchestrator as a
		// 1-cell grid: with observability engaged the run record picks up
		// the cell latency histogram and worker-pool stats. The recorded
		// trace feeds -tsv, -svg and its own summary line; every tail
		// score comes from the Stream's summary, as the estimators score.
		var sum *metrics.StreamSummary
		trs, err := axiomcc.EngineSweep(context.Background(), 1, axiomcc.SweepConfig{},
			func(ctx context.Context, _ int, _ uint64) (*axiomcc.Trace, error) {
				sub := &axiomcc.EngineFluidSpec{Cfg: cfg, Senders: axiomcc.MixedSenders(protos, inits), Steps: *steps}
				st := metrics.NewStream(sub.Meta(), tail)
				rec := axiomcc.NewEngineRecorder(sub.Meta())
				if _, err := axiomcc.EngineRun(ctx, axiomcc.EngineSpec{
					Substrate: sub,
					Observers: []axiomcc.EngineObserver{st, rec},
					Chaos:     chaosSched,
					ChaosSeed: *seed,
				}); err != nil {
					return nil, err
				}
				sum = st.Summary()
				return rec.Trace(), nil
			})
		if err != nil {
			fatal(err)
		}
		tr := trs[0]
		if *tsv {
			if err := tr.WriteTSV(os.Stdout); err != nil {
				fatal(err)
			}
			return
		}
		if *svgPath != "" {
			if err := writeWindowSVG(*svgPath, tr, protos); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", *svgPath)
		}
		fmt.Printf("fluid link: C=%.1f MSS, buffer=%.0f MSS, base RTT=%.0f ms\n",
			cfg.Capacity(), cfg.Buffer, 2*theta*1000)
		fmt.Println(tr.Summary(tail))
		for i, p := range protos {
			fmt.Printf("  sender %d %-24s avg window %8.2f  avg goodput %9.1f MSS/s\n",
				i, p.Name(), sum.AvgWindows[i], sum.AvgGoodputs[i])
		}
		fmt.Printf("tail metrics: efficiency=%.3f loss=%.4f fairness=%.3f latency-inflation=%.3f\n",
			sum.Efficiency, sum.LossAvoidance, sum.Fairness(), sum.LatencyAvoidance)

	case "packet":
		// The packet queue holds whole packets: the conversion to int
		// must neither wrap nor take a NaN.
		if !(*buffer >= 0 && *buffer < math.MaxInt) {
			fatal(fmt.Errorf("-buffer %v: the packet model needs a finite, non-negative packet count", *buffer))
		}
		cfg := axiomcc.PacketConfig{
			Bandwidth:  axiomcc.MbpsToMSSps(*mbps),
			PropDelay:  theta,
			Buffer:     int(*buffer),
			RandomLoss: *lossRate,
			Seed:       *seed,
		}
		flows := make([]axiomcc.PacketFlow, len(protos))
		for i, p := range protos {
			init := 1.0
			if len(inits) > 0 {
				init = inits[i%len(inits)]
			}
			flows[i] = axiomcc.PacketFlow{Proto: p, Init: init}
		}
		// Only -tsv and -svg read the per-tick trace.
		sub := &axiomcc.EnginePacketSpec{Cfg: cfg, Flows: flows, Duration: *duration}
		var rec *axiomcc.EngineRecorder
		var observers []axiomcc.EngineObserver
		if *tsv || *svgPath != "" {
			rec = axiomcc.NewEngineRecorder(sub.Meta())
			observers = []axiomcc.EngineObserver{rec}
		}
		ress, err := axiomcc.EngineSweep(context.Background(), 1, axiomcc.SweepConfig{},
			func(ctx context.Context, _ int, _ uint64) (*axiomcc.PacketResult, error) {
				eres, err := axiomcc.EngineRun(ctx, axiomcc.EngineSpec{
					Substrate: sub,
					Observers: observers,
					Chaos:     chaosSched,
					ChaosSeed: *seed,
				})
				if err != nil {
					return nil, err
				}
				return eres.Packet, nil
			})
		if err != nil {
			fatal(err)
		}
		res := ress[0]
		if *tsv {
			if err := rec.Trace().WriteTSV(os.Stdout); err != nil {
				fatal(err)
			}
			return
		}
		if *svgPath != "" {
			if err := writeWindowSVG(*svgPath, rec.Trace(), protos); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", *svgPath)
		}
		fmt.Printf("packet link: %.0f MSS/s (%.0f Mbps), buffer=%d pkts, base RTT=%.0f ms, %.0fs simulated\n",
			cfg.Bandwidth, *mbps, cfg.Buffer, 2*theta*1000, *duration)
		total := 0.0
		for i, p := range protos {
			thr := res.Throughput(i, tail)
			total += thr
			fmt.Printf("  flow %d %-24s delivered %8d pkts  tail throughput %9.1f MSS/s (%.1f%% of link)\n",
				i, p.Name(), res.Delivered[i], thr, 100*thr/cfg.Bandwidth)
		}
		fmt.Printf("aggregate tail utilization: %.1f%%\n", 100*total/cfg.Bandwidth)

	default:
		fatal(fmt.Errorf("unknown -model %q (want fluid or packet)", *model))
	}
}

func parseProtocols(specs string) ([]axiomcc.Protocol, error) {
	// Specs contain commas inside parameter lists (aimd:1,0.5), so split
	// on commas that are followed by a protocol-name character sequence
	// containing a letter. Simpler and unambiguous: parameters are
	// numeric, names start with a letter — split greedily.
	var out []axiomcc.Protocol
	fields := strings.Split(specs, ",")
	cur := ""
	flush := func() error {
		if cur == "" {
			return nil
		}
		p, err := axiomcc.ParseProtocol(cur)
		if err != nil {
			return err
		}
		out = append(out, p)
		cur = ""
		return nil
	}
	for _, f := range fields {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		if startsWithLetter(f) {
			if err := flush(); err != nil {
				return nil, err
			}
			cur = f
		} else {
			if cur == "" {
				return nil, fmt.Errorf("dangling parameter %q in -protocols", f)
			}
			cur += "," + f
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no protocols given")
	}
	return out, nil
}

func startsWithLetter(s string) bool {
	c := s[0]
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func parseFloats(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []float64
	for _, f := range strings.Split(s, ",") {
		var v float64
		if _, err := fmt.Sscanf(strings.TrimSpace(f), "%g", &v); err != nil {
			return nil, fmt.Errorf("bad initial window %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

// runScenarios loads the given JSON scenarios and runs them through the
// engine orchestrator — independent files execute in parallel across
// workers; outcomes print in input order.
func runScenarios(paths []string, jsonOut bool, workers int) {
	specs := make([]*scenario.Spec, 0, len(paths))
	for _, path := range paths {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		spec, err := scenario.Load(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		fatal(fmt.Errorf("no scenario files given"))
	}
	outs, err := axiomcc.EngineSweep(context.Background(), len(specs), axiomcc.SweepConfig{Workers: workers},
		func(ctx context.Context, i int, _ uint64) (*scenario.Outcome, error) {
			return specs[i].RunContext(ctx)
		})
	if err != nil {
		fatal(err)
	}
	for _, out := range outs {
		if jsonOut {
			raw, err := out.JSON()
			if err != nil {
				fatal(err)
			}
			fmt.Println(string(raw))
			continue
		}
		fmt.Print(out.Render())
	}
}

// writeWindowSVG renders every sender's window series as a line chart.
func writeWindowSVG(path string, tr *axiomcc.Trace, protos []axiomcc.Protocol) error {
	series := make([]svgplot.Series, len(protos))
	for i, p := range protos {
		series[i] = svgplot.Series{
			Name: fmt.Sprintf("%d: %s", i, p.Name()),
			Y:    tr.Window(i),
		}
	}
	svg := svgplot.Lines(series, svgplot.LineOptions{
		Title:  "congestion windows",
		XLabel: "time step",
		YLabel: "window (MSS)",
	})
	return os.WriteFile(path, []byte(svg), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "axiomsim:", err)
	if obsStop != nil {
		obsStop()
	}
	os.Exit(1)
}
