// Command reproduce regenerates every table and figure of "An Axiomatic
// Approach to Congestion Control" (HotNets 2017) from this repository's
// simulators:
//
//	reproduce -exp table1        Table 1's closed forms at a chosen link
//	reproduce -exp table1-sim    Table 1 validated on the fluid model
//	reproduce -exp hierarchy     §5.1 Emulab protocol-ordering experiments
//	reproduce -exp table2        Table 2: Robust-AIMD vs PCC friendliness
//	reproduce -exp figure1       Figure 1's frontier surface + spot checks
//	reproduce -exp claim1        Claim 1's probe demonstration
//	reproduce -exp theorem1..5   executable checks of Theorems 1-5
//	reproduce -exp robustness    Metric VI sweep (Table 1's robustness column)
//	reproduce -exp robustness-chaos  Metric VI extended with bursty-loss and flappy-link columns
//	reproduce -exp parkinglot    §6 network-wide extension (nettopo parking lot)
//	reproduce -exp topo-axioms   the eight metrics measured on multi-bottleneck DAG topologies
//	reproduce -exp all           everything above
//
// An unknown -exp id is an error that lists the valid ones (exit 2).
// -quick shrinks grids and horizons for a fast smoke pass. -chaos applies
// a fault-injection schedule (JSON, see EXPERIMENTS.md) to every
// metric-estimator run. Every sweep cell is deterministic and runs once;
// the first failing cell stops the command. Completed cells persist in
// the run store, so rerunning an interrupted command against the same
// -store resumes it.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	axiomcc "repro"
	"repro/internal/experiment"
	"repro/internal/lifecycle"
	"repro/internal/obs"
	"repro/internal/report"
)

// obsStop flushes profiles and the run manifest; the error paths invoke
// it so failed reproductions still leave valid artifacts. Idempotent.
var obsStop func() error

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment id (see package comment)")
		quick     = flag.Bool("quick", false, "reduced grids and horizons")
		mbps      = flag.Float64("mbps", 20, "link bandwidth for table1/table1-sim")
		buf       = flag.Float64("buffer", 100, "buffer for table1/table1-sim (MSS)")
		n         = flag.Int("n", 2, "senders for table1/table1-sim")
		reportDir = flag.String("report", "", "write a full Markdown+SVG reproduction report into this directory and exit")
		seed      = flag.Uint64("seed", 0, "seed for randomized components")
		workers   = flag.Int("workers", 0, "parallel workers for sweep grids (0 = GOMAXPROCS)")
		chaosPath = flag.String("chaos", "", "fault-injection schedule (JSON file) applied to metric runs")
	)
	ofl := obs.RegisterFlags(flag.CommandLine)
	stfl := axiomcc.RegisterStoreFlags(flag.CommandLine)
	flag.Parse()
	defer stfl.Apply("reproduce")()

	stop, err := ofl.Start("reproduce")
	if err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(1)
	}
	obsStop = stop
	lifecycle.Install("reproduce", stop)
	defer func() {
		if err := stop(); err != nil {
			fmt.Fprintln(os.Stderr, "reproduce:", err)
		}
	}()
	obs.RecordSeed(*seed)

	if *reportDir != "" {
		path, err := report.Write(*reportDir, report.Config{Quick: *quick, Seed: *seed}, time.Now())
		if err != nil {
			fmt.Fprintln(os.Stderr, "reproduce:", err)
			obsStop()
			os.Exit(1)
		}
		fmt.Println("wrote", path)
		return
	}

	// Experiments register in output order and run after -exp is checked
	// against their ids.
	type experimentRun struct {
		id string
		f  func() error
	}
	var exps []experimentRun
	add := func(id string, f func() error) { exps = append(exps, experimentRun{id, f}) }

	steps := 4000
	dur := 60.0
	if *quick {
		steps = 1200
		dur = 20
	}
	opt := axiomcc.MetricOptions{Steps: steps, Workers: *workers}
	// One session across every experiment in the invocation: cross-
	// experiment baselines (Reno comparators, repeated probes) simulate
	// once, and with the persistent store enabled a rerun over an
	// unchanged tree simulates nothing at all.
	opt.Session = axiomcc.NewMetricSession()
	if *chaosPath != "" {
		sched, err := axiomcc.LoadChaosSchedule(*chaosPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reproduce:", err)
			obsStop()
			os.Exit(1)
		}
		opt.Chaos = sched
		opt.ChaosSeed = *seed
	}

	add("table1", func() error {
		// The closed forms are printed only for a link table1-sim would
		// accept.
		cfg := experiment.FluidLink(*mbps, *buf)
		if err := cfg.Validate(); err != nil {
			return err
		}
		lp := experiment.LinkParams(cfg, *n)
		if err := lp.Validate(); err != nil {
			return err
		}
		fmt.Printf("link: C=%.1f MSS, τ=%.0f MSS, n=%d\n\n", lp.C, lp.Tau, lp.N)
		fmt.Print(experiment.RenderTable1Theory(experiment.Table1Theory(lp)))
		return nil
	})

	add("table1-sim", func() error {
		cfg := experiment.FluidLink(*mbps, *buf)
		scores, err := experiment.Table1Empirical(cfg, *n, opt)
		if err != nil {
			return err
		}
		fmt.Print(experiment.RenderTable1Empirical(scores))
		return nil
	})

	add("hierarchy", func() error {
		hc := experiment.HierarchyConfig{Duration: dur, Workers: *workers}
		if *quick {
			hc.Senders = []int{2}
			hc.Bandwidths = []float64{20, 60}
			hc.Buffers = []int{100}
		}
		res, err := experiment.Hierarchy(hc)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		return nil
	})

	add("table2", func() error {
		tc := experiment.Table2Config{Duration: dur, Workers: *workers}
		if *quick {
			tc.Senders = []int{2, 3}
			tc.Bandwidths = []float64{20, 60}
		}
		res, err := experiment.Table2(tc)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		return nil
	})

	add("figure1", func() error {
		pts := experiment.Figure1(12, 9)
		fmt.Print(experiment.RenderFigure1(pts))
		fmt.Println()
		checks, err := experiment.Figure1SpotChecks([][2]float64{{1, 0.5}, {2, 0.5}, {1, 0.8}, {0.5, 0.5}}, opt)
		if err != nil {
			return err
		}
		fmt.Print(experiment.RenderFigure1Checks(checks))
		return nil
	})

	add("claim1", func() error {
		ev, err := experiment.CheckClaim1(opt)
		if err != nil {
			return err
		}
		fmt.Printf("probe-until-loss on a finite link:\n  tail loss      = %.6f (0-loss)\n  tail efficiency = %.3f\n  fast-utilization = %.6f (not α-fast-utilizing for any α>0)\n  claim holds    = %v\n",
			ev.TailLoss, ev.Efficiency, ev.FastUtil, ev.Holds)
		return nil
	})

	add("theorem1", func() error {
		checks, err := experiment.CheckTheorem1(opt, 0)
		if err != nil {
			return err
		}
		fmt.Print(experiment.RenderChecks("α-convergent ∧ β-fast-utilizing ⇒ α/(2−α)-efficient", checks,
			func(c experiment.Theorem1Check) string {
				return fmt.Sprintf("%s\tconv=%.3f\tfast=%.3f\teff=%.3f\tbound=%.3f\tholds=%v",
					c.Name, c.Convergence, c.FastUtil, c.Efficiency, c.Bound, c.Holds)
			}))
		return nil
	})

	add("theorem2", func() error {
		checks, err := experiment.CheckTheorem2(nil, opt, 0)
		if err != nil {
			return err
		}
		fmt.Print(experiment.RenderChecks("TCP-friendliness ≤ 3(1−β)/(α(1+β)), tight for AIMD(α,β)", checks,
			func(c experiment.Theorem2Check) string {
				return fmt.Sprintf("AIMD(%g,%g)\tbound=%.3f\tmeasured=%.3f\ttightness=%.2f\tholds=%v",
					c.A, c.B, c.Bound, c.Measured, c.Tightness, c.Holds)
			}))
		return nil
	})

	add("theorem3", func() error {
		checks, err := experiment.CheckTheorem3(nil, opt, 0)
		if err != nil {
			return err
		}
		fmt.Print(experiment.RenderChecks("ε-robustness caps TCP-friendliness (Theorem 3)", checks,
			func(c experiment.Theorem3Check) string {
				return fmt.Sprintf("ε=%g\tceiling=%.5f\tnon-robust ceiling=%.3f\tmeasured=%.4f\tholds=%v",
					c.Eps, c.Bound, c.NonRobustCeiling, c.Measured, c.Holds)
			}))
		return nil
	})

	add("theorem4", func() error {
		checks, err := experiment.CheckTheorem4(opt, 0)
		if err != nil {
			return err
		}
		fmt.Print(experiment.RenderChecks("α-TCP-friendly ⇒ α-friendly to protocols more aggressive than Reno", checks,
			func(c experiment.Theorem4Check) string {
				return fmt.Sprintf("P=%s\tQ=%s\tQ-more-aggressive=%v\tfriendly-to-Reno=%.3f\tfriendly-to-Q=%.3f\tholds=%v",
					c.P, c.Q, c.QMoreAggressive, c.FriendlyToReno, c.FriendlyToQ, c.Holds)
			}))
		return nil
	})

	add("robustness", func() error {
		entries, err := experiment.RobustnessSweep(opt)
		if err != nil {
			return err
		}
		fmt.Print(experiment.RenderRobustness(entries))
		return nil
	})

	add("robustness-chaos", func() error {
		entries, err := experiment.ChaosRobustnessSweep(opt, *seed)
		if err != nil {
			return err
		}
		fmt.Print(experiment.RenderChaosRobustness(entries))
		return nil
	})

	add("topo-axioms", func() error {
		rows, err := experiment.TopoAxioms(opt)
		if err != nil {
			return err
		}
		fmt.Print(experiment.RenderTopoAxioms(rows))
		return nil
	})

	add("parkinglot", func() error {
		hops := []int{1, 2, 3, 4}
		if *quick {
			hops = []int{1, 3}
		}
		entries, err := experiment.ParkingLotExperiment(hops, steps, 7)
		if err != nil {
			return err
		}
		fmt.Print(experiment.RenderParkingLot(entries))
		return nil
	})

	add("theorem5", func() error {
		checks, err := experiment.CheckTheorem5(opt, 0)
		if err != nil {
			return err
		}
		fmt.Print(experiment.RenderChecks("efficient loss-based protocols starve latency avoiders", checks,
			func(c experiment.Theorem5Check) string {
				return fmt.Sprintf("%s vs %s\teff=%.3f\tavoider-latency=%.4f\tfriendliness=%.4f\tholds=%v",
					c.LossBased, c.LatencyAvoider, c.LossBasedEff, c.AvoiderLatency, c.Friendliness, c.Holds)
			}))
		return nil
	})

	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.id
	}
	if *exp != "all" && !slices.Contains(ids, *exp) {
		fmt.Fprintf(os.Stderr, "reproduce: unknown experiment %q (valid: %s, all)\n", *exp, strings.Join(ids, ", "))
		obsStop()
		os.Exit(2)
	}
	for _, e := range exps {
		if *exp != "all" && *exp != e.id {
			continue
		}
		fmt.Printf("==== %s ====\n", e.id)
		start := time.Now()
		if err := e.f(); err != nil {
			fmt.Fprintf(os.Stderr, "reproduce: %s: %v\n", e.id, err)
			obsStop()
			os.Exit(1)
		}
		fmt.Printf("---- %s done in %v ----\n\n", e.id, time.Since(start).Round(time.Millisecond))
	}
}
