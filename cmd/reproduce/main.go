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
// The experiments are the entries of one catalogue, report.Experiments:
// -exp prints the text of the entry it names, and -report <dir> renders
// every entry, in the same order and under the same flags, as a Markdown
// section (that text, fenced) plus the entries' SVG plots.
//
// An unknown -exp id is an error that lists the valid ones (exit 2).
// -quick shrinks grids and horizons for a fast smoke pass. -seed reaches
// every randomized component: packet-level cells, the parking lot's loss
// observation and the chaos schedules. -chaos applies a fault-injection
// schedule (JSON, see EXPERIMENTS.md) to every metric-estimator run.
// Every sweep cell is deterministic and runs once; the first failing
// cell stops the command. Completed cells persist in the run store, so
// rerunning an interrupted command against the same -store resumes it.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	axiomcc "repro"
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
		reportDir = flag.String("report", "", "render every -exp experiment as Markdown+SVG into this directory and exit")
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

	steps, dur := 4000, 60.0
	if *quick {
		steps, dur = 1200, 20
	}
	f := report.Flags{
		// One session across every experiment in the invocation: cross-
		// experiment baselines (Reno comparators, repeated probes)
		// simulate once, and with the persistent store enabled a rerun
		// over an unchanged tree simulates nothing at all.
		Opt:      axiomcc.MetricOptions{Steps: steps, Workers: *workers, Session: axiomcc.NewMetricSession()},
		Duration: dur, Quick: *quick, Seed: *seed, Mbps: *mbps, Buffer: *buf, N: *n,
	}
	if *chaosPath != "" {
		sched, err := axiomcc.LoadChaosSchedule(*chaosPath)
		if err != nil {
			fail(err)
		}
		f.Opt.Chaos, f.Opt.ChaosSeed = sched, *seed
	}

	if *reportDir != "" {
		path, err := report.Write(*reportDir, f, time.Now())
		if err != nil {
			fail(err)
		}
		fmt.Println("wrote", path)
		return
	}

	// -exp is checked against the catalogue's ids before anything runs.
	var ids []string
	var exps []report.Experiment
	for _, e := range report.Experiments {
		ids = append(ids, e.ID)
		if *exp == "all" || *exp == e.ID {
			exps = append(exps, e)
		}
	}
	if len(exps) == 0 {
		fmt.Fprintf(os.Stderr, "reproduce: unknown experiment %q (valid: %s, all)\n", *exp, strings.Join(ids, ", "))
		obsStop()
		os.Exit(2)
	}
	for _, e := range exps {
		fmt.Printf("==== %s ====\n", e.ID)
		start := time.Now()
		text, err := e.Run(f)
		if err != nil {
			fail(fmt.Errorf("%s: %w", e.ID, err))
		}
		fmt.Print(text)
		fmt.Printf("---- %s done in %v ----\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}

// fail reports err, flushes the observability artifacts and exits 1.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "reproduce:", err)
	obsStop()
	os.Exit(1)
}
