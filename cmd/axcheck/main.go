// Command axcheck falsifies axiom claims: it searches initial-window
// configurations for a counterexample to "protocol P is α-<metric>" on a
// given link, printing the witness when the claim dies.
//
// Examples:
//
//	axcheck -protocol reno -claim efficient -alpha 0.9          # dies (witness shown)
//	axcheck -protocol reno -claim efficient -alpha 0.55         # survives
//	axcheck -protocol scalable -claim fair -alpha 0.5 -n 2      # dies: MIMD is 0-fair
//	axcheck -protocol raimd:1,0.8,0.01 -claim friendly -alpha 0.3
//
// With -lint, axcheck instead validates JSON artifacts (scenario specs
// and chaos schedules) without simulating — the CI gate that keeps every
// file under scenarios/ loadable:
//
//	axcheck -lint scenarios                  # walk a tree of *.json
//	axcheck -lint scenarios/topo/incast.json # lint specific files
package main

import (
	"flag"
	"fmt"
	"os"

	axiomcc "repro"
	"repro/internal/axcheck"
	"repro/internal/lifecycle"
	"repro/internal/obs"
)

// obsStop flushes profiles and the run manifest; the exiting paths invoke
// it so the FALSIFIED exit still leaves valid artifacts. Idempotent.
var obsStop func() error

var claims = map[string]axcheck.Claim{
	"efficient":     axcheck.Efficient,
	"loss-avoiding": axcheck.LossAvoiding,
	"fair":          axcheck.Fair,
	"convergent":    axcheck.Convergent,
	"friendly":      axcheck.FriendlyToReno,
}

func main() {
	var (
		spec   = flag.String("protocol", "reno", "protocol spec (see axiomsim -list)")
		claim  = flag.String("claim", "efficient", "efficient | loss-avoiding | fair | convergent | friendly")
		alpha  = flag.Float64("alpha", 0.5, "claimed score α")
		mbps   = flag.Float64("mbps", 20, "link bandwidth in Mbps")
		rttMS  = flag.Float64("rtt", 42, "round-trip propagation delay in ms")
		buffer = flag.Float64("buffer", 20, "buffer size in MSS")
		n      = flag.Int("n", 2, "number of senders")
		steps  = flag.Int("steps", 3000, "horizon per candidate configuration")
		trials = flag.Int("trials", 24, "random configurations beyond the corners")
		seed   = flag.Uint64("seed", 0, "search seed")
		slack  = flag.Float64("slack", axcheck.DefaultSlack, "violation tolerance")
		lint   = flag.Bool("lint", false, "lint the JSON artifacts (files or directories) given as arguments and exit")
	)
	ofl := obs.RegisterFlags(flag.CommandLine)
	stfl := axiomcc.RegisterStoreFlags(flag.CommandLine)
	flag.Parse()
	defer stfl.Apply("axcheck")()

	if *lint {
		paths := flag.Args()
		if len(paths) == 0 {
			fmt.Fprintln(os.Stderr, "axcheck: -lint needs files or directories as arguments")
			os.Exit(2)
		}
		results, err := axcheck.LintPaths(paths)
		if err != nil {
			fmt.Fprintln(os.Stderr, "axcheck:", err)
			os.Exit(2)
		}
		failed := 0
		for _, r := range results {
			if r.Err != nil {
				failed++
				fmt.Printf("%s: FAIL: %v\n", r.Path, r.Err)
				continue
			}
			fmt.Printf("%s: ok (%s)\n", r.Path, r.Kind)
		}
		fmt.Printf("linted %d artifacts, %d failed\n", len(results), failed)
		if failed > 0 {
			os.Exit(1)
		}
		return
	}

	stop, err := ofl.Start("axcheck")
	if err != nil {
		fatal(fmt.Errorf("axcheck: %w", err))
	}
	obsStop = stop
	lifecycle.Install("axcheck", stop)
	defer func() {
		if err := stop(); err != nil {
			fmt.Fprintln(os.Stderr, "axcheck:", err)
		}
	}()
	obs.RecordSeed(*seed)

	p, err := axiomcc.ParseProtocol(*spec)
	if err != nil {
		fatal(fmt.Errorf("axcheck: %w", err))
	}
	cl, ok := claims[*claim]
	if !ok {
		fatal(fmt.Errorf("axcheck: unknown claim %q", *claim))
	}
	cfg := axiomcc.LinkConfig{
		Bandwidth: axiomcc.MbpsToMSSps(*mbps),
		PropDelay: *rttMS / 1000 / 2,
		Buffer:    *buffer,
	}
	res, err := axcheck.Check(cfg, p, cl, *alpha, *n, axcheck.Options{
		Steps:        *steps,
		RandomTrials: *trials,
		Seed:         *seed,
		Slack:        *slack,
	})
	if err != nil {
		fatal(err) // internal/axcheck's errors carry the prefix already
	}
	obs.RecordScore("worst_measurement", res.Worst)

	fmt.Printf("claim: %s is %.4g-%s on a %.0f Mbps / %.0f ms / %.0f MSS link (%d senders)\n",
		p.Name(), *alpha, cl, *mbps, *rttMS, *buffer, *n)
	fmt.Printf("searched %d configurations; worst measurement %.4g at init %v\n",
		res.Trials, res.Worst, res.WorstInit)
	if res.Violated {
		fmt.Printf("verdict: FALSIFIED — %s\n", res.Witness)
		stop()
		os.Exit(1)
	}
	fmt.Println("verdict: survived (not proven — no counterexample found)")
}

// fatal prints err, which starts with "axcheck: ", and exits 2.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	if obsStop != nil {
		obsStop()
	}
	os.Exit(2)
}
