// Command paretoexplore navigates the Pareto frontier of Section 5.2:
// it prints Figure 1's frontier surface (fast-utilization × efficiency ×
// TCP-friendliness), tests user-supplied points for feasibility against
// Theorems 2 and 3, spot-checks that AIMD(α, β) empirically attains
// frontier points, and runs the adaptive empirical frontier search
// (coarse pass + successive-halving refinement with dominance pruning)
// over the (α, β) box.
//
// Examples:
//
//	paretoexplore -surface -alphas 10 -betas 10          # Figure 1 data
//	paretoexplore -point 1,0.5,1                          # feasible? on frontier?
//	paretoexplore -point 1,0.8,0.9                        # infeasible point
//	paretoexplore -check "1,0.5;2,0.5;1,0.8"              # empirical AIMD spot checks
//	paretoexplore -explore -rounds 3 -refine-factor 2     # adaptive frontier search
//	paretoexplore -explore -dense -store runs/            # verify vs the dense lattice
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	axiomcc "repro"
	"repro/internal/experiment"
	"repro/internal/lifecycle"
	"repro/internal/obs"
	"repro/internal/svgplot"
)

// obsStop flushes profiles and the run manifest; fatal invokes it so
// error exits still leave valid artifacts behind. Idempotent.
var obsStop func() error

func main() {
	var (
		surface = flag.Bool("surface", false, "print Figure 1's frontier surface as TSV")
		alphaN  = flag.Int("alphas", 12, "surface grid size for α (fast-utilization)")
		betaN   = flag.Int("betas", 9, "surface grid size for β (efficiency)")
		point   = flag.String("point", "", "test a fast,eff,friendly point against Theorem 2")
		eps     = flag.Float64("eps", 0, "robustness ε for the -point test (engages Theorem 3)")
		cap     = flag.Float64("capacity", 100, "link capacity C in MSS for Theorem 3")
		tau     = flag.Float64("tau", 20, "buffer τ in MSS for Theorem 3")
		check   = flag.String("check", "", "semicolon-separated a,b pairs: empirically verify AIMD(a,b) attains its frontier point")
		steps   = flag.Int("steps", 3000, "simulation horizon for -check")
		workers = flag.Int("workers", 0, "parallel workers for -check cells (0 = GOMAXPROCS)")
		svgPath = flag.String("svg", "", "with -surface: also write a friendliness heatmap SVG to this file")
		chaosP  = flag.String("chaos", "", "with -check: fault-injection schedule (JSON file) applied to the spot-check runs")
		seed    = flag.Uint64("seed", 0, "with -chaos: seed for the schedule's randomized components")

		explore  = flag.Bool("explore", false, "run the adaptive empirical frontier search over the (α, β) box")
		dense    = flag.Bool("dense", false, "evaluate the full finest-resolution lattice (verification reference; combine with -explore to compare)")
		coarse   = flag.Int("coarse", 7, "with -explore/-dense: coarse-pass grid points per axis")
		rounds   = flag.Int("rounds", 3, "with -explore/-dense: successive-halving refinement rounds (-1 = coarse pass only)")
		refine   = flag.Int("refine-factor", 2, "with -explore/-dense: lattice subdivision factor per round")
		budget   = flag.Int("budget-cells", 0, "with -explore: cap on total cells evaluated (0 = unlimited)")
		slack    = flag.Float64("prune-slack", 0, "with -explore: dominance-bandit optimism margin as a fraction of each objective's spread (0 = default)")
		box      = flag.String("box", "", "with -explore/-dense: αLo,αHi,βLo,βHi bounds (default 0.25,3,0.1,0.9)")
		linkMbps = flag.Float64("mbps", 20, "with -explore/-dense: link bandwidth in Mbps")
		linkBuf  = flag.Float64("buf", 0, "with -explore/-dense: buffer in MSS beyond the bandwidth-delay product")
	)
	ofl := obs.RegisterFlags(flag.CommandLine)
	stfl := axiomcc.RegisterStoreFlags(flag.CommandLine)
	flag.Parse()
	defer stfl.Apply("paretoexplore")()

	// Both point lists are checked before anything is printed or
	// simulated.
	var (
		pointCoords []float64
		pairs       [][2]float64
		err         error
	)
	if *point != "" {
		if pointCoords, err = parseCoords(*point, "fast,eff,friendly"); err != nil {
			fatal(err)
		}
	}
	if *check != "" {
		if pairs, err = parseCheckPairs(*check); err != nil {
			fatal(err)
		}
	}

	stop, err := ofl.Start("paretoexplore")
	if err != nil {
		fatal(err)
	}
	obsStop = stop
	lifecycle.Install("paretoexplore", stop)
	defer func() {
		if err := stop(); err != nil {
			fmt.Fprintln(os.Stderr, "paretoexplore:", err)
		}
	}()

	did := false
	if *surface {
		did = true
		pts := experiment.Figure1(*alphaN, *betaN)
		fmt.Print(experiment.RenderFigure1(pts))
		if *svgPath != "" {
			if err := writeSurfaceSVG(*svgPath, pts, *alphaN, *betaN); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *svgPath)
		}
	}
	if *point != "" {
		did = true
		fast, eff, friendly := pointCoords[0], pointCoords[1], pointCoords[2]
		if *eps > 0 {
			// Theorem 3 needs a real link, ε < 1 and C+τ > α/2.
			if err := (axiomcc.TheoryLink{C: *cap, Tau: *tau, N: 1}).Validate(); err != nil {
				fatal(err)
			}
			if *eps >= 1 {
				fatal(fmt.Errorf("robustness ε must be in [0,1), got %v", *eps))
			}
			if *cap+*tau <= fast/2 {
				fatal(fmt.Errorf("theorem 3 requires C+τ > α/2, got C+τ=%v, α=%v", *cap+*tau, fast))
			}
		}
		bound := axiomcc.Theorem2Bound(fast, eff)
		fmt.Printf("point: fast-utilization=%g efficiency=%g tcp-friendliness=%g\n", fast, eff, friendly)
		fmt.Printf("Theorem 2 ceiling at (α=%g, β=%g): %.4f\n", fast, eff, bound)
		if *eps > 0 {
			b3 := axiomcc.Theorem3Bound(fast, eff, *eps, *cap, *tau)
			fmt.Printf("Theorem 3 ceiling with ε=%g on C=%g τ=%g: %.6f\n", *eps, *cap, *tau, b3)
			fmt.Printf("feasible (Theorem 3): %v\n", axiomcc.FeasibleRobust(fast, eff, *eps, friendly, *cap, *tau))
		} else {
			switch {
			case !axiomcc.Feasible(fast, eff, friendly):
				fmt.Println("verdict: INFEASIBLE — no loss-based protocol can attain this point")
			case friendly >= bound-1e-9:
				fmt.Println("verdict: ON the Pareto frontier — attained by AIMD(α, β)")
			default:
				fmt.Println("verdict: feasible but DOMINATED — raising friendliness to the ceiling improves it")
			}
		}
	}
	if *check != "" {
		did = true
		opt := axiomcc.MetricOptions{Steps: *steps, Workers: *workers}
		if *chaosP != "" {
			sched, err := axiomcc.LoadChaosSchedule(*chaosP)
			if err != nil {
				fatal(err)
			}
			opt.Chaos = sched
			opt.ChaosSeed = *seed
		}
		checks, err := experiment.Figure1SpotChecks(pairs, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Print(experiment.RenderFigure1Checks(checks))
	}
	if *explore || *dense {
		did = true
		cfg := experiment.FluidLink(*linkMbps, *linkBuf)
		// One session across both modes: when -explore and -dense run
		// together, the dense pass resolves every cell the adaptive pass
		// already measured from memory (the lattices are bit-identical).
		opt := axiomcc.MetricOptions{Steps: *steps, Workers: *workers, Session: axiomcc.NewMetricSession()}
		if *chaosP != "" {
			sched, err := axiomcc.LoadChaosSchedule(*chaosP)
			if err != nil {
				fatal(err)
			}
			opt.Chaos = sched
			opt.ChaosSeed = *seed
		}
		ec := axiomcc.ExploreConfig{
			Coarse:       *coarse,
			Rounds:       *rounds,
			RefineFactor: *refine,
			BudgetCells:  *budget,
			PruneSlack:   *slack,
			Eval:         axiomcc.AIMDEvaluator(cfg, opt),
		}
		if *box != "" {
			b, err := parseCoords(*box, "αLo,αHi,βLo,βHi")
			if err != nil {
				fatal(err)
			}
			ec.AlphaRange = [2]float64{b[0], b[1]}
			ec.BetaRange = [2]float64{b[2], b[3]}
		}
		var expRes, denseRes *axiomcc.ExploreResult
		if *explore {
			ec.OnRound = func(r axiomcc.ExploreRound) {
				fmt.Fprintf(os.Stderr, "explore round %d: spacing α=%.4g β=%.4g evaluated=%d simulated=%d cache-hits=%d pruned=%d deferred=%d frontier=%d\n",
					r.Round, r.SpacingAlpha, r.SpacingBeta, r.Evaluated, r.Simulated, r.CacheHits, r.Pruned, r.Deferred, len(r.Frontier))
			}
			res, err := axiomcc.Explore(context.Background(), ec)
			if err != nil {
				fatal(err)
			}
			expRes = res
			printFrontier(res)
			fmt.Fprintf(os.Stderr, "explore: evaluated=%d simulated=%d cache-hits=%d pruned=%d rounds=%d frontier=%d\n",
				res.Stats.CellsEvaluated, res.Stats.CellsSimulated, res.Stats.CacheHits, res.Stats.CellsPruned, res.Stats.Rounds, len(res.Frontier))
		}
		if *dense {
			dc := ec
			dc.OnRound = nil
			res, err := axiomcc.ExploreDense(context.Background(), dc)
			if err != nil {
				fatal(err)
			}
			denseRes = res
			if !*explore {
				printFrontier(res)
			}
			fmt.Fprintf(os.Stderr, "dense: evaluated=%d simulated=%d cache-hits=%d frontier=%d\n",
				res.Stats.CellsEvaluated, res.Stats.CellsSimulated, res.Stats.CacheHits, len(res.Frontier))
		}
		if expRes != nil && denseRes != nil {
			missed := denseFrontierMisses(expRes, denseRes)
			ratio := float64(denseRes.Stats.CellsEvaluated) / float64(expRes.Stats.CellsEvaluated)
			fmt.Fprintf(os.Stderr, "compare: explore evaluated %d cells vs dense %d (%.1f× fewer); dense frontier points unmatched by explore: %d\n",
				expRes.Stats.CellsEvaluated, denseRes.Stats.CellsEvaluated, ratio, missed)
		}
	}
	if !did {
		flag.Usage()
		stop()
		os.Exit(2)
	}
}

// printFrontier emits the explored frontier as TSV, sorted as evaluated.
func printFrontier(res *axiomcc.ExploreResult) {
	fmt.Println("alpha\tbeta\tefficiency\ttcp_friendliness")
	for _, p := range res.Frontier {
		fmt.Printf("%g\t%g\t%.6f\t%.6f\n", p.Alpha, p.Beta, p.Coords[0], p.Coords[1])
	}
}

// denseFrontierMisses counts dense frontier points that no explored
// point matches or dominates — 0 means the adaptive search reached the
// dense frontier at full resolution.
func denseFrontierMisses(exp, dense *axiomcc.ExploreResult) int {
	missed := 0
	for _, dp := range dense.Frontier {
		ok := false
		for _, ep := range exp.Points {
			if coordsEqual(ep.Coords, dp.Coords) || axiomcc.Dominates(ep.Coords, dp.Coords) {
				ok = true
				break
			}
		}
		if !ok {
			missed++
		}
	}
	return missed
}

func coordsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// writeSurfaceSVG renders Figure 1's frontier as a heatmap: friendliness
// over the (α, β) grid.
func writeSurfaceSVG(path string, pts []axiomcc.SurfacePoint, alphaN, betaN int) error {
	// pts iterate α-major (β fastest); build grid[βIdx][αIdx].
	grid := make([][]float64, betaN)
	for y := range grid {
		grid[y] = make([]float64, alphaN)
	}
	var xs, ys []float64
	for i, p := range pts {
		a, b := i/betaN, i%betaN
		grid[b][a] = p.Friendliness
		if b == 0 {
			xs = append(xs, p.FastUtilization)
		}
		if a == 0 {
			ys = append(ys, p.Efficiency)
		}
	}
	svg := svgplot.Heatmap(grid, svgplot.HeatmapOptions{
		Title:   "Figure 1: TCP-friendliness frontier 3(1−β)/(α(1+β))",
		XLabel:  "fast-utilization α",
		YLabel:  "efficiency β",
		XValues: xs,
		YValues: ys,
	})
	return os.WriteFile(path, []byte(svg), 0o644)
}

// parseCoords reads a comma-separated point of finite coordinates, as
// many as want (the expected form, e.g. "a,b") names.
func parseCoords(s, want string) ([]float64, error) {
	fs := strings.Split(s, ",")
	if len(fs) != strings.Count(want, ",")+1 {
		return nil, fmt.Errorf("want %s — got %q", want, s)
	}
	out := make([]float64, len(fs))
	for i, f := range fs {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("bad coordinate %q", f)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("coordinate %q must be finite", f)
		}
		out[i] = v
	}
	return out, nil
}

// parseCheckPairs reads the -check list of semicolon-separated a,b pairs,
// each an AIMD(a, b) the paper's ranges admit: a > 0 and 0 < b < 1.
func parseCheckPairs(s string) ([][2]float64, error) {
	var pairs [][2]float64
	for _, part := range strings.Split(s, ";") {
		c, err := parseCoords(part, "a,b")
		if err != nil {
			return nil, fmt.Errorf("bad -check pair %q: %w", part, err)
		}
		if !(c[0] > 0) || !(c[1] > 0 && c[1] < 1) {
			return nil, fmt.Errorf("bad -check pair %q: AIMD(a, b) needs a > 0 and 0 < b < 1", part)
		}
		pairs = append(pairs, [2]float64{c[0], c[1]})
	}
	return pairs, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paretoexplore:", err)
	if obsStop != nil {
		obsStop()
	}
	os.Exit(1)
}
