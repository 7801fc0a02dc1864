// Package report holds the catalogue of the paper's experiments: one
// ordered table whose entries each carry an id, a title and commentary, a
// run function that renders the experiment as text, and optionally a
// plot. `cmd/reproduce -exp <id>` prints the text of the entries it
// selects; `cmd/reproduce -report <dir>` renders every entry, in the same
// order, as a Markdown section (the text fenced, the plot an SVG asset
// alongside) — the artifact a reader compares against the paper.
package report

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/fluid"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/svgplot"
)

// Flags are the values cmd/reproduce's flags carry to every experiment.
type Flags struct {
	// Opt carries the fluid horizon (Steps), the sweep Workers, the
	// invocation's shared Session and the chaos schedule and seed.
	Opt metrics.Options
	// Duration is the packet-level horizon in seconds.
	Duration float64
	// Quick selects the reduced grids.
	Quick bool
	// Seed drives the randomized components.
	Seed uint64
	// Mbps, Buffer (MSS) and N are Table 1's link and sender count.
	Mbps, Buffer float64
	N            int
}

// Experiment is one entry of the catalogue.
type Experiment struct {
	ID, Title, Comment string
	// Run executes the experiment and returns its rendered text.
	Run func(Flags) (string, error)
	// Plot, when non-nil, draws the entry's figure for the report: an SVG
	// asset's file name and document.
	Plot func(Flags) (name, svg string, err error)
}

// Experiments is the catalogue, in output order.
var Experiments = []Experiment{
	{ID: "table1", Title: "Table 1 — theory",
		Comment: "Closed forms at the -mbps/-buffer/-n link (default 20 Mbps × 42 ms, τ=100 MSS, n=2); angle brackets are worst cases.",
		Run: func(f Flags) (string, error) {
			// The closed forms are printed only for a link table1-sim
			// would accept.
			cfg := experiment.FluidLink(f.Mbps, f.Buffer)
			if err := cfg.Validate(); err != nil {
				return "", err
			}
			lp := experiment.LinkParams(cfg, f.N)
			if err := lp.Validate(); err != nil {
				return "", err
			}
			return fmt.Sprintf("link: C=%.1f MSS, τ=%.0f MSS, n=%d\n\n", lp.C, lp.Tau, lp.N) +
				experiment.RenderTable1Theory(experiment.Table1Theory(lp)), nil
		}},
	{ID: "table1-sim", Title: "Table 1 — fluid-model validation",
		Comment: "Theory/measured pairs per metric; see EXPERIMENTS.md for the fast-utilization scale of superlinear protocols. The plot shows Metric IV in action: two Reno flows on the same link converge to fairness from a maximally skewed start.",
		Run: func(f Flags) (string, error) {
			scores, err := experiment.Table1Empirical(experiment.FluidLink(f.Mbps, f.Buffer), f.N, f.Opt)
			return rendered(scores, err, experiment.RenderTable1Empirical)
		},
		Plot: aimdFairnessPlot},
	{ID: "hierarchy", Title: "§5.1 — protocol-ordering validation (Emulab substitute)",
		Comment: "Per-metric orderings of Reno/Cubic/Scalable on the packet-level simulator vs the theory-induced hierarchy.",
		Run: func(f Flags) (string, error) {
			hc := experiment.HierarchyConfig{Duration: f.Duration, Seed: f.Seed, Workers: f.Opt.Workers}
			if f.Quick {
				hc.Senders, hc.Bandwidths, hc.Buffers = []int{2}, []float64{20, 60}, []int{100}
			}
			res, err := experiment.Hierarchy(hc)
			return rendered(res, err, (*experiment.HierarchyResult).Render)
		}},
	{ID: "table2", Title: "Table 2 — Robust-AIMD vs PCC TCP-friendliness",
		Comment: "Packet-level testbed; the paper reports >1.5× in every cell, 1.92× mean — the trend (R-AIMD friendlier everywhere) is the reproduced claim.",
		Run: func(f Flags) (string, error) {
			tc := experiment.Table2Config{Duration: f.Duration, Seed: f.Seed, Workers: f.Opt.Workers}
			if f.Quick {
				tc.Senders, tc.Bandwidths = []int{2, 3}, []float64{20, 60}
			}
			res, err := experiment.Table2(tc)
			return rendered(res, err, (*experiment.Table2Result).Render)
		}},
	{ID: "figure1", Title: "Figure 1 — Pareto frontier",
		Comment: "The surface 3(1−β)/(α(1+β)); AIMD(α, β) attains each point (spot checks below the surface).",
		Run: func(f Flags) (string, error) {
			checks, err := experiment.Figure1SpotChecks([][2]float64{{1, 0.5}, {2, 0.5}, {1, 0.8}, {0.5, 0.5}}, f.Opt)
			return rendered(checks, err, func(c []experiment.Figure1Check) string {
				return experiment.RenderFigure1(experiment.Figure1(figure1AlphaN, figure1BetaN)) + "\n" + experiment.RenderFigure1Checks(c)
			})
		},
		Plot: figure1Plot},
	{ID: "claim1", Title: "Claim 1 — no loss-based protocol is both 0-loss and fast-utilizing",
		Comment: "A probe that grows until its first loss, then freezes, on a finite link.",
		Run: func(f Flags) (string, error) {
			ev, err := experiment.CheckClaim1(f.Opt)
			return rendered(ev, err, func(ev *experiment.Claim1Evidence) string {
				return fmt.Sprintf("probe-until-loss on a finite link:\n  tail loss      = %.6f (0-loss)\n  tail efficiency = %.3f\n  fast-utilization = %.6f (not α-fast-utilizing for any α>0)\n  claim holds    = %v\n",
					ev.TailLoss, ev.Efficiency, ev.FastUtil, ev.Holds)
			})
		}},
	{ID: "theorem1", Title: "Theorem 1 — convergence and fast-utilization imply efficiency",
		Run: func(f Flags) (string, error) {
			checks, err := experiment.CheckTheorem1(f.Opt, 0)
			return rendered(checks, err, func(cs []experiment.Theorem1Check) string {
				return experiment.RenderChecks("α-convergent ∧ β-fast-utilizing ⇒ α/(2−α)-efficient", cs,
					func(c experiment.Theorem1Check) string {
						return fmt.Sprintf("%s\tconv=%.3f\tfast=%.3f\teff=%.3f\tbound=%.3f\tholds=%v",
							c.Name, c.Convergence, c.FastUtil, c.Efficiency, c.Bound, c.Holds)
					})
			})
		}},
	{ID: "theorem2", Title: "Theorem 2 — the TCP-friendliness ceiling",
		Comment: "The fluid model attains Theorem 2's ceiling exactly for AIMD(α, β).",
		Run: func(f Flags) (string, error) {
			checks, err := experiment.CheckTheorem2(nil, f.Opt, 0)
			return rendered(checks, err, func(cs []experiment.Theorem2Check) string {
				return experiment.RenderChecks("TCP-friendliness ≤ 3(1−β)/(α(1+β)), tight for AIMD(α,β)", cs,
					func(c experiment.Theorem2Check) string {
						return fmt.Sprintf("AIMD(%g,%g)\tbound=%.3f\tmeasured=%.3f\ttightness=%.2f\tholds=%v",
							c.A, c.B, c.Bound, c.Measured, c.Tightness, c.Holds)
					})
			})
		}},
	{ID: "theorem3", Title: "Theorem 3 — robustness caps TCP-friendliness",
		Run: func(f Flags) (string, error) {
			checks, err := experiment.CheckTheorem3(nil, f.Opt, 0)
			return rendered(checks, err, func(cs []experiment.Theorem3Check) string {
				return experiment.RenderChecks("ε-robustness caps TCP-friendliness (Theorem 3)", cs,
					func(c experiment.Theorem3Check) string {
						return fmt.Sprintf("ε=%g\tceiling=%.5f\tnon-robust ceiling=%.3f\tmeasured=%.4f\tholds=%v",
							c.Eps, c.Bound, c.NonRobustCeiling, c.Measured, c.Holds)
					})
			})
		}},
	{ID: "theorem4", Title: "Theorem 4 — TCP-friendliness extends to more aggressive protocols",
		Run: func(f Flags) (string, error) {
			checks, err := experiment.CheckTheorem4(f.Opt, 0)
			return rendered(checks, err, func(cs []experiment.Theorem4Check) string {
				return experiment.RenderChecks("α-TCP-friendly ⇒ α-friendly to protocols more aggressive than Reno", cs,
					func(c experiment.Theorem4Check) string {
						return fmt.Sprintf("P=%s\tQ=%s\tQ-more-aggressive=%v\tfriendly-to-Reno=%.3f\tfriendly-to-Q=%.3f\tholds=%v",
							c.P, c.Q, c.QMoreAggressive, c.FriendlyToReno, c.FriendlyToQ, c.Holds)
					})
			})
		}},
	{ID: "robustness", Title: "Metric VI — robustness thresholds",
		Comment: "Bisection-located tolerated loss rates; only Robust-AIMD (≈ε) and PCC (≈1/(1+δ)) are non-zero.",
		Run: func(f Flags) (string, error) {
			entries, err := experiment.RobustnessSweep(f.Opt)
			return rendered(entries, err, experiment.RenderRobustness)
		}},
	{ID: "robustness-chaos", Title: "Metric VI — bursty-loss and flappy-link columns",
		Comment: "The robustness sweep extended with fault-injected columns, seeded by -seed.",
		Run: func(f Flags) (string, error) {
			entries, err := experiment.ChaosRobustnessSweep(f.Opt, f.Seed)
			return rendered(entries, err, experiment.RenderChaosRobustness)
		}},
	{ID: "topo-axioms", Title: "§6 extension — the eight metrics on multi-bottleneck topologies",
		Run: func(f Flags) (string, error) {
			rows, err := experiment.TopoAxioms(f.Opt)
			return rendered(rows, err, experiment.RenderTopoAxioms)
		}},
	{ID: "parkinglot", Title: "§6 extension — network-wide parking lot",
		Comment: "Long-flow share vs hop count under stochastic loss observation.",
		Run: func(f Flags) (string, error) {
			hops := []int{1, 2, 3, 4}
			if f.Quick {
				hops = []int{1, 3}
			}
			entries, err := experiment.ParkingLotExperiment(hops, f.Opt.Steps, f.Seed+7)
			return rendered(entries, err, experiment.RenderParkingLot)
		}},
	{ID: "theorem5", Title: "Theorem 5 — efficient loss-based protocols starve latency avoiders",
		Run: func(f Flags) (string, error) {
			checks, err := experiment.CheckTheorem5(f.Opt, 0)
			return rendered(checks, err, func(cs []experiment.Theorem5Check) string {
				return experiment.RenderChecks("efficient loss-based protocols starve latency avoiders", cs,
					func(c experiment.Theorem5Check) string {
						return fmt.Sprintf("%s vs %s\teff=%.3f\tavoider-latency=%.4f\tfriendliness=%.4f\tholds=%v",
							c.LossBased, c.LatencyAvoider, c.LossBasedEff, c.AvoiderLatency, c.Friendliness, c.Holds)
					})
			})
		}},
}

// rendered is render(v), or err when the experiment failed.
func rendered[T any](v T, err error, render func(T) string) (string, error) {
	if err != nil {
		return "", err
	}
	return render(v), nil
}

// aimdFairnessPlot traces two Reno flows on Table 1's link, one starting
// at C+τ and one at 1 MSS.
func aimdFairnessPlot(f Flags) (string, string, error) {
	cfg := experiment.FluidLink(f.Mbps, f.Buffer)
	hi := cfg.Capacity() + cfg.Buffer
	senders, err := fluid.HomogeneousSenders(protocol.Reno(), 2, []float64{hi, 1})
	if err != nil {
		return "", "", err
	}
	sub := &engine.FluidSpec{Cfg: cfg, Senders: senders, Steps: f.Opt.Steps}
	rec := engine.NewRecorder(sub.Meta())
	if _, err := engine.Run(context.Background(), engine.Spec{Substrate: sub, Observers: []engine.Observer{rec}}); err != nil {
		return "", "", err
	}
	tr := rec.Trace()
	return "aimd-fairness.svg", svgplot.Lines([]svgplot.Series{
		{Name: fmt.Sprintf("Reno (starts at %.0f)", hi), Y: tr.Window(0)},
		{Name: "Reno (starts at 1)", Y: tr.Window(1)},
	}, svgplot.LineOptions{
		Title: "AIMD convergence to fairness", XLabel: "step (RTTs)", YLabel: "window (MSS)",
	}), nil
}

// figure1AlphaN × figure1BetaN is the Figure 1 surface's grid.
const figure1AlphaN, figure1BetaN = 12, 9

// figure1Plot draws the Figure 1 surface as a heatmap.
func figure1Plot(Flags) (string, string, error) {
	const alphaN, betaN = figure1AlphaN, figure1BetaN
	grid := make([][]float64, betaN)
	for y := range grid {
		grid[y] = make([]float64, alphaN)
	}
	var xs, ys []float64
	for i, p := range experiment.Figure1(alphaN, betaN) {
		a, b := i/betaN, i%betaN
		grid[b][a] = p.Friendliness
		if b == 0 {
			xs = append(xs, p.FastUtilization)
		}
		if a == 0 {
			ys = append(ys, p.Efficiency)
		}
	}
	return "figure1-frontier.svg", svgplot.Heatmap(grid, svgplot.HeatmapOptions{
		Title: "Figure 1 — TCP-friendliness frontier", XLabel: "fast-utilization α",
		YLabel: "efficiency β", XValues: xs, YValues: ys,
	}), nil
}

// Section is one finished experiment: a title, commentary, a Markdown
// body, and optionally an SVG asset to write alongside.
type Section struct {
	Title   string
	Comment string
	Body    string // Markdown (tables use fenced code blocks)
	SVGName string // file name of the asset ("" = none)
	SVG     string // SVG document
}

// Generate runs every experiment of the catalogue under f and returns
// one section per entry, in catalogue order: its text fenced, headed by
// its title and -exp id.
func Generate(f Flags) ([]Section, error) {
	sections := make([]Section, 0, len(Experiments))
	for _, e := range Experiments {
		text, err := e.Run(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		s := Section{Title: fmt.Sprintf("%s (`-exp %s`)", e.Title, e.ID), Comment: e.Comment, Body: fence(text)}
		if e.Plot != nil {
			if s.SVGName, s.SVG, err = e.Plot(f); err != nil {
				return nil, fmt.Errorf("%s: %w", e.ID, err)
			}
		}
		sections = append(sections, s)
	}
	return sections, nil
}

// Render assembles the sections into one Markdown document; image links
// name the SVG assets, which sit next to it.
func Render(sections []Section, generatedAt time.Time) string {
	var sb strings.Builder
	sb.WriteString("# Reproduction report — An Axiomatic Approach to Congestion Control\n\n")
	fmt.Fprintf(&sb, "Generated %s by `cmd/reproduce -report`.\n\n", generatedAt.Format(time.RFC3339))
	for _, s := range sections {
		fmt.Fprintf(&sb, "## %s\n\n", s.Title)
		if s.Comment != "" {
			fmt.Fprintf(&sb, "%s\n\n", s.Comment)
		}
		if s.Body != "" {
			sb.WriteString(s.Body)
			sb.WriteString("\n")
		}
		if s.SVGName != "" {
			fmt.Fprintf(&sb, "![%s](%s)\n\n", s.Title, s.SVGName)
		}
	}
	return sb.String()
}

// Write generates the report and writes report.md plus SVG assets to dir
// (created if missing). It returns the path of the Markdown file.
func Write(dir string, f Flags, now time.Time) (string, error) {
	sections, err := Generate(f)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	for _, s := range sections {
		if s.SVGName == "" {
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, s.SVGName), []byte(s.SVG), 0o644); err != nil {
			return "", err
		}
	}
	path := filepath.Join(dir, "report.md")
	if err := os.WriteFile(path, []byte(Render(sections, now)), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

func fence(s string) string {
	return "```\n" + strings.TrimRight(s, "\n") + "\n```\n"
}
