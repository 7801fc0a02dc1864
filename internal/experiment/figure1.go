package experiment

import (
	"context"
	"fmt"
	"strings"
	"text/tabwriter"

	"repro/internal/axioms"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pareto"
	"repro/internal/protocol"
)

// Figure1 generates the surface of Figure 1: the Pareto frontier of
// efficiency, TCP-friendliness and fast-utilization. Points have the form
// (α, β, 3(1−β)/(α(1+β))) and every one is attained by AIMD(α, β).
// alphaN and betaN control grid resolution over α ∈ [0.25, 3] and
// β ∈ [0.1, 0.9].
func Figure1(alphaN, betaN int) []pareto.SurfacePoint {
	return pareto.Figure1Surface(
		pareto.Grid(0.25, 3, alphaN),
		pareto.Grid(0.1, 0.9, betaN),
	)
}

// RenderFigure1 formats the surface as a TSV series (α, β, friendliness),
// the data behind the paper's 3-D plot.
func RenderFigure1(points []pareto.SurfacePoint) string {
	var sb strings.Builder
	sb.WriteString("fast_utilization\tefficiency\ttcp_friendliness\n")
	for _, p := range points {
		fmt.Fprintf(&sb, "%.4f\t%.4f\t%.4f\n", p.FastUtilization, p.Efficiency, p.Friendliness)
	}
	return sb.String()
}

// Figure1Check is one empirical verification that AIMD(α, β) sits on the
// frontier: its measured fast-utilization, efficiency and friendliness
// against the theoretical point.
type Figure1Check struct {
	Alpha, Beta      float64 // AIMD parameters = the frontier coordinates
	BoundFriendly    float64 // 3(1−β)/(α(1+β))
	MeasuredFriendly float64
	MeasuredFast     float64
	MeasuredEff      float64
}

// Figure1SpotChecks validates the frontier empirically: for each (α, β)
// pair it measures AIMD(α, β)'s fast-utilization, efficiency (on a
// zero-buffer link, where Table 1's worst case β is attained) and
// TCP-friendliness, and pairs them with the Theorem 2 point. Pairs are
// independent cells, swept through the orchestrator (opt.Workers caps the
// pool; each cell's inner init-config runs stay serial to avoid
// oversubscription).
func Figure1SpotChecks(pairs [][2]float64, opt metrics.Options) ([]Figure1Check, error) {
	defer obs.StartPhase("figure1-checks")()
	cellOpt := opt.SweepCell()
	return engine.Sweep(context.Background(), len(pairs), engine.SweepConfig{Workers: opt.Workers},
		func(ctx context.Context, i int, _ uint64) (Figure1Check, error) {
			a, b := pairs[i][0], pairs[i][1]
			p := protocol.NewAIMD(a, b)
			// A (nearly) bufferless link isolates the b(1+τ/C) → b limit.
			cfg := FluidLink(20, 0)
			eff, err := metrics.Efficiency(cfg, p, 1, cellOpt)
			if err != nil {
				return Figure1Check{}, err
			}
			fast, err := metrics.FastUtilization(p, cellOpt)
			if err != nil {
				return Figure1Check{}, err
			}
			friendly, err := metrics.TCPFriendliness(cfg, p, 1, 1, cellOpt)
			if err != nil {
				return Figure1Check{}, err
			}
			return Figure1Check{
				Alpha:            a,
				Beta:             b,
				BoundFriendly:    axioms.Theorem2Bound(a, b),
				MeasuredFriendly: friendly,
				MeasuredFast:     fast,
				MeasuredEff:      eff,
			}, nil
		})
}

// RenderFigure1Checks formats the spot checks.
func RenderFigure1Checks(checks []Figure1Check) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "AIMD(α,β)\tbound friendliness\tmeasured friendliness\tmeasured fast\tmeasured eff")
	for _, c := range checks {
		fmt.Fprintf(w, "AIMD(%g,%g)\t%.3f\t%.3f\t%.3f\t%.3f\n",
			c.Alpha, c.Beta, c.BoundFriendly, c.MeasuredFriendly, c.MeasuredFast, c.MeasuredEff)
	}
	w.Flush()
	return sb.String()
}
