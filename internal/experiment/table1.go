package experiment

import (
	"context"
	"fmt"
	"math"
	"strings"
	"text/tabwriter"

	"repro/internal/axioms"
	"repro/internal/engine"
	"repro/internal/fluid"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// Table1Protocols returns fresh instances of the protocol
// parameterizations characterized in Table 1 (and validated in §5.1).
func Table1Protocols() []protocol.Protocol {
	return []protocol.Protocol{
		protocol.Reno(),                      // AIMD(1, 0.5)
		protocol.Scalable(),                  // MIMD(1.01, 0.875)
		protocol.SQRT(),                      // BIN(1, 0.5, 0.5, 0.5)
		protocol.CubicLinux(),                // CUBIC(0.4, 0.8)
		protocol.NewRobustAIMD(1, 0.8, 0.01), // Robust-AIMD(1, 0.8, 0.01)
	}
}

// Table1Theory evaluates Table 1's closed forms at link lp.
func Table1Theory(lp axioms.Link) []axioms.Row {
	return axioms.Table1(lp)
}

// RenderTable1Theory formats the theory rows the way the paper prints
// Table 1: each metric as "value <worst-case>".
func RenderTable1Theory(rows []axioms.Row) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Protocol\tEfficiency\tLoss-Avoid\tFast-Util\tTCP-Friendly\tFair\tConv\tRobust")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
			r.Name,
			cell(r.At.Efficiency, r.WorstCase.Efficiency),
			cell(r.At.LossAvoidance, r.WorstCase.LossAvoidance),
			cell(r.At.FastUtilization, r.WorstCase.FastUtilization),
			cell(r.At.TCPFriendliness, r.WorstCase.TCPFriendliness),
			cell(r.At.Fairness, r.WorstCase.Fairness),
			cell(r.At.Convergence, r.WorstCase.Convergence),
			cell(r.At.Robustness, r.At.Robustness),
		)
	}
	w.Flush()
	return sb.String()
}

func cell(at, worst float64) string {
	return fmt.Sprintf("%s <%s>", num(at), num(worst))
}

func num(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "∞"
	case math.IsNaN(v):
		return "-"
	case v != 0 && (math.Abs(v) < 0.001 || math.Abs(v) >= 10000):
		return fmt.Sprintf("%.2e", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// ProtocolScores pairs one protocol's theoretical Table 1 row with its
// measured scores on a concrete link.
type ProtocolScores struct {
	Name      string
	Theory    axioms.Row
	Empirical metrics.Scores
}

// Table1Empirical measures, on the fluid model, every Table 1 protocol's
// empirical 8-tuple with n senders on cfg, alongside the theory row — the
// validation the paper summarizes in §5.1 ("the same hierarchy over
// protocols as induced by the theoretical results").
func Table1Empirical(cfg fluid.Config, n int, opt metrics.Options) ([]ProtocolScores, error) {
	defer obs.StartPhase("table1-sim")()
	lp := LinkParams(cfg, n)
	protos := Table1Protocols()
	cellOpt := opt.SweepCell()
	return engine.Sweep(context.Background(), len(protos), engine.SweepConfig{Workers: opt.Workers},
		func(ctx context.Context, i int, _ uint64) (ProtocolScores, error) {
			p := protos[i]
			row, err := axioms.FamilyRow(p, lp)
			if err != nil {
				return ProtocolScores{}, fmt.Errorf("experiment: %s: %w", p.Name(), err)
			}
			emp, err := metrics.Characterize(cfg, p, n, cellOpt)
			if err != nil {
				return ProtocolScores{}, fmt.Errorf("experiment: %s: %w", p.Name(), err)
			}
			return ProtocolScores{Name: p.Name(), Theory: row, Empirical: emp}, nil
		})
}

// RenderTable1Empirical formats theory-vs-measured pairs per metric.
func RenderTable1Empirical(scores []ProtocolScores) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Protocol\tEff(thy/meas)\tLoss(thy/meas)\tFast(thy/meas)\tFriendly(thy/meas)\tFair(thy/meas)\tConv(thy/meas)\tRobust(thy/meas)")
	for _, s := range scores {
		fmt.Fprintf(w, "%s\t%s/%s\t%s/%s\t%s/%s\t%s/%s\t%s/%s\t%s/%s\t%s/%s\n",
			s.Name,
			num(s.Theory.At.Efficiency), num(s.Empirical.Efficiency),
			num(s.Theory.At.LossAvoidance), num(s.Empirical.LossAvoidance),
			num(s.Theory.At.FastUtilization), num(s.Empirical.FastUtilization),
			num(s.Theory.At.TCPFriendliness), num(s.Empirical.TCPFriendliness),
			num(s.Theory.At.Fairness), num(s.Empirical.Fairness),
			num(s.Theory.At.Convergence), num(s.Empirical.Convergence),
			num(s.Theory.At.Robustness), num(s.Empirical.Robustness),
		)
	}
	w.Flush()
	return sb.String()
}

// MetricOrdering lists protocol names from worst to best under one metric,
// given values and an orientation.
func MetricOrdering(names []string, values []float64, higherBetter bool) []string {
	idx := make([]int, len(names))
	for i := range idx {
		idx[i] = i
	}
	// Insertion sort: tiny n, keeps the code dependency-free and stable.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0; j-- {
			a, b := values[idx[j-1]], values[idx[j]]
			less := a > b // want ascending when higher is better (worst first)
			if !higherBetter {
				less = a < b
			}
			if !less {
				break
			}
			idx[j-1], idx[j] = idx[j], idx[j-1]
		}
	}
	out := make([]string, len(idx))
	for i, k := range idx {
		out[i] = names[k]
	}
	return out
}
