package axcheck

import (
	"fmt"
	"math"

	"repro/internal/fluid"
	"repro/internal/metrics"
	"repro/internal/protocol"
)

// LinkResult is the outcome of a worst-case search over link parameters:
// Table 1's angle-bracket bounds hold "across all choices of network
// parameters", so falsifying one requires searching (C, τ, n) as well as
// initial configurations.
type LinkResult struct {
	// Violated reports whether some link+init combination broke the claim.
	Violated bool
	// Witness is valid when Violated is true.
	Witness LinkCounterexample
	// Worst is the most adversarial measurement across all links.
	Worst float64
	// WorstLink achieved it.
	WorstLink LinkPoint
	// Trials counts link configurations × init configurations evaluated.
	Trials int
}

// LinkPoint identifies one link configuration of the search grid.
type LinkPoint struct {
	C   float64 // capacity in MSS
	Tau float64 // buffer in MSS
	N   int     // senders
}

// LinkCounterexample is a falsifying witness including the link.
type LinkCounterexample struct {
	Counterexample
	Link LinkPoint
}

// String renders the witness.
func (c LinkCounterexample) String() string {
	return fmt.Sprintf("%s on link C=%g τ=%g n=%d", c.Counterexample, c.Link.C, c.Link.Tau, c.Link.N)
}

// DefaultLinkGrid returns the structured link corners the worst-case
// search visits: shallow and deep buffers at small and large capacities,
// and one- to four-sender populations. Fairness-style claims skip n = 1.
func DefaultLinkGrid() []LinkPoint {
	var out []LinkPoint
	for _, c := range []float64{30, 100, 500} {
		for _, tauFrac := range []float64{0.02, 0.2, 1.0} {
			for _, n := range []int{1, 2, 4} {
				out = append(out, LinkPoint{C: c, Tau: math.Max(1, c*tauFrac), N: n})
			}
		}
	}
	return out
}

// CheckWorstCase searches links × initial configurations for a violation
// of the worst-case claim "p is α-<claim> across all network parameters".
// Links with fewer than 2 senders are skipped for Fair claims.
func CheckWorstCase(p protocol.Protocol, claim Claim, alpha float64, grid []LinkPoint, opt Options) (LinkResult, error) {
	if len(grid) == 0 {
		grid = DefaultLinkGrid()
	}
	if !claim.known() {
		return LinkResult{}, fmt.Errorf("axcheck: unknown claim %v", claim)
	}
	sign := claims[claim].metric.Sign()
	res := LinkResult{Worst: math.Inf(int(sign))}
	for _, lp := range grid {
		if claim == Fair && lp.N < 2 {
			continue
		}
		cfg := fluid.Config{
			Bandwidth: lp.C / (2 * metrics.DefaultPropDelay),
			PropDelay: metrics.DefaultPropDelay,
			Buffer:    lp.Tau,
		}
		r, err := Check(cfg, p, claim, alpha, lp.N, opt)
		if err != nil {
			return LinkResult{}, err
		}
		res.Trials += r.Trials
		if sign*r.Worst < sign*res.Worst {
			res.Worst = r.Worst
			res.WorstLink = lp
		}
		if r.Violated && !res.Violated {
			res.Violated = true
			res.Witness = LinkCounterexample{Counterexample: r.Witness, Link: lp}
		}
	}
	return res, nil
}
