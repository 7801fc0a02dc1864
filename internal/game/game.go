// Package game analyzes congestion control as a protocol-selection game,
// following the incentive-compatibility line the paper builds on (Godfrey,
// Schapira, Zohar & Shenker, SIGMETRICS 2010 — the paper's reference
// [14]): each sender chooses a protocol from a menu, payoffs are the
// goodputs the joint choice induces on a shared bottleneck, and the
// solution concepts are pure Nash equilibria and best-response dynamics.
//
// Two findings reproduce here. First, unconditionally: everyone-runs-TCP
// is NOT an equilibrium — defecting to an aggressive protocol pays, and
// best-response dynamics race to everyone-aggressive. Second, the
// "prisoner's dilemma of congestion control" — the race's endpoint having
// strictly lower social welfare — depends on what traffic values: with
// raw-goodput payoffs the aggressive equilibrium keeps deep-buffered
// links full and costs little, but for loss-sensitive applications
// (PCC-style utilities that penalize delivered-but-degraded traffic) the
// equilibrium is strictly worse than all-TCP. Both payoff models are
// provided; the friendliness axioms are exactly the defection incentives
// this game measures.
package game

import (
	"fmt"
	"math"
	"strings"
	"text/tabwriter"

	"repro/internal/fluid"
	"repro/internal/metrics"
	"repro/internal/protocol"
)

// Payoff maps a player's simulation outcome to utility: tail-average
// goodput (MSS/s), tail-average loss rate, and the tail-average and base
// RTTs (seconds).
type Payoff func(goodput, avgLoss, avgRTT, baseRTT float64) float64

// GoodputPayoff values raw delivered throughput.
func GoodputPayoff(goodput, avgLoss, avgRTT, baseRTT float64) float64 {
	return goodput
}

// LossSensitivePayoff returns a payoff for applications that value loss-
// free delivery (interactive media, transaction traffic): utility =
// goodput·(1 − λ·loss), the linearized form of PCC Allegro's
// loss-penalizing utility. λ is the value destroyed per unit loss rate;
// λ ≫ 1 models traffic where retransmission or late delivery is nearly
// worthless.
func LossSensitivePayoff(lambda float64) Payoff {
	return func(goodput, avgLoss, avgRTT, baseRTT float64) float64 {
		return goodput * (1 - lambda*avgLoss)
	}
}

// Game is an n-player protocol-selection game on a shared fluid link.
// Each profile is one streamed run resolved through a metrics.Session
// the game owns (and so through the default run store, when one is
// installed): a profile simulates once, however often the solution
// concepts ask for its payoffs.
type Game struct {
	cfg     fluid.Config
	menu    []protocol.Protocol
	n       int
	steps   int
	payoff  Payoff
	session *metrics.Session
}

// SetPayoff replaces the payoff function (default GoodputPayoff).
func (g *Game) SetPayoff(p Payoff) { g.payoff = p }

// New builds a game. menu entries are cloned per player at simulation
// time; n is the number of players. steps is the simulation horizon
// (default 3000).
func New(cfg fluid.Config, menu []protocol.Protocol, n, steps int) (*Game, error) {
	if len(menu) < 2 {
		return nil, fmt.Errorf("game: menu needs ≥ 2 protocols, got %d", len(menu))
	}
	for i, p := range menu {
		if p == nil {
			return nil, fmt.Errorf("game: menu entry %d is nil", i)
		}
	}
	if n < 2 {
		return nil, fmt.Errorf("game: need ≥ 2 players, got %d", n)
	}
	if steps < 0 {
		return nil, fmt.Errorf("game: steps must be non-negative, got %d", steps)
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("game: %w", err)
	}
	if steps == 0 {
		steps = 3000
	}
	count := 1
	for i := 0; i < n; i++ {
		count *= len(menu)
		if count > 1<<16 {
			return nil, fmt.Errorf("game: profile space too large (menu %d, players %d)", len(menu), n)
		}
	}
	return &Game{
		cfg:     cfg,
		menu:    menu,
		n:       n,
		steps:   steps,
		payoff:  GoodputPayoff,
		session: metrics.NewSession(),
	}, nil
}

// Menu returns the strategy names, index-aligned with profiles.
func (g *Game) Menu() []string {
	out := make([]string, len(g.menu))
	for i, p := range g.menu {
		out[i] = p.Name()
	}
	return out
}

// Players returns n.
func (g *Game) Players() int { return g.n }

// checkProfile rejects a profile of the wrong length or with a strategy
// outside the menu.
func (g *Game) checkProfile(profile []int) error {
	if len(profile) != g.n {
		return fmt.Errorf("game: profile length %d, want %d", len(profile), g.n)
	}
	for _, s := range profile {
		if s < 0 || s >= len(g.menu) {
			return fmt.Errorf("game: strategy %d out of menu range", s)
		}
	}
	return nil
}

// Payoffs returns each player's payoff under the profile (profile[i]
// indexes the menu): by default its average goodput in MSS/s over the
// last quarter of the run (metrics.DefaultTailFrac). All senders start
// at the window floor.
func (g *Game) Payoffs(profile []int) ([]float64, error) {
	if err := g.checkProfile(profile); err != nil {
		return nil, err
	}
	protos := make([]protocol.Protocol, g.n)
	for i, s := range profile {
		protos[i] = g.menu[s]
	}
	sums, err := metrics.StreamRuns(g.cfg, protos, metrics.Options{
		Steps:       g.steps,
		InitConfigs: [][]float64{{protocol.MinWindow}},
		Session:     g.session,
	})
	if err != nil {
		return nil, err
	}
	run := sums[0]
	payoffs := make([]float64, g.n)
	for i := range payoffs {
		payoffs[i] = g.payoff(run.AvgGoodputs[i], run.MeanLoss, run.MeanRTT, g.cfg.BaseRTT())
	}
	return payoffs, nil
}

// SocialWelfare returns the sum of payoffs of a profile.
func (g *Game) SocialWelfare(profile []int) (float64, error) {
	p, err := g.Payoffs(profile)
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, v := range p {
		sum += v
	}
	return sum, nil
}

// Deviation describes a profitable unilateral move.
type Deviation struct {
	Player int
	From   int
	To     int
	Gain   float64 // payoff improvement
}

// IsNash reports whether no player can gain more than tolFrac (relative)
// by deviating unilaterally. When the profile is not an equilibrium the
// most profitable deviation is returned.
func (g *Game) IsNash(profile []int, tolFrac float64) (bool, *Deviation, error) {
	if !(tolFrac >= 0) {
		return false, nil, fmt.Errorf("game: tolerance must be non-negative, got %v", tolFrac)
	}
	base, err := g.Payoffs(profile)
	if err != nil {
		return false, nil, err
	}
	var best *Deviation
	for player := 0; player < g.n; player++ {
		for alt := 0; alt < len(g.menu); alt++ {
			if alt == profile[player] {
				continue
			}
			dev := append([]int(nil), profile...)
			dev[player] = alt
			p, err := g.Payoffs(dev)
			if err != nil {
				return false, nil, err
			}
			gain := p[player] - base[player]
			if gain > tolFrac*math.Max(base[player], 1) {
				if best == nil || gain > best.Gain {
					best = &Deviation{Player: player, From: profile[player], To: alt, Gain: gain}
				}
			}
		}
	}
	return best == nil, best, nil
}

// PureNash enumerates all pure profiles and returns the equilibria.
func (g *Game) PureNash(tolFrac float64) ([][]int, error) {
	var out [][]int
	profile := make([]int, g.n)
	for {
		nash, _, err := g.IsNash(profile, tolFrac)
		if err != nil {
			return nil, err
		}
		if nash {
			out = append(out, append([]int(nil), profile...))
		}
		// Increment the profile counter.
		i := 0
		for ; i < g.n; i++ {
			profile[i]++
			if profile[i] < len(g.menu) {
				break
			}
			profile[i] = 0
		}
		if i == g.n {
			return out, nil
		}
	}
}

// BestResponse returns player's payoff-maximizing strategy against the
// others in profile.
func (g *Game) BestResponse(profile []int, player int) (int, error) {
	if err := g.checkProfile(profile); err != nil {
		return 0, err
	}
	if player < 0 || player >= g.n {
		return 0, fmt.Errorf("game: player %d out of range [0, %d)", player, g.n)
	}
	best, bestPay := profile[player], math.Inf(-1)
	for alt := 0; alt < len(g.menu); alt++ {
		dev := append([]int(nil), profile...)
		dev[player] = alt
		p, err := g.Payoffs(dev)
		if err != nil {
			return 0, err
		}
		if p[player] > bestPay {
			best, bestPay = alt, p[player]
		}
	}
	return best, nil
}

// BestResponseDynamics runs round-robin best responses from start until a
// fixed point or maxRounds. It returns the final profile and whether it
// converged (every player already best-responding).
func (g *Game) BestResponseDynamics(start []int, maxRounds int) ([]int, bool, error) {
	profile := append([]int(nil), start...)
	for round := 0; round < maxRounds; round++ {
		changed := false
		for player := 0; player < g.n; player++ {
			br, err := g.BestResponse(profile, player)
			if err != nil {
				return nil, false, err
			}
			if br != profile[player] {
				profile[player] = br
				changed = true
			}
		}
		if !changed {
			return profile, true, nil
		}
	}
	return profile, false, nil
}

// RenderProfile formats a profile with its payoffs and welfare.
func (g *Game) RenderProfile(profile []int) (string, error) {
	pay, err := g.Payoffs(profile)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "player\tprotocol\tgoodput (MSS/s)")
	total := 0.0
	for i, s := range profile {
		fmt.Fprintf(w, "%d\t%s\t%.1f\n", i, g.menu[s].Name(), pay[i])
		total += pay[i]
	}
	fmt.Fprintf(w, "\twelfare\t%.1f\n", total)
	w.Flush()
	return sb.String(), nil
}
