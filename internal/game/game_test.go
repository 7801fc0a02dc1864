package game

import (
	"math"
	"strings"
	"testing"

	"repro/internal/fluid"
	"repro/internal/protocol"
)

func link() fluid.Config {
	theta := 0.021
	return fluid.Config{
		Bandwidth: 100 / (2 * theta),
		PropDelay: theta,
		Buffer:    20,
	}
}

func renoVsScalable(t *testing.T, n int) *Game {
	t.Helper()
	g, err := New(link(), []protocol.Protocol{protocol.Reno(), protocol.Scalable()}, n, 2000)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestValidation(t *testing.T) {
	if _, err := New(link(), []protocol.Protocol{protocol.Reno()}, 2, 100); err == nil {
		t.Fatal("1-protocol menu accepted")
	}
	if _, err := New(link(), []protocol.Protocol{protocol.Reno(), protocol.Scalable()}, 1, 100); err == nil {
		t.Fatal("1 player accepted")
	}
	if _, err := New(link(), []protocol.Protocol{protocol.Reno(), protocol.Scalable()}, 30, 100); err == nil {
		t.Fatal("2^30 profile space accepted")
	}
}

// TestNewRejectsNilMenuEntry: a nil entry used to pass New and panic
// with a nil-pointer dereference at the first Payoffs.
func TestNewRejectsNilMenuEntry(t *testing.T) {
	for _, c := range []struct {
		name string
		menu []protocol.Protocol
	}{
		{"first", []protocol.Protocol{nil, protocol.Reno()}},
		{"last", []protocol.Protocol{protocol.Reno(), protocol.Scalable(), nil}},
		{"all", []protocol.Protocol{nil, nil}},
	} {
		if _, err := New(link(), c.menu, 2, 100); err == nil {
			t.Errorf("%s: nil menu entry accepted", c.name)
		}
	}
}

// TestNewValidatesLink: an invalid link used to pass New and fail only
// at the first Payoffs.
func TestNewValidatesLink(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		name string
		edit func(*fluid.Config)
	}{
		{"NaN bandwidth", func(c *fluid.Config) { c.Bandwidth = nan }},
		{"zero bandwidth", func(c *fluid.Config) { c.Bandwidth = 0 }},
		{"NaN delay", func(c *fluid.Config) { c.PropDelay = nan }},
		{"negative buffer", func(c *fluid.Config) { c.Buffer = -1 }},
	} {
		cfg := link()
		c.edit(&cfg)
		if _, err := New(cfg, []protocol.Protocol{protocol.Reno(), protocol.Scalable()}, 2, 100); err == nil {
			t.Errorf("%s: link accepted", c.name)
		}
	}
}

// TestToleranceValidated: IsNash with a NaN tolerance used to report
// every profile as an equilibrium, so PureNash(NaN) listed them all.
func TestToleranceValidated(t *testing.T) {
	g := renoVsScalable(t, 2)
	for _, tol := range []float64{math.NaN(), -0.05, math.Inf(-1)} {
		if _, _, err := g.IsNash([]int{0, 0}, tol); err == nil {
			t.Errorf("IsNash accepted tolerance %v", tol)
		}
		if eqs, err := g.PureNash(tol); err == nil {
			t.Errorf("PureNash accepted tolerance %v and found %v", tol, eqs)
		}
	}
	if _, _, err := g.IsNash([]int{0, 0}, 0); err != nil {
		t.Errorf("zero tolerance rejected: %v", err)
	}
}

// TestBestResponseValidatesInputs: a player outside [0, n) used to panic
// with an index out of range; so did a profile of the wrong length.
func TestBestResponseValidatesInputs(t *testing.T) {
	g := renoVsScalable(t, 2)
	for _, c := range []struct {
		name    string
		profile []int
		player  int
	}{
		{"player n", []int{0, 0}, 2},
		{"negative player", []int{0, 0}, -1},
		{"short profile", []int{0}, 1},
		{"long profile", []int{0, 0, 0}, 2},
		{"strategy outside menu", []int{0, 2}, 0},
	} {
		if br, err := g.BestResponse(c.profile, c.player); err == nil {
			t.Errorf("%s: accepted, best response %d", c.name, br)
		}
	}
	if _, _, err := g.BestResponseDynamics([]int{0}, 3); err == nil {
		t.Error("dynamics accepted a start of the wrong length")
	}
}

func TestNegativeStepsRejected(t *testing.T) {
	if _, err := New(link(), []protocol.Protocol{protocol.Reno(), protocol.Scalable()}, 2, -5); err == nil {
		t.Fatal("negative horizon accepted")
	}
}

func TestPayoffsShape(t *testing.T) {
	g := renoVsScalable(t, 2)
	p, err := g.Payoffs([]int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 2 || p[0] <= 0 || p[1] <= 0 {
		t.Fatalf("payoffs = %v", p)
	}
	if _, err := g.Payoffs([]int{0}); err == nil {
		t.Fatal("short profile accepted")
	}
	if _, err := g.Payoffs([]int{0, 5}); err == nil {
		t.Fatal("out-of-menu strategy accepted")
	}
}

func TestPayoffCacheDeterminism(t *testing.T) {
	g := renoVsScalable(t, 2)
	a, err := g.Payoffs([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Payoffs([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cache mismatch: %v vs %v", a, b)
		}
	}
}

func TestDefectionPays(t *testing.T) {
	// From all-Reno, switching to Scalable must strictly improve the
	// deviator's payoff — TCP-friendliness exploited as a defection
	// incentive.
	g := renoVsScalable(t, 2)
	nash, dev, err := g.IsNash([]int{0, 0}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if nash {
		t.Fatal("all-Reno reported as equilibrium")
	}
	if dev == nil || dev.To != 1 || dev.Gain <= 0 {
		t.Fatalf("deviation = %+v", dev)
	}
}

func TestAllAggressiveIsNash(t *testing.T) {
	// From all-Scalable, switching back to Reno means starvation.
	g := renoVsScalable(t, 2)
	nash, dev, err := g.IsNash([]int{1, 1}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !nash {
		t.Fatalf("all-Scalable not an equilibrium; deviation %+v", dev)
	}
}

func TestGoodputPayoffNoDilemmaOnDeepBuffer(t *testing.T) {
	// With raw-goodput payoffs the race to aggression is cheap: the
	// all-Scalable equilibrium keeps the deep-buffered link at least as
	// full as all-Reno (Scalable's gentler backoff, b = 0.875 vs 0.5).
	// This is the documented counterpoint to the loss-sensitive dilemma.
	g := renoVsScalable(t, 2)
	wReno, err := g.SocialWelfare([]int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	wScal, err := g.SocialWelfare([]int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if wScal < wReno*0.9 {
		t.Fatalf("goodput welfare collapsed at equilibrium: %v vs %v", wScal, wReno)
	}
}

func TestPrisonersDilemmaForLossSensitiveTraffic(t *testing.T) {
	// For loss-sensitive applications, the all-aggressive equilibrium is
	// strictly worse than all-Reno. The robust aggressor here is the PCC
	// stand-in: its ε-loss tolerance parks the link in PERSISTENT ~0.4%
	// overload, a structural loss floor that λ penalizes, whereas
	// synchronized AIMD anneals onto the capacity boundary with near-zero
	// standing loss. (MIMD's loss rate is orbit-dependent and makes the
	// gap fragile — see the goodput test above for that pairing.)
	g, err := New(link(), []protocol.Protocol{protocol.Reno(), protocol.DefaultPCC()}, 2, 3000)
	if err != nil {
		t.Fatal(err)
	}
	g.SetPayoff(LossSensitivePayoff(100))

	wReno, err := g.SocialWelfare([]int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	wPCC, err := g.SocialWelfare([]int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if wReno <= wPCC*1.1 {
		t.Fatalf("no dilemma: all-Reno %v vs all-PCC %v under loss-sensitive payoff (λ=100)", wReno, wPCC)
	}
	// Defection from all-Reno still pays for the defector.
	nash, dev, err := g.IsNash([]int{0, 0}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if nash || dev == nil {
		t.Fatal("all-Reno became an equilibrium under loss-sensitive payoff")
	}
	// And all-PCC is the (inefficient) equilibrium.
	nash, dev, err = g.IsNash([]int{1, 1}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !nash {
		t.Fatalf("all-PCC not an equilibrium; deviation %+v", dev)
	}
}

func TestPureNashEnumeration(t *testing.T) {
	g := renoVsScalable(t, 2)
	eqs, err := g.PureNash(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(eqs) == 0 {
		t.Fatal("no pure equilibria found")
	}
	// Every equilibrium must be all-Scalable-ish: no player on Reno
	// (Reno players always gain by defecting).
	for _, eq := range eqs {
		for _, s := range eq {
			if s == 0 {
				t.Fatalf("equilibrium %v contains a Reno player", eq)
			}
		}
	}
}

func TestBestResponseDynamicsConvergeToNash(t *testing.T) {
	g := renoVsScalable(t, 3)
	final, converged, err := g.BestResponseDynamics([]int{0, 0, 0}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !converged {
		t.Fatalf("dynamics did not converge; final %v", final)
	}
	nash, dev, err := g.IsNash(final, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !nash {
		t.Fatalf("converged profile %v is not Nash (deviation %+v)", final, dev)
	}
	// And it is the race to the bottom.
	for _, s := range final {
		if s != 1 {
			t.Fatalf("final profile %v is not all-Scalable", final)
		}
	}
}

func TestRenderProfile(t *testing.T) {
	g := renoVsScalable(t, 2)
	out, err := g.RenderProfile([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"AIMD(1,0.5)", "MIMD(1.01,0.875)", "welfare"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestMenuAndPlayers(t *testing.T) {
	g := renoVsScalable(t, 2)
	m := g.Menu()
	if len(m) != 2 || m[0] != "AIMD(1,0.5)" {
		t.Fatalf("menu = %v", m)
	}
	if g.Players() != 2 {
		t.Fatalf("players = %d", g.Players())
	}
}
