package axcheck

import (
	"math"
	"strings"
	"testing"

	"repro/internal/fluid"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/runstore"
)

func cap100() fluid.Config {
	theta := 0.021
	return fluid.Config{
		Bandwidth: 100 / (2 * theta),
		PropDelay: theta,
		Buffer:    20,
	}
}

var opt = Options{Steps: 1500, RandomTrials: 8, Seed: 1, Slack: DefaultSlack}

func TestTrueClaimSurvives(t *testing.T) {
	// Reno is ≈0.6-efficient on this link (b(1+τ/C) = 0.6); claiming 0.5
	// must survive the search.
	res, err := Check(cap100(), protocol.Reno(), Efficient, 0.5, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violated {
		t.Fatalf("true claim falsified: %v", res.Witness)
	}
	if res.Trials < 10 {
		t.Fatalf("only %d trials", res.Trials)
	}
	if res.Worst < 0.5 {
		t.Fatalf("worst efficiency %v below the claim yet not flagged", res.Worst)
	}
}

func TestFalseEfficiencyClaimKilled(t *testing.T) {
	// Claiming Reno is 0.9-efficient is false (sawtooth bottoms at 0.6).
	res, err := Check(cap100(), protocol.Reno(), Efficient, 0.9, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violated {
		t.Fatalf("false claim survived; worst = %v", res.Worst)
	}
	w := res.Witness
	if w.Measured >= 0.9 {
		t.Fatalf("witness does not violate: %v", w)
	}
	if len(w.Init) != 1 {
		t.Fatalf("witness init = %v", w.Init)
	}
	if !strings.Contains(w.String(), "efficient") {
		t.Fatalf("witness string = %q", w.String())
	}
}

func TestMIMDFairnessClaimKilled(t *testing.T) {
	// MIMD is 0-fair: any positive fairness claim dies, and the witness
	// should be a skewed start (the hog corners).
	res, err := Check(cap100(), protocol.Scalable(), Fair, 0.5, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violated {
		t.Fatalf("MIMD 0.5-fairness survived; worst = %v", res.Worst)
	}
	if res.Witness.Measured > 0.5 {
		t.Fatalf("bad witness: %v", res.Witness)
	}
}

func TestAIMDFairnessClaimSurvives(t *testing.T) {
	res, err := Check(cap100(), protocol.Reno(), Fair, 0.8, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violated {
		t.Fatalf("AIMD 0.8-fairness falsified: %v", res.Witness)
	}
}

func TestLossAvoidingInvertedComparison(t *testing.T) {
	// Reno with n=2 on this link keeps tail loss under ~4%; claiming
	// loss ≤ 0.1 survives, claiming loss ≤ 0.0001 dies.
	res, err := Check(cap100(), protocol.Reno(), LossAvoiding, 0.1, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violated {
		t.Fatalf("loose loss claim falsified: %v", res.Witness)
	}
	// Tight claim: with a slack smaller than the claim's scale.
	tight := opt
	tight.Slack = 0.001
	res, err = Check(cap100(), protocol.Reno(), LossAvoiding, 0.0001, 2, tight)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violated {
		t.Fatalf("tight loss claim survived; worst = %v", res.Worst)
	}
	if res.Witness.Measured <= 0.0001 {
		t.Fatalf("bad witness: %v", res.Witness)
	}
}

// TestZeroSlackIsExact: Slack 0 means no tolerance, not the default.
// Reno's worst efficiency on a 20 Mbps / 42 ms / 20 MSS link is about
// 0.657, so a 0.66-efficiency claim dies at zero slack and survives
// within DefaultSlack.
func TestZeroSlackIsExact(t *testing.T) {
	cfg := fluid.Config{Bandwidth: fluid.MbpsToMSSps(20), PropDelay: 0.021, Buffer: 20}
	o := Options{Steps: 800, RandomTrials: 6}
	exact, err := Check(cfg, protocol.Reno(), Efficient, 0.66, 2, o)
	if err != nil {
		t.Fatal(err)
	}
	if !exact.Violated || exact.Witness.Measured >= 0.66 {
		t.Fatalf("zero slack: claim survived with worst efficiency %v", exact.Worst)
	}
	o.Slack = DefaultSlack
	loose, err := Check(cfg, protocol.Reno(), Efficient, 0.66, 2, o)
	if err != nil {
		t.Fatal(err)
	}
	if loose.Violated || loose.Worst != exact.Worst {
		t.Fatalf("default slack: violated=%v worst %v, want survived at %v", loose.Violated, loose.Worst, exact.Worst)
	}
}

func TestConvergenceClaim(t *testing.T) {
	// Reno's convergence is 2b/(1+b) = 2/3; claiming 0.9 dies.
	res, err := Check(cap100(), protocol.Reno(), Convergent, 0.9, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violated {
		t.Fatalf("0.9-convergence survived; worst = %v", res.Worst)
	}
	// Claiming 0.55 survives.
	res, err = Check(cap100(), protocol.Reno(), Convergent, 0.55, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violated {
		t.Fatalf("0.55-convergence falsified: %v", res.Witness)
	}
}

func TestFriendlinessClaim(t *testing.T) {
	// Scalable starves Reno: claiming 0.5-TCP-friendliness dies.
	res, err := Check(cap100(), protocol.Scalable(), FriendlyToReno, 0.5, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violated {
		t.Fatalf("Scalable 0.5-friendliness survived; worst = %v", res.Worst)
	}
	// Reno is ≈1-friendly to itself: claiming 0.8 survives.
	res, err = Check(cap100(), protocol.Reno(), FriendlyToReno, 0.8, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violated {
		t.Fatalf("Reno 0.8-friendliness falsified: %v", res.Witness)
	}
}

func TestValidation(t *testing.T) {
	if _, err := Check(cap100(), protocol.Reno(), Efficient, 0.5, 0, opt); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := Check(cap100(), protocol.Reno(), Fair, 0.5, 1, opt); err == nil {
		t.Fatal("fairness with 1 sender accepted")
	}
}

func TestValidationBeforeSimulating(t *testing.T) {
	with := func(edit func(*Options)) Options {
		o := opt
		edit(&o)
		return o
	}
	link := func(edit func(*fluid.Config)) fluid.Config {
		cfg := cap100()
		edit(&cfg)
		return cfg
	}
	cases := []struct {
		name  string
		claim Claim
		alpha float64
		opt   Options
		cfg   fluid.Config
	}{
		{"NaN alpha", Efficient, math.NaN(), opt, cap100()},
		{"NaN slack", Efficient, 0.99, with(func(o *Options) { o.Slack = math.NaN() }), cap100()},
		{"negative slack", Efficient, 0.5, with(func(o *Options) { o.Slack = -0.1 }), cap100()},
		{"negative steps", Efficient, 0.5, with(func(o *Options) { o.Steps = -5 }), cap100()},
		{"negative trials", Efficient, 0.5, with(func(o *Options) { o.RandomTrials = -3 }), cap100()},
		{"negative tail", Efficient, 0.5, with(func(o *Options) { o.TailFrac = -0.25 }), cap100()},
		{"tail of one", Efficient, 0.5, with(func(o *Options) { o.TailFrac = 1 }), cap100()},
		{"NaN tail", Efficient, 0.5, with(func(o *Options) { o.TailFrac = math.NaN() }), cap100()},
		{"unknown claim", Claim(99), 0.5, opt, cap100()},
		{"NaN buffer", Efficient, 0.5, opt, link(func(c *fluid.Config) { c.Buffer = math.NaN() })},
		{"NaN bandwidth", Efficient, 0.5, opt, link(func(c *fluid.Config) { c.Bandwidth = math.NaN() })},
		{"NaN delay", Efficient, 0.5, opt, link(func(c *fluid.Config) { c.PropDelay = math.NaN() })},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := metrics.TotalStats().Simulated()
			_, err := Check(c.cfg, protocol.Reno(), c.claim, c.alpha, 2, c.opt)
			if err == nil {
				t.Fatal("accepted")
			}
			// Rejected by validate, not by the first candidate run to fail.
			if !strings.HasPrefix(err.Error(), "axcheck: ") {
				t.Fatalf("error %q did not come from validation", err)
			}
			if sim := metrics.TotalStats().Simulated() - before; sim != 0 {
				t.Fatalf("simulated %d runs before rejecting", sim)
			}
		})
	}
}

// TestCheckReusesDefaultStore: Check resolves its runs through the
// default run store, so repeating a search against a warm store
// simulates nothing and returns the same result.
func TestCheckReusesDefaultStore(t *testing.T) {
	st, err := runstore.Open(t.TempDir(), runstore.Options{Version: "testver"})
	if err != nil {
		t.Fatal(err)
	}
	prev := metrics.DefaultStore()
	metrics.SetDefaultStore(st)
	t.Cleanup(func() { metrics.SetDefaultStore(prev) })

	check := func() (Result, int64) {
		before := metrics.TotalStats().Simulated()
		res, err := Check(cap100(), protocol.Reno(), Fair, 0.8, 2, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res, metrics.TotalStats().Simulated() - before
	}
	cold, coldSim := check()
	if coldSim != int64(cold.Trials) {
		t.Fatalf("cold search simulated %d runs for %d configurations", coldSim, cold.Trials)
	}
	warm, warmSim := check()
	if warmSim != 0 {
		t.Fatalf("warm search simulated %d runs", warmSim)
	}
	if math.Float64bits(warm.Worst) != math.Float64bits(cold.Worst) || warm.Trials != cold.Trials {
		t.Fatalf("warm search differs: %+v vs %+v", warm, cold)
	}
}

func TestClaimStrings(t *testing.T) {
	for claim, want := range map[Claim]string{
		Efficient:      "efficient",
		LossAvoiding:   "loss-avoiding",
		Fair:           "fair",
		Convergent:     "convergent",
		FriendlyToReno: "friendly-to-reno",
		Claim(99):      "claim(99)",
	} {
		if got := claim.String(); got != want {
			t.Errorf("Claim(%d).String() = %q, want %q", int(claim), got, want)
		}
	}
}

func TestDeterministicSearch(t *testing.T) {
	run := func() Result {
		res, err := Check(cap100(), protocol.Scalable(), Fair, 0.5, 3, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Worst != b.Worst || a.Trials != b.Trials {
		t.Fatalf("search not deterministic: %+v vs %+v", a, b)
	}
}

func TestTable1WorstCasesSurviveCheck(t *testing.T) {
	// The angle-bracket efficiency bounds of Table 1 must survive
	// falsification for the protocols they describe (claiming slightly
	// below the bound to absorb estimation noise).
	cases := []struct {
		p     protocol.Protocol
		claim float64
	}{
		{protocol.Reno(), 0.5 * 0.95},                      // <b> = 0.5
		{protocol.NewAIMD(1, 0.8), 0.8 * 0.95},             // <b> = 0.8
		{protocol.NewRobustAIMD(1, 0.8, 0.01), 0.8 * 0.95}, // <b/(1−k)> ≥ 0.8
	}
	for _, c := range cases {
		res, err := Check(cap100(), c.p, Efficient, c.claim, 2, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Violated {
			t.Errorf("%s: Table 1 efficiency bound falsified: %v", c.p.Name(), res.Witness)
		}
	}
}
