package metrics

import (
	"math"
	"testing"

	"repro/internal/fluid"
	"repro/internal/protocol"
	"repro/internal/rand64"
	"repro/internal/stats"
)

// extRun resolves, through extWorst, the ext summary of the one start
// init (nil: every sender at the floor); over one run the folds are the
// run's own settle step and drop.
func extRun(cfg fluid.Config, p protocol.Protocol, n int, init []float64, band float64, o Options) (extSummary, error) {
	o.InitConfigs = [][]float64{init}
	settle, smooth, err := extWorst(cfg, p, n, band, o)
	return extSummary{settle: settle, smooth: smooth}, err
}

func TestConvergenceTimeAIMDFinite(t *testing.T) {
	ct, err := ConvergenceTime(cap100(), protocol.Reno(), 2, 0.4, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if ct < 0 {
		t.Fatal("Reno never settled")
	}
	// From the skewed start (one sender holding C), AIMD needs a
	// non-trivial number of steps but settles well before the horizon.
	if ct >= fastOpt.Steps {
		t.Fatalf("convergence time %d ≥ horizon", ct)
	}
}

func TestConvergenceTimeGentlerIsNotSlowerToSettleBand(t *testing.T) {
	// A wide band (±40%) contains Reno's 0.5-halving sawtooth (whose
	// trough/mean ratio is 2b/(1+b) = 0.667 > 0.6), so both settle; the
	// b = 0.8 variant's narrower sawtooth must also fit a ±15% band that
	// Reno's cannot.
	reno, err := ConvergenceTime(cap100(), protocol.Reno(), 1, 0.15, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	gentle, err := ConvergenceTime(cap100(), protocol.NewAIMD(1, 0.8), 1, 0.15, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if reno != -1 {
		t.Errorf("Reno fit a ±15%% band: %d (trough ratio 0.667 < 0.85)", reno)
	}
	if gentle == -1 {
		t.Errorf("AIMD(1,0.8) did not fit a ±15%% band (trough ratio 0.889)")
	}
}

func TestConvergenceTimeValidation(t *testing.T) {
	if _, err := ConvergenceTime(cap100(), protocol.Reno(), 1, 0, fastOpt); err == nil {
		t.Fatal("band=0 accepted")
	}
	if _, err := ConvergenceTime(cap100(), protocol.Reno(), 1, 1, fastOpt); err == nil {
		t.Fatal("band=1 accepted")
	}
}

// TestExtSummaryMatchesTraceRandom is the property behind caching one
// ext summary per run instead of its recorded trace: on seeded random
// single-link runs (C, τ, n, protocol family, initial windows, band,
// tail fraction) the summary extRun resolves — simulated, then decoded
// from the store — equals convergenceStep and the smoothness scan over a
// fresh recorded trace of the same run, bit for bit. The band is part of
// the key: the same run at another band is a miss.
func TestExtSummaryMatchesTraceRandom(t *testing.T) {
	const steps = 1200
	rng := rand64.New(20171201)
	st := testStore(t)
	for trial := 0; trial < 30; trial++ {
		fam := protocolFamilies[trial%len(protocolFamilies)]
		theta := rng.Range(0.005, 0.05)
		capacity := rng.Range(20, 400) // C = B·2Θ, MSS
		cfg := fluid.Config{
			Bandwidth: capacity / (2 * theta),
			PropDelay: theta,
			Buffer:    math.Floor(rng.Range(0, 2*capacity)),
		}
		n := 1 + rng.Intn(4)
		p := fam.make(rng)
		init := make([]float64, n)
		for i := range init {
			init[i] = math.Floor(rng.Range(1, capacity))
		}
		band := rng.Range(0.02, 0.6)
		o := Options{Steps: steps, TailFrac: []float64{0.5, DefaultTailFrac, 0.9}[rng.Intn(3)]}.withDefaults()

		tr, err := simulateRecorded(cfg, p, n, init, o)
		if err != nil {
			t.Fatal(err)
		}
		wantSettle := convergenceStep(tr.Window, tr.Senders(), tr.Len(), band, o.TailFrac)
		wantSmooth := 0.0
		for i := 0; i < tr.Senders(); i++ {
			w := stats.Tail(tr.Window(i), o.TailFrac)
			for k := 0; k+1 < len(w); k++ {
				if w[k] <= 0 {
					continue
				}
				if drop := (w[k] - w[k+1]) / w[k]; drop > wantSmooth {
					wantSmooth = drop
				}
			}
		}

		for _, pass := range []struct {
			name   string
			band   float64
			misses int64
		}{{"cold", band, 1}, {"disk", band, 0}, {"other band", band / 2, 1}} {
			o.Session = storeSession(t, st)
			got, err := extRun(cfg, p, n, init, pass.band, o)
			if err != nil {
				t.Fatal(err)
			}
			if s := o.Session.Stats(); s.Misses != pass.misses || s.DiskHits != 1-pass.misses {
				t.Fatalf("trial %d (%s) %s: %+v, want %d misses", trial, fam.name, pass.name, s, pass.misses)
			}
			if pass.band != band {
				continue
			}
			if got.settle != wantSettle || math.Float64bits(got.smooth) != math.Float64bits(wantSmooth) {
				t.Fatalf("trial %d (%s) %s: summary {%d %v}, trace {%d %v}", trial, fam.name, pass.name, got.settle, got.smooth, wantSettle, wantSmooth)
			}
		}
	}
}

func TestSmoothnessMatchesDecreaseFactor(t *testing.T) {
	reno, err := Smoothness(cap100(), protocol.Reno(), 1, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(reno-0.5) > 0.05 {
		t.Errorf("Reno smoothness = %v, want ≈ 0.5 (halving)", reno)
	}
	gentle, err := Smoothness(cap100(), protocol.NewAIMD(1, 0.8), 1, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gentle-0.2) > 0.05 {
		t.Errorf("AIMD(1,0.8) smoothness = %v, want ≈ 0.2", gentle)
	}
	if gentle >= reno {
		t.Errorf("hierarchy: gentle %v ≥ reno %v", gentle, reno)
	}
}

func TestResponsivenessOrdering(t *testing.T) {
	// When capacity doubles, MIMD claims it exponentially fast; AIMD(1,·)
	// needs ≈ C/n extra MSS at 1/step; AIMD(0.2,·) is 5× slower.
	cfg := cap100()
	fast, err := Responsiveness(cfg, protocol.Scalable(), 1, 0.8, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := Responsiveness(cfg, protocol.Reno(), 1, 0.8, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Responsiveness(cfg, protocol.NewAIMD(0.2, 0.5), 1, 0.8, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if fast < 0 || mid < 0 || slow < 0 {
		t.Fatalf("some protocol never claimed the capacity: %d %d %d", fast, mid, slow)
	}
	if !(fast < mid && mid < slow) {
		t.Fatalf("responsiveness ordering broken: MIMD %d, AIMD(1) %d, AIMD(0.2) %d", fast, mid, slow)
	}
}

func TestResponsivenessValidation(t *testing.T) {
	if _, err := Responsiveness(cap100(), protocol.Reno(), 1, 0, fastOpt); err == nil {
		t.Fatal("frac=0 accepted")
	}
	inf := fluid.Config{Infinite: true, PropDelay: 0.021}
	if _, err := Responsiveness(inf, protocol.Reno(), 1, 0.8, fastOpt); err == nil {
		t.Fatal("infinite link accepted")
	}
}

func TestCharacterizeExt(t *testing.T) {
	s, err := CharacterizeExt(cap100(), protocol.Reno(), 2, Options{Steps: 1200})
	if err != nil {
		t.Fatal(err)
	}
	if s.ConvergenceTime < 0 {
		t.Errorf("convergence time = %d", s.ConvergenceTime)
	}
	if s.Smoothness < 0.4 || s.Smoothness > 0.6 {
		t.Errorf("smoothness = %v", s.Smoothness)
	}
	if s.Responsiveness < 0 {
		t.Errorf("responsiveness = %d", s.Responsiveness)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestTFRCSmootherThanReno(t *testing.T) {
	// The equation-based protocol's whole point: steady-state smoothness
	// far better than halving.
	tfrc, err := Smoothness(cap100(), protocol.DefaultTFRC(), 1, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	reno, err := Smoothness(cap100(), protocol.Reno(), 1, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if tfrc >= reno/2 {
		t.Fatalf("TFRC smoothness %v not ≪ Reno's %v", tfrc, reno)
	}
}

func TestTFRCUtilizesAndStaysNearFriendly(t *testing.T) {
	eff, err := Efficiency(cap100(), protocol.DefaultTFRC(), 1, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if eff < 0.5 {
		t.Fatalf("TFRC efficiency = %v, want ≥ 0.5", eff)
	}
	// Equation-based control targets Reno's operating point; allow a
	// generous factor since the EWMA dynamics differ from event-driven
	// AIMD.
	friendly, err := TCPFriendliness(cap100(), protocol.DefaultTFRC(), 1, 1, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if friendly < 0.25 || friendly > 4 {
		t.Fatalf("TFRC TCP-friendliness = %v, want within 4x of parity", friendly)
	}
}

func TestBandwidthScheduleDrop(t *testing.T) {
	// Capacity halves mid-run: a Reno sender's window must track down
	// (loss forces decreases) and the post-drop tail must stay near the
	// new, smaller capacity.
	cfg := cap100()
	half := cfg.Bandwidth / 2
	steps := 2000
	cfg.BandwidthSchedule = func(step int) float64 {
		if step >= steps/2 {
			return half
		}
		return cfg.Bandwidth
	}
	tr, err := simulateRecorded(cfg, protocol.Reno(), 1, []float64{1}, Options{Steps: steps})
	if err != nil {
		t.Fatal(err)
	}
	// Post-drop capacity is 50 MSS (+ buffer 20): the tail total must not
	// exceed C/2+τ+slack.
	tail := tr.Total()[steps-100:]
	for _, x := range tail {
		if x > 50+20+3 {
			t.Fatalf("window %v did not adapt to halved capacity", x)
		}
	}
}
