package fluid

import (
	"math"
	"testing"

	"repro/internal/protocol"
)

func TestPeriodOneMatchesSynchronized(t *testing.T) {
	// Period 0/1 must reproduce the paper's synchronized dynamics
	// exactly.
	mk := func(period int) []float64 {
		l := MustNew(testCfg(),
			Sender{Proto: protocol.Reno(), Init: 1, Period: period},
			Sender{Proto: protocol.Reno(), Init: 50, Period: period},
		)
		tr := runLink(l, 500)
		return tr.windows[0]
	}
	w0 := mk(0)
	w1 := mk(1)
	for i := range w0 {
		if w0[i] != w1[i] {
			t.Fatalf("step %d: period 0 (%v) != period 1 (%v)", i, w0[i], w1[i])
		}
	}
}

func TestWindowHeldBetweenUpdates(t *testing.T) {
	l := MustNew(testCfg(), Sender{Proto: protocol.Reno(), Init: 10, Period: 4, Phase: 0})
	tr := runLink(l, 40)
	w := tr.windows[0]
	// Updates land on steps ≡ 0 (mod 4); the recorded window (in effect
	// during the step) therefore changes only at steps 1, 5, 9, ...
	for s := 1; s < len(w); s++ {
		changed := w[s] != w[s-1]
		expectChange := (s-1)%4 == 0
		if changed && !expectChange {
			t.Fatalf("window changed at step %d outside the update schedule", s)
		}
	}
}

func TestEpochAggregatesLoss(t *testing.T) {
	// A sender updating every 4 steps must still react to a loss that
	// occurred mid-epoch. Build a deterministic loss process that fires
	// exactly once, at a step far from the sender's update step.
	cfg := Config{Infinite: true, PropDelay: 0.021, Loss: NewOnOffLoss(0.5, 1, 1000)}
	// OnOff with period 1000, on-steps 1: loss only at steps 0..0 (step%1000 < 1).
	l := MustNew(cfg, Sender{Proto: protocol.Reno(), Init: 100, Period: 4, Phase: 3})
	tr := runLink(l, 8)
	w := tr.windows[0]
	// The loss happened at step 0; the first update is at step 3, and
	// the epoch-aggregated loss must trigger a halving, visible at step 4.
	if w[4] >= 100 {
		t.Fatalf("mid-epoch loss was not aggregated: window %v at step 4", w[4])
	}
	if math.Abs(w[4]-50) > 1e-9 {
		t.Fatalf("window after aggregated loss = %v, want 50", w[4])
	}
}

func TestSlowUpdaterLosesToFastUpdater(t *testing.T) {
	// Two Renos, one updating every step, one every 4 steps: the slow
	// updater grows its window 4× slower and ends up with the smaller
	// share — the unsynchronized-feedback analogue of RTT unfairness.
	l := MustNew(testCfg(),
		Sender{Proto: protocol.Reno(), Init: 1, Period: 1},
		Sender{Proto: protocol.Reno(), Init: 1, Period: 4},
	)
	tr := runLink(l, 4000)
	fast, slow := tr.tailMean(0), tr.tailMean(1)
	if slow >= fast {
		t.Fatalf("slow updater (%v) beat fast updater (%v)", slow, fast)
	}
}

func TestUnsyncValidation(t *testing.T) {
	if _, err := New(testCfg(), Sender{Proto: protocol.Reno(), Period: -1}); err == nil {
		t.Fatal("negative period accepted")
	}
	if _, err := New(testCfg(), Sender{Proto: protocol.Reno(), Period: 2, Phase: 2}); err == nil {
		t.Fatal("phase ≥ period accepted")
	}
	if _, err := New(testCfg(), Sender{Proto: protocol.Reno(), Phase: -1}); err == nil {
		t.Fatal("negative phase accepted")
	}
}

func TestDesynchronizedPhasesStillFairish(t *testing.T) {
	// Same period, opposite phases: epoch aggregation keeps both Renos
	// reacting to every loss episode, so fairness survives desync.
	l := MustNew(testCfg(),
		Sender{Proto: protocol.Reno(), Init: 1, Period: 2, Phase: 0},
		Sender{Proto: protocol.Reno(), Init: 80, Period: 2, Phase: 1},
	)
	tr := runLink(l, 4000)
	a, b := tr.tailMean(0), tr.tailMean(1)
	if r := math.Min(a, b) / math.Max(a, b); r < 0.7 {
		t.Fatalf("desynchronized Renos too unfair: ratio %v", r)
	}
}
