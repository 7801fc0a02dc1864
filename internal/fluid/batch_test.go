package fluid

import (
	"errors"
	"math"
	"testing"

	"repro/internal/protocol"
)

// batchScenario is one (Config, Senders) pair for the bit-identity matrix.
type batchScenario struct {
	name    string
	cfg     Config
	senders func() []Sender
}

func link20() Config {
	theta := 0.021
	return Config{Bandwidth: 20 / (2 * theta), PropDelay: theta, Buffer: 4}
}

func batchScenarios() []batchScenario {
	protos := func() []protocol.Protocol {
		return []protocol.Protocol{
			protocol.Reno(),
			protocol.Scalable(),
			protocol.IIAD(),
			protocol.SQRT(),
			protocol.NewRobustAIMD(1, 0.5, 0.05),
			protocol.NewHighSpeed(),
			protocol.CubicLinux(),
			protocol.DefaultPCC(),
			protocol.DefaultVegas(),
			protocol.NewBBRish(),
			protocol.DefaultTFRC(),
			protocol.NewProbeUntilLoss(1),
			// A rule continuous in the observed RTT and loss, so any
			// difference in what an epoch observes shows in the window.
			&protocol.Func{Fn: func(fb protocol.Feedback) float64 {
				return fb.Window*(1-fb.Loss) + 20*fb.RTT + 50*fb.Loss
			}},
		}
	}
	mixed := func() []Sender {
		s := MixedSenders(protos(), []float64{1, 30, 5, 12, 2, 80, 50, 10, 4, 7, 3, 1, 6})
		return append(s, Sender{Proto: primedCubic(), Init: 20})
	}
	// unsync holds kernelized and Next-stepped senders on several periods
	// and phases; a cell with it keeps epoch accumulators.
	unsync := func() []Sender {
		s := mixed()
		for i := range s {
			s[i].Period = i % 4
			if s[i].Period > 1 {
				s[i].Phase = i % s[i].Period
			}
		}
		return s
	}
	pair := func(p protocol.Protocol) func() []Sender {
		return func() []Sender {
			s, err := HomogeneousSenders(p, 2, []float64{1, 25})
			if err != nil {
				panic(err)
			}
			return s
		}
	}

	scen := []batchScenario{
		{"mixed-plain", link20(), mixed},
		{"mixed-const-loss", func() Config {
			c := link20()
			c.Loss = NewConstantLoss(0.01)
			c.Seed = 7
			return c
		}(), mixed},
		{"mixed-packet-loss", func() Config {
			c := link20()
			c.Loss = NewPacketLoss(0.002)
			c.Seed = 11
			return c
		}(), mixed},
		{"mixed-onoff-loss", func() Config {
			c := link20()
			c.Loss = NewOnOffLoss(0.1, 40, 200)
			c.Seed = 3
			return c
		}(), mixed},
		{"mixed-bandwidth-schedule", func() Config {
			c := link20()
			c.BandwidthSchedule = func(step int) float64 {
				if step%100 < 50 {
					return c.Bandwidth
				}
				return c.Bandwidth / 3
			}
			return c
		}(), mixed},
		{"mixed-infinite-loss", func() Config {
			c := Config{Infinite: true, PropDelay: 0.021, MaxWindow: 1e12}
			c.Loss = NewConstantLoss(0.01)
			return c
		}(), mixed},
		{"unsync-packet-loss", func() Config {
			c := link20()
			c.Loss = NewPacketLoss(0.002)
			c.Seed = 13
			return c
		}(), unsync},
		{"mixed-perturb", func() Config {
			c := link20()
			c.Loss = NewPacketLoss(0.001)
			c.Seed = 19
			c.Perturb = stubPerturber{
				scale: func(step, link int) float64 {
					if step%97 < 10 {
						return 0.4
					}
					return 1
				},
				loss: func(step, flow int) float64 {
					if (step+flow)%53 == 0 {
						return 0.2
					}
					return 0
				},
				rtt: func(step, link int) float64 {
					if step%31 == 0 {
						return 0.004
					}
					return 0
				},
				active: func(step, flow int) bool {
					// Flows 1 (stateless), 6 (Cubic, stateful kernel) and
					// 7 (PCC, stepped through Next) depart for a while and
					// re-arrive, pinning that kernel state survives churn
					// exactly as protocol state does.
					return (flow != 1 && flow != 6 && flow != 7) || step < 120 || step >= 300
				},
			}
			return c
		}(), mixed},
	}
	// Churn on unsynchronized senders, departing mid-epoch under an RTT
	// that moves every step: re-arrival must reset their epoch
	// accumulators.
	scen = append(scen, batchScenario{"unsync-perturb", func() Config {
		c := link20()
		c.Perturb = stubPerturber{
			rtt: func(step, link int) float64 { return float64(step%7) * 0.0005 },
			active: func(step, flow int) bool {
				return (flow != 6 && flow != 8 && flow != 12) || step < 122 || step >= 301
			},
		}
		return c
	}(), func() []Sender {
		s := mixed()
		for i := range s {
			s[i].Period = 3 + i%2
			s[i].Phase = i % s[i].Period
		}
		return s
	}})
	for _, p := range protos() {
		scen = append(scen, batchScenario{"pair-" + p.Name(), link20(), pair(p)})
	}
	return scen
}

// TestBatchBitIdentity is the fluid-level golden matrix: stepping all
// scenarios together in one Batch must reproduce, bit for bit, the
// windows, RTT, congestion loss and per-sender loss that each scenario's
// oracle link produces on its own — kernelized and Next-stepped senders,
// unsynchronized feedback, random loss processes, bandwidth schedules,
// and chaos-style perturbation with flow churn.
func TestBatchBitIdentity(t *testing.T) {
	const steps = 400

	scen := batchScenarios()
	cells := make([]BatchCell, len(scen))
	links := make([]*oracleLink, len(scen))
	for i, sc := range scen {
		cells[i] = BatchCell{Cfg: sc.cfg, Senders: sc.senders()}
		links[i] = newOracle(sc.cfg, sc.senders()...)
	}
	b, err := NewBatch(cells)
	if err != nil {
		t.Fatal(err)
	}

	for s := 0; s < steps; s++ {
		b.Step()
		for ci, l := range links {
			res := l.Step()
			if l.err != nil {
				t.Fatalf("%s: oracle diverged at step %d: %v", scen[ci].name, s, l.err)
			}
			if err := b.Err(ci); err != nil {
				t.Fatalf("%s: batch cell diverged at step %d: %v", scen[ci].name, s, err)
			}
			if got, want := b.RTT(ci), res.RTT; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s step %d: RTT %v != %v", scen[ci].name, s, got, want)
			}
			if got, want := b.CongLoss(ci), res.CongLoss; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s step %d: CongLoss %v != %v", scen[ci].name, s, got, want)
			}
			bw := b.Windows(ci)
			bl := b.loss[b.cells[ci].off:]
			for i, want := range res.Windows {
				if math.Float64bits(bw[i]) != math.Float64bits(want) {
					t.Fatalf("%s step %d sender %d: window %v != %v", scen[ci].name, s, i, bw[i], want)
				}
				if math.Float64bits(bl[i]) != math.Float64bits(res.Loss[i]) {
					t.Fatalf("%s step %d sender %d: loss %v != %v", scen[ci].name, s, i, bl[i], res.Loss[i])
				}
			}
		}
	}
}

// TestBatchDivergenceKeepsStepping asserts a diverging cell records the
// same DivergedError the oracle does and keeps stepping as the oracle
// does (each non-finite window replaced by MinWindow), while the other
// cells step bit-identically.
func TestBatchDivergenceKeepsStepping(t *testing.T) {
	runaway := Config{Infinite: true, PropDelay: 0.021, MaxWindow: math.Inf(1)}
	bad := []Sender{{Proto: protocol.NewMIMD(10, 0.5), Init: 1e300}}
	good := link20()
	goodSenders := []Sender{{Proto: protocol.Reno(), Init: 1}, {Proto: protocol.Scalable(), Init: 30}}

	b, err := NewBatch([]BatchCell{
		{Cfg: runaway, Senders: bad},
		{Cfg: good, Senders: goodSenders},
	})
	if err != nil {
		t.Fatal(err)
	}
	lbad := newOracle(runaway, bad...)
	lgood := newOracle(good, goodSenders...)

	var wantErr error
	for s := 0; s < 200; s++ {
		b.Step()
		for c, l := range []*oracleLink{lbad, lgood} {
			res := l.Step()
			bw := b.Windows(c)
			for i, want := range res.Windows {
				if math.Float64bits(bw[i]) != math.Float64bits(want) {
					t.Fatalf("cell %d drifted at step %d sender %d: %v != %v", c, s, i, bw[i], want)
				}
			}
		}
		if (lbad.err == nil) != (b.Err(0) == nil) {
			t.Fatalf("step %d: divergence mismatch: oracle %v, batch %v", s, lbad.err, b.Err(0))
		}
		wantErr = lbad.err
	}
	if b.Err(1) != nil {
		t.Fatalf("healthy cell reports %v", b.Err(1))
	}
	if wantErr == nil {
		t.Fatal("runaway cell never diverged")
	}
	got := b.Err(0)
	var gd, wd *DivergedError
	if !errors.As(got, &gd) || !errors.As(wantErr, &wd) {
		t.Fatalf("errors are not DivergedError: batch %v, oracle %v", got, wantErr)
	}
	if gd.Step != wd.Step || gd.Sender != wd.Sender || math.Float64bits(gd.Value) != math.Float64bits(wd.Value) {
		t.Fatalf("divergence detail mismatch: batch %+v, oracle %+v", gd, wd)
	}
	if !errors.Is(got, ErrDiverged) {
		t.Fatalf("batch divergence does not unwrap to ErrDiverged: %v", got)
	}
}

// primedCubic returns a Cubic instance with live state, which its kernel
// carries.
func primedCubic() *protocol.Cubic {
	p := protocol.CubicLinux()
	p.Next(protocol.Feedback{Window: 50})
	return p
}

// TestBatchableRejections pins what a cell must satisfy: a valid
// configuration, at least one sender, a protocol and a non-NaN initial
// window per sender, and a usable Period/Phase pair. New and NewBatch
// reject exactly what Batchable does. Any protocol, kernelized or not,
// primed or fresh, and unsynchronized feedback are steppable.
func TestBatchableRejections(t *testing.T) {
	ok := link20()
	cases := []struct {
		name    string
		cfg     Config
		senders []Sender
		wantErr string // "" when the cell is steppable
	}{
		{"pcc", ok, []Sender{{Proto: protocol.DefaultPCC(), Init: 1}}, ""},
		{"bbrish", ok, []Sender{{Proto: protocol.NewBBRish(), Init: 1}}, ""},
		{"primed-cubic", ok, []Sender{{Proto: primedCubic(), Init: 1}}, ""},
		{"func", ok, []Sender{{Proto: &protocol.Func{Fn: func(fb protocol.Feedback) float64 { return fb.Window }}, Init: 1}}, ""},
		{"mixed", ok, []Sender{{Proto: protocol.Reno(), Init: 1}, {Proto: protocol.DefaultVegas(), Init: 1}}, ""},
		{"period", ok, []Sender{{Proto: protocol.Reno(), Init: 1, Period: 4, Phase: 3}}, ""},
		{"period-1", ok, []Sender{{Proto: protocol.Reno(), Init: 1, Period: 1}}, ""},
		{"infinite-init", ok, []Sender{{Proto: protocol.Reno(), Init: math.Inf(1)}}, ""},
		{"nil-proto", ok, []Sender{{Init: 1}}, "fluid: sender 0 has nil protocol"},
		{"no-senders", ok, nil, "fluid: at least one sender required"},
		{"bad-config", Config{}, []Sender{{Proto: protocol.Reno(), Init: 1}}, "fluid: propagation delay must be positive and finite, got 0"},
		{"nan-init", ok, []Sender{{Proto: protocol.Reno(), Init: 1}, {Proto: protocol.Reno(), Init: math.NaN()}}, "fluid: sender 1 has a NaN initial window"},
		{"negative-period", ok, []Sender{{Proto: protocol.Reno(), Init: 1, Period: -1}}, "fluid: sender 0 has negative period or phase"},
		{"negative-phase", ok, []Sender{{Proto: protocol.Reno(), Init: 1, Phase: -1}}, "fluid: sender 0 has negative period or phase"},
		{"phase-past-period", ok, []Sender{{Proto: protocol.Reno(), Init: 1, Period: 3, Phase: 3}}, "fluid: sender 0 phase 3 ≥ period 3"},
	}
	for _, tc := range cases {
		err := Batchable(tc.cfg, tc.senders)
		if got := errString(err); got != tc.wantErr {
			t.Errorf("%s: Batchable = %q, want %q", tc.name, got, tc.wantErr)
		}
		if _, err := New(tc.cfg, tc.senders...); errString(err) != tc.wantErr {
			t.Errorf("%s: New error %v, want %q", tc.name, err, tc.wantErr)
		}
		_, err = NewBatch([]BatchCell{{Cfg: link20(), Senders: []Sender{{Proto: protocol.Reno(), Init: 1}}}, {Cfg: tc.cfg, Senders: tc.senders}})
		if want := "fluid: batch cell 1: " + tc.wantErr; tc.wantErr != "" && errString(err) != want {
			t.Errorf("%s: NewBatch error %v, want %q", tc.name, err, want)
		} else if tc.wantErr == "" && err != nil {
			t.Errorf("%s: NewBatch error %v, want nil", tc.name, err)
		}
	}
	if _, err := NewBatch(nil); err == nil {
		t.Error("NewBatch(nil) = nil error, want error")
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestBatchStepAllocFree pins the batched hot loop at zero allocations
// per step, the batched counterpart of TestLinkStepAllocFree (run under
// -race in CI).
func TestBatchStepAllocFree(t *testing.T) {
	scen := batchScenarios()
	cells := make([]BatchCell, len(scen))
	for i, sc := range scen {
		cells[i] = BatchCell{Cfg: sc.cfg, Senders: sc.senders()}
	}
	b, err := NewBatch(cells)
	if err != nil {
		t.Fatal(err)
	}
	// Warm past the transient so the loss and perturbation paths have
	// been exercised too.
	for i := 0; i < 200; i++ {
		b.Step()
	}
	if avg := testing.AllocsPerRun(500, func() { b.Step() }); avg != 0 {
		t.Fatalf("Batch.Step allocates %.2f times per step in steady state, want 0", avg)
	}
}
