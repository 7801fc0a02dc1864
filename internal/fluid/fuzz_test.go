package fluid

import (
	"math"
	"testing"

	"repro/internal/protocol"
)

// fuzzFamilies are the protocols a fuzzed sender picks from: every
// kernelized family, a primed Cubic, the Next-stepped families, a
// protocol.Func and one whose window is a power-of-two multiple of the
// loss it observes (so every bit of that loss shows), plus a runaway
// MIMD that diverges on an uncapped link.
var fuzzFamilies = []func() protocol.Protocol{
	func() protocol.Protocol { return protocol.Reno() },
	func() protocol.Protocol { return protocol.Scalable() },
	func() protocol.Protocol { return protocol.NewMIMD(10, 0.5) },
	func() protocol.Protocol { return protocol.IIAD() },
	func() protocol.Protocol { return protocol.SQRT() },
	func() protocol.Protocol { return protocol.NewRobustAIMD(1, 0.8, 0.01) },
	func() protocol.Protocol { return protocol.NewHighSpeed() },
	func() protocol.Protocol { return protocol.CubicLinux() },
	func() protocol.Protocol { return primedCubic() },
	func() protocol.Protocol { return protocol.DefaultPCC() },
	func() protocol.Protocol { return protocol.DefaultVegas() },
	func() protocol.Protocol { return protocol.NewBBRish() },
	func() protocol.Protocol { return protocol.DefaultTFRC() },
	func() protocol.Protocol { return protocol.NewProbeUntilLoss(1) },
	func() protocol.Protocol {
		return &protocol.Func{Fn: func(fb protocol.Feedback) float64 {
			if fb.Loss > 0.01 {
				return fb.Window/3 + fb.Loss
			}
			return fb.Window*1.1 + fb.RTT + fb.Loss
		}}
	},
	func() protocol.Protocol {
		return &protocol.Func{Fn: func(fb protocol.Feedback) float64 {
			if fb.Loss > 0 {
				return 64 * fb.Loss
			}
			return fb.Window + 1
		}}
	},
}

// Bits of FuzzStepMatchesOracle's flags argument.
const (
	fuzzInfinite  = 1 << iota // infinite link
	fuzzUncapped              // MaxWindow +Inf
	fuzzSchedule              // bandwidth schedule
	fuzzPerturb               // perturber with churn, extra loss and RTT offsets
	fuzzLossShift             // two bits from here: none, constant, packet, on-off loss
)

// FuzzStepMatchesOracle holds the stepper to the oracle link on fuzzed
// links, protocol mixes, initial windows, periods and phases, and loss:
// a Link (a one-cell Batch) and the second cell of a two-cell Batch must
// reproduce every oracle step bit for bit, divergence included, and New
// must reject exactly the inputs Batchable does.
func FuzzStepMatchesOracle(f *testing.F) {
	f.Add(uint8(0), 20.0, 4.0, 0.01, 1.0, uint64(1), uint8(100), []byte{0, 1, 0, 7, 25, 0})
	f.Add(uint8(fuzzPerturb|2<<4), 40.0, 10.0, 0.002, 3.0, uint64(9), uint8(255), []byte{9, 2, 13, 8, 9, 7, 14, 1, 2, 10, 30, 0})
	f.Add(uint8(fuzzInfinite|fuzzUncapped), 1.0, 0.0, 0.0, 1e299, uint64(0), uint8(50), []byte{2, 1, 0, 0, 1, 0})
	f.Add(uint8(fuzzSchedule|3<<4), 100.0, 0.0, 0.1, 0.5, uint64(4), uint8(180), []byte{11, 40, 3, 12, 3, 6, 5, 200, 11})
	f.Fuzz(func(t *testing.T, flags uint8, capacity, buffer, lossRate, initScale float64, seed uint64, steps uint8, senderBytes []byte) {
		if !(capacity > 0 && capacity < 1e4) || !(buffer >= 0 && buffer < 1e4) || !(lossRate >= 0 && lossRate < 1) {
			return
		}
		theta := 0.021
		cfg := Config{Bandwidth: capacity / (2 * theta), PropDelay: theta, Buffer: buffer, Seed: seed}
		if flags&fuzzInfinite != 0 {
			cfg.Infinite, cfg.MaxWindow = true, 1e12
		}
		if flags&fuzzUncapped != 0 {
			cfg.MaxWindow = math.Inf(1)
		}
		if flags&fuzzSchedule != 0 {
			bw := cfg.Bandwidth
			cfg.BandwidthSchedule = func(step int) float64 { return bw * float64(1+step%7) / 4 }
		}
		switch flags >> 4 & 3 {
		case 1:
			cfg.Loss = NewConstantLoss(lossRate)
		case 2:
			// Binomial sampling costs one draw per segment: keep windows
			// small enough to sample.
			cfg.Loss, cfg.MaxWindow = NewPacketLoss(lossRate), 1000
		case 3:
			cfg.Loss = NewOnOffLoss(lossRate, 1+int(seed%5), 5+int(seed%17))
		}
		if flags&fuzzPerturb != 0 {
			cfg.Perturb = stubPerturber{
				scale: func(step, _ int) float64 { return 0.2 + float64(step%5)/4 },
				loss: func(step, flow int) float64 {
					if (step+flow)%7 == 0 {
						return lossRate / 2
					}
					return 0
				},
				rtt:    func(step, _ int) float64 { return float64(step%3-1) * 0.03 },
				active: func(step, flow int) bool { return (step/(10+flow))%3 != 1 },
			}
		}
		if len(senderBytes) > 3*8 {
			senderBytes = senderBytes[:3*8]
		}
		// Each sender takes three bytes: family, initial window, and
		// period/phase.
		senders := func() []Sender {
			var s []Sender
			for i := 0; i+2 < len(senderBytes); i += 3 {
				b := senderBytes[i : i+3]
				s = append(s, Sender{
					Proto:  fuzzFamilies[int(b[0])%len(fuzzFamilies)](),
					Init:   initScale * float64(b[1]),
					Period: int(b[2] % 5),
					Phase:  int(b[2] / 5 % 5),
				})
			}
			return s
		}
		l, err := New(cfg, senders()...)
		if berr := Batchable(cfg, senders()); errString(berr) != errString(err) {
			t.Fatalf("New error %v, Batchable %v", err, berr)
		}
		if err != nil {
			return
		}
		other := BatchCell{Cfg: link20(), Senders: []Sender{{Proto: protocol.Reno(), Init: 3}, {Proto: protocol.DefaultPCC(), Init: 9}}}
		b, err := NewBatch([]BatchCell{other, {Cfg: cfg, Senders: senders()}})
		if err != nil {
			t.Fatal(err)
		}
		oracle := newOracle(cfg, senders()...)
		for s := 0; s < 1+int(steps); s++ {
			want := oracle.Step()
			got := l.Step()
			b.Step()
			bLoss := b.loss[b.cells[1].off:]
			if got.Step != want.Step || !sameBits(got.RTT, want.RTT) || !sameBits(got.CongLoss, want.CongLoss) ||
				!sameBits(b.RTT(1), want.RTT) || !sameBits(b.CongLoss(1), want.CongLoss) {
				t.Fatalf("step %d: link (%d, %v, %v), batch (%v, %v), oracle (%d, %v, %v)", s,
					got.Step, got.RTT, got.CongLoss, b.RTT(1), b.CongLoss(1), want.Step, want.RTT, want.CongLoss)
			}
			for i := range want.Windows {
				if !sameBits(got.Windows[i], want.Windows[i]) || !sameBits(b.Windows(1)[i], want.Windows[i]) {
					t.Fatalf("step %d sender %d: window link %v, batch %v, oracle %v", s, i, got.Windows[i], b.Windows(1)[i], want.Windows[i])
				}
				if !sameBits(got.Loss[i], want.Loss[i]) || !sameBits(bLoss[i], want.Loss[i]) {
					t.Fatalf("step %d sender %d: loss link %v, batch %v, oracle %v", s, i, got.Loss[i], bLoss[i], want.Loss[i])
				}
			}
			if e := errString(oracle.err); errString(l.Err()) != e || errString(b.Err(1)) != e {
				t.Fatalf("step %d: error link %v, batch %v, oracle %v", s, l.Err(), b.Err(1), oracle.err)
			}
		}
	})
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
