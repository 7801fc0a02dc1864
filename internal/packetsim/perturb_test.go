package packetsim

import (
	"math"
	"testing"

	"repro/internal/protocol"
)

// identityPerturber perturbs nothing: full capacity, no extra loss, no
// RTT offset, every flow active. A run under it must equal the same run
// with Perturb nil bit for bit, although it takes every Perturber branch.
type identityPerturber struct{}

func (identityPerturber) CapacityScale(step, link int) float64 { return 1 }
func (identityPerturber) ExtraLoss(step, flow int) float64     { return 0 }
func (identityPerturber) RTTOffset(step, link int) float64     { return 0 }
func (identityPerturber) FlowActive(step, flow int) bool       { return true }

// byteReader hands out the fuzz input one byte at a time, zeros once it
// is exhausted, so every input decodes to some config.
type byteReader []byte

func (r *byteReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// identityConfig decodes data into a short packet run: a dyadic link
// (power-of-two rate and delay, so events tie) or an irregular one,
// droptail or RED, optional random loss and tick, and one to four flows
// drawing their protocol, window, start and extra delay from small sets,
// so that they often share a delay class.
func identityConfig(data []byte) (Config, []Flow, float64) {
	r := byteReader(data)
	var cfg Config
	if r.next()%2 == 0 {
		cfg.Bandwidth = math.Ldexp(1, 7+r.next()%4)
		cfg.PropDelay = math.Ldexp(1, -5-r.next()%3)
	} else {
		cfg.Bandwidth = 100 + 7*float64(r.next())
		cfg.PropDelay = 0.005 + 0.0003*float64(r.next())
	}
	cfg.Buffer = r.next() % 32
	if b := r.next(); b%3 == 0 {
		lo := b / 3 % 8
		hi := lo + 1 + r.next()%16
		cfg.Queue = NewRED(lo, hi, float64(1+r.next()%10)/10, max(cfg.Buffer, hi))
	}
	if b := r.next(); b%2 == 0 {
		cfg.RandomLoss = float64(b%64) / 1000
	}
	if b := r.next(); b%2 == 0 {
		cfg.Tick = float64(1+b%16) / 128
	}
	cfg.Seed = uint64(r.next())
	protos := []func() protocol.Protocol{
		func() protocol.Protocol { return protocol.Reno() },
		func() protocol.Protocol { return protocol.Scalable() },
		func() protocol.Protocol { return protocol.CubicLinux() },
		func() protocol.Protocol { return protocol.NewRobustAIMD(1, 0.8, 0.01) },
		func() protocol.Protocol { return protocol.DefaultVegas() },
	}
	extras := []float64{0, 1.0 / 256, 1.0 / 128, 0.003}
	flows := make([]Flow, 1+r.next()%4)
	for i := range flows {
		flows[i] = Flow{
			Proto:      protos[r.next()%len(protos)](),
			Init:       float64(r.next() % 17),
			Start:      float64(r.next()%8) / 16,
			ExtraDelay: extras[r.next()%len(extras)],
		}
	}
	return cfg, flows, float64(1 + r.next()%2)
}

// FuzzIdentityPerturber runs each decoded config with Perturb nil and
// with identityPerturber and requires the same deliveries, delivery
// series and per-tick RTT and loss bits: the perturbed path may query
// the schedule but must otherwise be the unperturbed simulator.
func FuzzIdentityPerturber(f *testing.F) {
	for seed := uint64(1); seed <= 24; seed++ {
		f.Add(randomScript(seed, 8))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, flows, dur := identityConfig(data)
		plain, ptk, err := runTicks(cfg, flows, dur)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		cfg.Perturb = identityPerturber{}
		pert, qtk, err := runTicks(cfg, flows, dur)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		for i := range plain.Delivered {
			if plain.Delivered[i] != pert.Delivered[i] {
				t.Fatalf("%+v: flow %d delivered %d unperturbed, %d perturbed", cfg, i, plain.Delivered[i], pert.Delivered[i])
			}
			if a, b := hexBits(plain.DeliveredSeries[i]), hexBits(pert.DeliveredSeries[i]); a != b {
				t.Fatalf("%+v: flow %d delivery series differ:\n%s\n%s", cfg, i, a, b)
			}
		}
		if a, b := hexBits(ptk.rtt), hexBits(qtk.rtt); a != b {
			t.Fatalf("%+v: tick RTTs differ:\n%s\n%s", cfg, a, b)
		}
		if a, b := hexBits(ptk.loss), hexBits(qtk.loss); a != b {
			t.Fatalf("%+v: tick losses differ:\n%s\n%s", cfg, a, b)
		}
	})
}
