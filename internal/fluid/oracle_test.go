package fluid

import (
	"math"

	"repro/internal/protocol"
	"repro/internal/rand64"
)

// oracleLink is the fluid model's step written out for one link on its
// own, every sender through its protocol's Next and every sender through
// the epoch accumulators, as Link.Step stated it before Link became a
// one-cell Batch. It is the reference the stepper is held to
// (TestBatchBitIdentity, FuzzStepMatchesOracle); production code never
// calls it.
type oracleLink struct {
	cfg     Config
	senders []Sender
	x       []float64 // current windows
	step    int
	rng     *rand64.Source
	err     error // first divergence, sticky

	// Per-sender epoch accumulators for unsynchronized feedback.
	epochSurvive []float64 // Π(1−loss) since the sender's last update
	epochRTTSum  []float64
	epochSteps   []int

	// active tracks per-sender churn state; only used with Perturb set.
	active []bool
}

// newOracle returns the reference link for a (Config, Senders) pair that
// Batchable accepts.
func newOracle(cfg Config, senders ...Sender) *oracleLink {
	cfg = cfg.withDefaults()
	l := &oracleLink{
		cfg:          cfg,
		senders:      senders,
		x:            make([]float64, len(senders)),
		rng:          rand64.New(cfg.Seed),
		epochSurvive: make([]float64, len(senders)),
		epochRTTSum:  make([]float64, len(senders)),
		epochSteps:   make([]int, len(senders)),
		active:       make([]bool, len(senders)),
	}
	for i, s := range senders {
		l.x[i] = protocol.Clamp(s.Init, cfg.MaxWindow)
		l.epochSurvive[i] = 1
	}
	return l
}

func (l *oracleLink) fail(step, sender int, v float64) {
	if l.err == nil {
		l.err = &DivergedError{Step: step, Sender: sender, Value: v}
	}
}

// Step advances the reference one time step; its result owns its slices.
func (l *oracleLink) Step() StepResult {
	p := l.cfg.Perturb
	if p != nil {
		for i := range l.senders {
			on := p.FlowActive(l.step, i)
			if on && !l.active[i] && l.step > 0 {
				l.x[i] = protocol.Clamp(l.senders[i].Init, l.cfg.MaxWindow)
				l.epochSurvive[i], l.epochRTTSum[i], l.epochSteps[i] = 1, 0, 0
			}
			l.active[i] = on
		}
	}
	x := 0.0
	for i, w := range l.x {
		if p != nil && !l.active[i] {
			continue
		}
		x += w
	}
	if math.IsNaN(x) || math.IsInf(x, 0) {
		l.fail(l.step, -1, x)
	}
	rtt, congLoss := congestionAt(&l.cfg, l.step, x)
	if p != nil {
		rtt += p.RTTOffset(l.step, 0)
		if rtt < minPerturbedRTT {
			rtt = minPerturbedRTT
		}
	}
	res := StepResult{
		Step:     l.step,
		Windows:  append([]float64(nil), l.x...),
		RTT:      rtt,
		CongLoss: congLoss,
		Loss:     make([]float64, len(l.senders)),
	}
	for i := range l.senders {
		if p != nil && !l.active[i] {
			res.Windows[i] = 0
			continue
		}
		loss := congLoss
		if l.cfg.Loss != nil {
			r := l.cfg.Loss.Rate(l.step, i, l.x[i], l.rng)
			loss = 1 - (1-loss)*(1-r)
		}
		if p != nil {
			if r := p.ExtraLoss(l.step, i); r > 0 {
				loss = 1 - (1-loss)*(1-r)
			}
		}
		res.Loss[i] = loss
		l.epochSurvive[i] *= 1 - loss
		l.epochRTTSum[i] += rtt
		l.epochSteps[i]++

		period := l.senders[i].Period
		if period > 1 && l.step%period != l.senders[i].Phase {
			continue
		}
		next := l.senders[i].Proto.Next(protocol.Feedback{
			Step:   l.step,
			Window: l.x[i],
			RTT:    l.epochRTTSum[i] / float64(l.epochSteps[i]),
			Loss:   1 - l.epochSurvive[i],
		})
		if math.IsNaN(next) || math.IsInf(next, 0) {
			l.fail(l.step, i, next)
			next = protocol.MinWindow
		}
		w := protocol.Clamp(next, l.cfg.MaxWindow)
		if math.IsInf(w, 0) || w < 0 {
			l.fail(l.step, i, w)
			w = protocol.MinWindow
		}
		l.x[i] = w
		l.epochSurvive[i] = 1
		l.epochRTTSum[i] = 0
		l.epochSteps[i] = 0
	}
	l.step++
	return res
}
