package fluid

import "repro/internal/rand64"

// newTestRNG exposes a deterministic RNG to the package tests.
func newTestRNG() *rand64.Source { return rand64.New(12345) }

// config is the link's defaulted configuration.
func (l *Link) config() Config { return l.b.cells[0].cfg }

// congestion is the link's (RTT, loss) for aggregate window x at its
// current step.
func (l *Link) congestion(x float64) (rtt, loss float64) {
	return congestionAt(&l.b.cells[0].cfg, l.b.step, x)
}
