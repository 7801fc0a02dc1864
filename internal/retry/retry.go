// Package retry is the repository's one backoff implementation: jittered
// exponential delays with an optional cumulative budget, used by axiomd's
// cell retries, shard respawns and admission machinery, so every "wait
// and try again" loop in the tree backs off the same way and is tuned by
// the same knobs.
//
// Jitter is deterministic: it is derived from a caller-supplied seed via
// the SplitMix64 finalizer, never from a global RNG. Two processes (or
// two runs of one test) that start from the same seed produce the same
// delay sequence, while the cells of one job are still decorrelated from
// each other.
package retry

import (
	"context"
	"time"
)

// Policy describes an exponential-backoff schedule. The zero value is
// usable: one attempt, no waiting. Fields left zero select the
// documented defaults.
type Policy struct {
	// Attempts is the total number of tries Budget-style loops allow
	// (first attempt included). 0 or negative means unlimited; callers
	// that manage their own attempt count ignore it.
	Attempts int
	// Base is the delay before the first retry (default 5ms).
	Base time.Duration
	// Max caps an individual delay after exponential growth (default
	// 320ms).
	Max time.Duration
	// Multiplier is the exponential growth factor (default 2).
	Multiplier float64
	// Jitter spreads each delay uniformly over [1-Jitter, 1+Jitter)
	// times its nominal value. 0 disables jitter; values are clamped to
	// [0, 1]. Jitter is derived deterministically from the Backoff seed.
	Jitter float64
	// Budget caps the cumulative time spent sleeping across one
	// Backoff's lifetime; once the next delay would exceed it, Next
	// reports exhaustion. 0 means no budget.
	Budget time.Duration
}

func (p Policy) withDefaults() Policy {
	if p.Base <= 0 {
		p.Base = 5 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = 320 * time.Millisecond
	}
	if p.Multiplier <= 1 {
		p.Multiplier = 2
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Jitter > 1 {
		p.Jitter = 1
	}
	return p
}

// Delay returns the jittered delay preceding retry `attempt` (0-based:
// attempt 0 is the wait between the first failure and the first retry).
// It is pure — same policy, attempt, and seed give the same duration —
// so callers may consult delays out of order.
func (p Policy) Delay(attempt int, seed uint64) time.Duration {
	p = p.withDefaults()
	d := float64(p.Base)
	for i := 0; i < attempt; i++ {
		d *= p.Multiplier
		if d >= float64(p.Max) {
			d = float64(p.Max)
			break
		}
	}
	if d > float64(p.Max) {
		d = float64(p.Max)
	}
	if p.Jitter > 0 {
		// mix64 of (seed, attempt) → uniform in [0,1); spread the delay
		// over [1-j, 1+j) around its nominal value.
		u := float64(mix64(seed^(uint64(attempt)+1)*0x9e3779b97f4a7c15)>>11) / float64(1<<53)
		d *= 1 - p.Jitter + 2*p.Jitter*u
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// Backoff walks one retry loop's delay sequence while enforcing the
// policy's attempt and budget caps. Not safe for concurrent use.
type Backoff struct {
	p       Policy
	seed    uint64
	attempt int
	spent   time.Duration
}

// Start begins a backoff walk. seed feeds the deterministic jitter; use
// a stable per-task identity (a cell seed, a shard index) so the
// sequence is reproducible.
func (p Policy) Start(seed uint64) *Backoff {
	return &Backoff{p: p.withDefaults(), seed: seed}
}

// Next returns the delay to wait before the next retry, or ok=false when
// the policy's attempt count or sleep budget is exhausted.
func (b *Backoff) Next() (d time.Duration, ok bool) {
	// Attempts counts tries, so a policy of N attempts yields N-1 delays.
	if b.p.Attempts > 0 && b.attempt >= b.p.Attempts-1 {
		return 0, false
	}
	d = b.p.Delay(b.attempt, b.seed)
	if b.p.Budget > 0 && b.spent+d > b.p.Budget {
		return 0, false
	}
	b.attempt++
	b.spent += d
	return d, true
}

// Sleep advances the walk and blocks for the delay, returning early with
// ctx.Err() on cancellation. ok=false means the schedule is exhausted
// and the caller should give up (no sleeping happened).
func (b *Backoff) Sleep(ctx context.Context) (ok bool, err error) {
	d, ok := b.Next()
	if !ok {
		return false, nil
	}
	return true, Sleep(ctx, d)
}

// Sleep blocks for d or until ctx is done, whichever comes first,
// returning ctx.Err() in the latter case. A non-positive d returns
// immediately (after a ctx check) without arming a timer.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// mix64 is the SplitMix64 finalizer (the same mixer engine.CellSeed
// uses): bijective and avalanching, so consecutive attempt numbers give
// statistically independent jitter draws.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
