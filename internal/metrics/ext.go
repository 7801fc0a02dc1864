package metrics

// Extension metrics beyond the paper's eight axioms, following its §6 call
// to "propose and investigate other metrics" (with pointers to RFC 5166's
// catalogue of congestion-control evaluation criteria): convergence time,
// throughput smoothness, and responsiveness to capacity changes. Each is
// parameterized like the §3 axioms so protocols remain comparable points
// in an (extended) metric space.

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/fluid"
	"repro/internal/protocol"
	"repro/internal/stats"
)

// ConvergenceTime estimates how quickly the protocol reaches its long-run
// operating region: the smallest step T such that, for every sender i and
// every t ≥ T, the window stays within a (1±band) envelope of the sender's
// tail mean. It runs the most adversarial default initial configuration
// (maximal skew) and returns the worst case across configurations, in RTT
// steps. A return of -1 means some sender never settles within the
// horizon. Lower is better. band must be in (0, 1).
func ConvergenceTime(cfg fluid.Config, p protocol.Protocol, n int, band float64, opt Options) (int, error) {
	if band <= 0 || band >= 1 {
		return 0, fmt.Errorf("metrics: band must be in (0,1), got %v", band)
	}
	settle, _, err := extWorst(cfg, p, n, band, opt.withDefaults())
	return settle, err
}

// convergenceStep finds the earliest step from which every sender's window
// stays inside (1±band) of its tail mean forever (within the trace).
func convergenceStep(window func(int) []float64, senders, length int, band, tailFrac float64) int {
	worst := 0
	for i := 0; i < senders; i++ {
		w := window(i)
		star := stats.Mean(stats.Tail(w, tailFrac))
		if star <= 0 {
			return -1
		}
		lo, hi := star*(1-band), star*(1+band)
		// Scan backwards for the last violation.
		last := -1
		for t := length - 1; t >= 0; t-- {
			if w[t] < lo || w[t] > hi {
				last = t
				break
			}
		}
		if last == length-1 {
			return -1 // still violating at the end
		}
		if last+1 > worst {
			worst = last + 1
		}
	}
	return worst
}

// Smoothness measures the largest relative single-step window reduction a
// sender inflicts on itself in steady state (RFC 5166's smoothness
// criterion): 0.5 for Reno's halving, 0.2 for CUBIC(·, 0.8), near 0 for
// protocols that only ever decrease gently. Lower is smoother.
func Smoothness(cfg fluid.Config, p protocol.Protocol, n int, opt Options) (float64, error) {
	_, smooth, err := extWorst(cfg, p, n, extBand, opt.withDefaults())
	return smooth, err
}

// extBand is the settle band CharacterizeExt measures ConvergenceTime at.
// Smoothness resolves its runs at the same band, so the two share one
// cached summary per start.
const extBand = 0.25

// extSummary is all the extension metrics read from one recorded run:
// the settle step at a band (convergenceStep; -1 = never settled) and
// the largest relative single-step window drop over the tail.
type extSummary struct {
	settle int
	smooth float64
}

// extWorst resolves the extSummary of n p-senders started from each
// initial configuration of o through o.Session, simulating the missing
// runs one after another, and folds them: the latest settle step at
// band (-1 when any run never settles) and the largest tail drop. Each
// key carries the band and the tail fraction the summary was taken at.
func extWorst(cfg fluid.Config, p protocol.Protocol, n int, band float64, o Options) (settle int, smooth float64, err error) {
	protos, err := homogeneous(p, n)
	if err != nil {
		return 0, 0, err
	}
	inits := o.initConfigs(cfg.Capacity(), n)
	keys := make([]string, len(inits))
	cacheable := make([]bool, len(inits))
	for i, init := range inits {
		keys[i], cacheable[i] = runKey(cfg, protos, init, o, keyExt)
		keys[i] += "band=" + strconv.FormatUint(math.Float64bits(band), 16)
	}
	sums, _, err := resolve(o.Session, keys, cacheable, o.Steps, o.Workers, extCodec, func(miss []int) ([]extSummary, error) {
		out := make([]extSummary, len(miss))
		for j, i := range miss {
			tr, err := simulateRecorded(cfg, p, n, inits[i], o)
			if err != nil {
				return nil, err
			}
			s := &out[j]
			s.settle = convergenceStep(tr.Window, tr.Senders(), tr.Len(), band, o.TailFrac)
			for f := 0; f < tr.Senders(); f++ {
				w := stats.Tail(tr.Window(f), o.TailFrac)
				for t := 0; t+1 < len(w); t++ {
					if w[t] <= 0 {
						continue
					}
					if drop := (w[t] - w[t+1]) / w[t]; drop > s.smooth {
						s.smooth = drop
					}
				}
			}
		}
		return out, nil
	})
	if err != nil {
		return 0, 0, err
	}
	for _, s := range sums {
		if s.settle < 0 || settle < 0 {
			settle = -1
		} else {
			settle = max(settle, s.settle)
		}
	}
	return settle, worstCase(sums, -1, func(s extSummary) float64 { return s.smooth }), nil
}

// Responsiveness measures adaptation to a capacity *increase*: the link's
// bandwidth doubles halfway through the run (spare capacity appears), and
// the score is the number of steps after the jump until the aggregate
// window first reaches utilization frac of the new capacity. Fast-
// utilizing protocols score low; a protocol that stalls scores -1. frac
// must be in (0, 1].
func Responsiveness(cfg fluid.Config, p protocol.Protocol, n int, frac float64, opt Options) (int, error) {
	if frac <= 0 || frac > 1 {
		return 0, fmt.Errorf("metrics: frac must be in (0,1], got %v", frac)
	}
	if cfg.Infinite {
		return 0, fmt.Errorf("metrics: responsiveness needs a finite link")
	}
	o := opt.withDefaults()
	jump := o.Steps / 2
	base := cfg.Bandwidth
	sched := cfg
	sched.BandwidthSchedule = func(step int) float64 {
		if step >= jump {
			return 2 * base
		}
		return base
	}
	// The schedule is a closure with no canonical identity, so the run is
	// never cached and counts as Uncacheable.
	return resolveOne(o.Session, "", false, o.Steps, runCodec[int]{}, func() (int, error) {
		tr, err := simulateRecorded(sched, p, n, nil, o)
		if err != nil {
			return 0, err
		}
		target := frac * 2 * base * 2 * cfg.PropDelay // frac of the new C
		for t := jump; t < tr.Len(); t++ {
			if tr.Total()[t] >= target {
				return t - jump, nil
			}
		}
		return -1, nil
	})
}

// ExtScores bundles the extension metrics alongside the standard 8-tuple.
type ExtScores struct {
	ConvergenceTime int     // steps; -1 = never settled
	Smoothness      float64 // worst relative self-inflicted drop
	Responsiveness  int     // steps to claim doubled capacity; -1 = never
}

// CharacterizeExt measures the extension metrics for p with n senders.
// Convergence uses a ±25% band; responsiveness targets 80% of the doubled
// capacity.
//
// ConvergenceTime and Smoothness fold from one pass of per-start ext
// summaries. Like Characterize, the call resolves through opt.Session
// (installing a private one unless opt.NoCache is set).
// Responsiveness attaches a bandwidth-schedule closure and is therefore
// uncacheable by design. Scores are bit-identical with caching on or off.
func CharacterizeExt(cfg fluid.Config, p protocol.Protocol, n int, opt Options) (ExtScores, error) {
	opt = opt.WithSession()
	var out ExtScores
	var err error
	if out.ConvergenceTime, out.Smoothness, err = extWorst(cfg, p, n, extBand, opt.withDefaults()); err != nil {
		return ExtScores{}, err
	}
	if out.Responsiveness, err = Responsiveness(cfg, p, n, 0.8, opt); err != nil {
		return ExtScores{}, err
	}
	return out, nil
}

// String renders the extension tuple.
func (s ExtScores) String() string {
	return fmt.Sprintf("convtime=%d smooth=%.3f responsive=%d",
		s.ConvergenceTime, s.Smoothness, s.Responsiveness)
}
