// Package stats provides the small statistical toolkit used by the metric
// estimators and experiment harness: moments, extrema, quantiles, Jain's
// fairness index, linear regression, and tail-window summaries over time
// series produced by the simulators.
package stats

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// ErrEmpty is returned (or causes NaN) when a statistic of an empty series
// is requested.
var ErrEmpty = errors.New("stats: empty series")

// Mean returns the arithmetic mean of xs, or NaN if xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Min returns the minimum of xs, or +Inf if xs is empty.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or -Inf if xs is empty.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Quantile returns the q-quantile (q in [0,1]) of xs using linear
// interpolation between order statistics. It returns NaN for empty input
// and panics if q is outside [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if q < 0 || q > 1 {
		panic("stats: quantile out of [0,1]")
	}
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// JainIndex returns Jain's fairness index of the allocations xs:
//
//	J = (Σx)² / (n · Σx²)
//
// J is 1 for a perfectly equal allocation and 1/n when a single member
// receives everything. It returns NaN for empty input and 1 when all
// allocations are zero (an all-zero allocation is trivially equal).
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// MinOverMax returns min(xs)/max(xs), the worst-case pairwise ratio used by
// the paper's fairness and friendliness metrics. It returns 1 when all
// values are zero and NaN for empty input.
func MinOverMax(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	mn, mx := Min(xs), Max(xs)
	if mx == 0 {
		return 1
	}
	return mn / mx
}

// Tail returns the suffix of xs that starts at fraction f of its length
// (f in [0,1]). Tail(xs, 0.75) is the last quarter of the series — the
// "from some time T onwards" window used throughout the axiom estimators.
func Tail(xs []float64, f float64) []float64 {
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	start := int(f * float64(len(xs)))
	if start >= len(xs) {
		start = len(xs) - 1
	}
	if start < 0 {
		start = 0
	}
	if len(xs) == 0 {
		return xs
	}
	return xs[start:]
}

// LinearFit returns the slope and intercept of the least-squares line
// through (i, xs[i]). It returns NaN slope for fewer than two points.
func LinearFit(xs []float64) (slope, intercept float64) {
	n := float64(len(xs))
	if len(xs) < 2 {
		return math.NaN(), math.NaN()
	}
	var sumX, sumY, sumXY, sumXX float64
	for i, y := range xs {
		x := float64(i)
		sumX += x
		sumY += y
		sumXY += x * y
		sumXX += x * x
	}
	den := n*sumXX - sumX*sumX
	if den == 0 {
		return math.NaN(), math.NaN()
	}
	slope = (n*sumXY - sumX*sumY) / den
	intercept = (sumY - slope*sumX) / n
	return slope, intercept
}

// Containment returns the Metric-V-style convergence score of xs with the
// extremes trimmed to the [qlo, qhi] quantile band: with x* = mean(xs),
//
//	α = max(0, min( Q(qlo)/x*, 2 − Q(qhi)/x* ))
//
// Using quantiles instead of min/max makes the score robust to rare
// excursions, which matters when scoring noisy packet-level traces; with
// qlo = 0 and qhi = 1 it reduces to the strict containment of Metric V.
// It returns NaN for empty input and 0 when the mean is non-positive.
func Containment(xs []float64, qlo, qhi float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	if m <= 0 {
		return 0
	}
	lo := Quantile(xs, qlo) / m
	hi := Quantile(xs, qhi) / m
	a := math.Min(lo, 2-hi)
	return math.Max(a, 0)
}

// Ring is a fixed-capacity keep-last buffer of float64 samples. Streaming
// observers use it to retain exactly the tail of a series whose total
// length is only approximately known up front: push every sample, then
// extract the last k. Pushing to a zero-capacity ring only counts.
//
// Skip accounts for samples that were never delivered: they count, and
// they take ring slots, but they hold no data. The ring tracks how many
// of its most recent samples are genuine, so a tail that would reach a
// skipped or evicted sample is detected instead of returned.
type Ring struct {
	buf   []float64
	next  int // write position
	count int // total samples pushed or skipped
	valid int // most recent samples genuinely pushed and still retained
}

// NewRing returns a ring retaining the last capacity samples.
func NewRing(capacity int) *Ring {
	if capacity < 0 {
		capacity = 0
	}
	return &Ring{buf: make([]float64, capacity)}
}

// Cap returns the number of samples the ring retains.
func (r *Ring) Cap() int { return len(r.buf) }

// Push appends one sample, evicting the oldest retained sample when full.
func (r *Ring) Push(v float64) {
	if len(r.buf) > 0 {
		r.buf[r.next] = v
		r.next++
		if r.next == len(r.buf) {
			r.next = 0
		}
		if r.valid < len(r.buf) {
			r.valid++
		}
	}
	r.count++
}

// PushSlice appends vals in order. The resulting ring state — retained
// samples, write position, and count — is exactly what len(vals)
// sequential Push calls would leave, but whole segments are copied at
// once: values that could not survive anyway (all but the last capacity)
// are skipped, and the survivors land in at most two copy calls.
func (r *Ring) PushSlice(vals []float64) {
	n := len(r.buf)
	r.count += len(vals)
	if n == 0 || len(vals) == 0 {
		return
	}
	r.valid = min(r.valid+len(vals), n)
	v := vals
	if len(v) > n {
		// Sequential pushes would overwrite all but the last n values;
		// advance the write position past the doomed prefix and keep the
		// survivors.
		r.next = (r.next + len(v) - n) % n
		v = v[len(v)-n:]
	}
	m := copy(r.buf[r.next:], v)
	if m < len(v) {
		copy(r.buf, v[m:])
	}
	r.next = (r.next + len(v)) % n
}

// Skip accounts for n samples that are never delivered: Count and the
// write position advance exactly as n pushes would move them, but no slot
// is written. Once at least Cap genuine samples follow, the ring is in
// the same state as if the skipped samples had been pushed, because those
// pushes would have been overwritten by then. Skip with n <= 0 does
// nothing.
func (r *Ring) Skip(n int) {
	if n <= 0 {
		return
	}
	r.count += n
	if len(r.buf) > 0 {
		r.next = (r.next + n) % len(r.buf)
	}
	r.valid = 0
}

// Count returns the total number of samples pushed or skipped.
func (r *Ring) Count() int { return r.count }

// appendLast appends the most recent k samples, in push order, to dst.
// k must not exceed r.valid.
func (r *Ring) appendLast(dst []float64, k int) []float64 {
	if k <= 0 {
		return dst
	}
	dst = slices.Grow(dst, k)
	start := r.next - k
	if start < 0 {
		dst = append(dst, r.buf[start+len(r.buf):]...)
		start = 0
	}
	return append(dst, r.buf[start:r.next]...)
}

// TailLen returns the length of the f-tail of a series with n samples,
// mirroring Tail's start index int(f·n) (clamped to keep one sample).
func TailLen(n int, f float64) int {
	if n == 0 {
		return 0
	}
	start := int(f * float64(n))
	if start >= n {
		start = n - 1
	}
	if start < 0 {
		start = 0
	}
	return n - start
}

// LastTail returns the f-tail of the pushed series, identical to
// Tail(series, f). It panics when the tail reaches past the oldest
// genuine sample the ring still retains — a ring too small for the
// series, or a tail that covers skipped samples — rather than return a
// short or unwritten tail.
func (r *Ring) LastTail(f float64) []float64 { return r.AppendTail(nil, f) }

// AppendTail appends LastTail(f) to dst, so a caller scanning several
// tails one at a time can reuse one buffer. It panics as LastTail does.
func (r *Ring) AppendTail(dst []float64, f float64) []float64 {
	k := TailLen(r.count, f)
	if k > r.valid {
		panic(fmt.Sprintf("stats: a %d-sample tail of a %d-sample series reaches past the ring, which retains only the last %d genuine samples (capacity %d)",
			k, r.count, r.valid, len(r.buf)))
	}
	return r.appendLast(dst, k)
}
