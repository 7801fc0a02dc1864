package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPct returns the highest candidate percentile that leaves at least
// ten of n samples beyond it. Runs take at least a fixed number of
// samples and pass that number here, so every run of a workload reports
// the same percentile.
func tailPct(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 50
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// digest accumulates float64 results as IEEE-754 bit patterns, so two
// digests agree only when every score is bit-identical.
type digest struct{ buf []byte }

func (d *digest) add(vs ...float64) {
	for _, v := range vs {
		d.buf = fmt.Appendf(d.buf, "%016x,", math.Float64bits(v))
	}
}

func (d *digest) addString(s string) { d.buf = append(d.buf, s...) }

func (d *digest) sum() string {
	h := sha256.Sum256(d.buf)
	return hex.EncodeToString(h[:8])
}
