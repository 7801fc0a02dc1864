// Package rand64 provides a small, fully deterministic pseudo-random number
// generator used by the simulators for non-congestion loss processes and
// randomized initial configurations.
//
// The generator is an xorshift64* PRNG seeded through a SplitMix64 stage so
// that nearby seeds (0, 1, 2, ...) produce uncorrelated streams. Unlike
// math/rand, the sequence produced for a given seed is guaranteed stable
// across Go releases, which keeps every experiment in this repository
// reproducible bit-for-bit.
package rand64

// Source is a deterministic PRNG. The zero value is NOT valid; use New.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed. Any seed, including 0, is valid.
func New(seed uint64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// Seed resets the generator to the stream identified by seed.
func (s *Source) Seed(seed uint64) {
	// SplitMix64 scramble so that consecutive seeds diverge immediately.
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x853c49e6748fea9b // xorshift state must be non-zero
	}
	s.state = z
}

// Uint64 returns the next value in the stream.
func (s *Source) Uint64() uint64 {
	x := s.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	s.state = x
	return x * 0x2545f4914f6cdd1d
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	// 53 high-quality bits into the mantissa.
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rand64: Intn with non-positive n")
	}
	// Lemire-style bounded generation with rejection to remove modulo bias.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := s.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Bernoulli reports true with probability p (clamped to [0, 1]).
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Range returns a uniform value in [lo, hi). It panics if hi < lo.
func (s *Source) Range(lo, hi float64) float64 {
	if hi < lo {
		panic("rand64: Range with hi < lo")
	}
	return lo + (hi-lo)*s.Float64()
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
