package rand64

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("step %d: streams diverged: %d != %d", i, av, bv)
		}
	}
}

func TestSeedsDiverge(t *testing.T) {
	a := New(0)
	b := New(1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds produced %d identical values out of 100", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	s := New(0)
	if v := s.Uint64(); v == 0 {
		// A single zero output is possible in theory but with SplitMix64
		// scrambling the first value for seed 0 is known non-zero.
		t.Fatal("first output for seed 0 is zero; state scramble broken")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(7)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean of %d uniforms = %v, want ~0.5", n, mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(3)
	for n := 1; n <= 17; n++ {
		for i := 0; i < 1000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	s := New(5)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(trials) / n
	for k, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Fatalf("bucket %d: count %d deviates >10%% from %v", k, c, want)
		}
	}
}

func TestBernoulli(t *testing.T) {
	s := New(9)
	if s.Bernoulli(0) {
		t.Fatal("Bernoulli(0) returned true")
	}
	if !s.Bernoulli(1) {
		t.Fatal("Bernoulli(1) returned false")
	}
	const trials = 100000
	hits := 0
	for i := 0; i < trials; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / trials
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) empirical rate %v", p)
	}
}

func TestRange(t *testing.T) {
	s := New(13)
	for i := 0; i < 1000; i++ {
		v := s.Range(-2, 5)
		if v < -2 || v >= 5 {
			t.Fatalf("Range(-2,5) = %v out of range", v)
		}
	}
}

func TestRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Range(1,0) did not panic")
		}
	}()
	New(1).Range(1, 0)
}

func TestPermIsPermutation(t *testing.T) {
	s := New(17)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestQuickIntnInRange(t *testing.T) {
	s := New(29)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := s.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSeedDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < 8; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
