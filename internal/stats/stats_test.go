package stats

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func near(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// retained returns the most recent k samples in push order, clamped to the
// genuine samples r still retains.
func retained(r *Ring, k int) []float64 { return r.appendLast(nil, min(k, r.valid)) }

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{1, 2, 3}, 2},
		{[]float64{5}, 5},
		{[]float64{-1, 1}, 0},
		{[]float64{0, 0, 0, 0}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !near(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	if Min(xs) != -1 {
		t.Errorf("Min = %v", Min(xs))
	}
	if Max(xs) != 5 {
		t.Errorf("Max = %v", Max(xs))
	}
	if Sum(xs) != 12 {
		t.Errorf("Sum = %v", Sum(xs))
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("empty Min/Max should be +Inf/-Inf")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !near(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Interpolation between order statistics.
	if got := Quantile([]float64{0, 10}, 0.3); !near(got, 3, 1e-12) {
		t.Errorf("interpolated quantile = %v, want 3", got)
	}
	if got := Quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single-element quantile = %v, want 7", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile(nil) should be NaN")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Quantile mutated its input: %v", xs)
	}
}

func TestQuantilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile(q=2) did not panic")
		}
	}()
	Quantile([]float64{1}, 2)
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{1, 1, 1, 1}); !near(got, 1, 1e-12) {
		t.Errorf("equal allocation Jain = %v, want 1", got)
	}
	// One of n gets everything: J = 1/n.
	if got := JainIndex([]float64{10, 0, 0, 0}); !near(got, 0.25, 1e-12) {
		t.Errorf("single-winner Jain = %v, want 0.25", got)
	}
	if got := JainIndex([]float64{0, 0}); got != 1 {
		t.Errorf("all-zero Jain = %v, want 1", got)
	}
	if !math.IsNaN(JainIndex(nil)) {
		t.Error("JainIndex(nil) should be NaN")
	}
}

func TestMinOverMax(t *testing.T) {
	if got := MinOverMax([]float64{2, 4}); !near(got, 0.5, 1e-12) {
		t.Errorf("MinOverMax = %v, want 0.5", got)
	}
	if got := MinOverMax([]float64{0, 0}); got != 1 {
		t.Errorf("all-zero MinOverMax = %v, want 1", got)
	}
}

func TestTail(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	if got := Tail(xs, 0.5); len(got) != 4 || got[0] != 4 {
		t.Errorf("Tail(0.5) = %v", got)
	}
	if got := Tail(xs, 0); len(got) != 8 {
		t.Errorf("Tail(0) = %v", got)
	}
	// f=1 still returns at least the last element.
	if got := Tail(xs, 1); len(got) != 1 || got[0] != 7 {
		t.Errorf("Tail(1) = %v", got)
	}
	// Out-of-range f is clamped.
	if got := Tail(xs, 2); len(got) != 1 {
		t.Errorf("Tail(2) = %v", got)
	}
	if got := Tail(nil, 0.5); len(got) != 0 {
		t.Errorf("Tail(nil) = %v", got)
	}
}

func TestLinearFit(t *testing.T) {
	// y = 3x + 1
	xs := []float64{1, 4, 7, 10, 13}
	slope, intercept := LinearFit(xs)
	if !near(slope, 3, 1e-9) || !near(intercept, 1, 1e-9) {
		t.Errorf("LinearFit = (%v, %v), want (3, 1)", slope, intercept)
	}
	if s, _ := LinearFit([]float64{5}); !math.IsNaN(s) {
		t.Error("LinearFit of 1 point should be NaN")
	}
}

func TestContainment(t *testing.T) {
	// Constant series: perfect containment.
	if got := Containment([]float64{5, 5, 5}, 0, 1); !near(got, 1, 1e-12) {
		t.Errorf("constant containment = %v, want 1", got)
	}
	// 40/60 oscillation around mean 50: strict containment = 0.8.
	osc := []float64{40, 60, 40, 60}
	if got := Containment(osc, 0, 1); !near(got, 0.8, 1e-12) {
		t.Errorf("oscillating containment = %v, want 0.8", got)
	}
	// One extreme outlier among many 50s: trimming restores the score.
	noisy := make([]float64, 100)
	for i := range noisy {
		noisy[i] = 50
	}
	noisy[7] = 0
	strict := Containment(noisy, 0, 1)
	trimmed := Containment(noisy, 0.05, 0.95)
	if strict != 0 {
		t.Errorf("strict containment with outlier = %v, want 0", strict)
	}
	if trimmed < 0.9 {
		t.Errorf("trimmed containment = %v, want ≈ 1", trimmed)
	}
	if got := Containment([]float64{-1, -1}, 0, 1); got != 0 {
		t.Errorf("non-positive-mean containment = %v, want 0", got)
	}
	if !math.IsNaN(Containment(nil, 0, 1)) {
		t.Error("empty containment should be NaN")
	}
}

// Property: Jain's index is always in [1/n, 1] for non-negative input.
func TestQuickJainBounds(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			// Skip inputs whose squares or sums would overflow float64;
			// the index is only meaningful for finite arithmetic.
			if math.IsNaN(v) || math.Abs(v) > 1e100 {
				return true
			}
			xs[i] = math.Abs(v)
		}
		j := JainIndex(xs)
		n := float64(len(xs))
		return j >= 1/n-1e-9 && j <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Mean is between Min and Max.
func TestQuickMeanBetweenMinMax(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				continue
			}
			xs = append(xs, v)
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		return m >= Min(xs)-1e-6 && m <= Max(xs)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: quantile is monotone in q.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			xs = append(xs, v)
		}
		if len(xs) == 0 {
			return true
		}
		a := math.Abs(math.Mod(q1, 1))
		b := math.Abs(math.Mod(q2, 1))
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return Quantile(xs, a) <= Quantile(xs, b)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: PushSlice leaves the ring in exactly the state the same
// values pushed one at a time would — retained tail, write position, and
// count — for every capacity/chunking combination.
func TestRingPushSliceMatchesPush(t *testing.T) {
	f := func(capRaw uint8, chunks [][]float64) bool {
		capacity := int(capRaw % 37)
		bulk, ref := NewRing(capacity), NewRing(capacity)
		for _, chunk := range chunks {
			bulk.PushSlice(chunk)
			for _, v := range chunk {
				ref.Push(v)
			}
			if bulk.Count() != ref.Count() {
				return false
			}
			got, want := retained(bulk, capacity), retained(ref, capacity)
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The boundary cases quick.Check may not hit: chunks exactly at, one
// below, and far beyond capacity, landing on a wrapped write position.
func TestRingPushSliceBoundaries(t *testing.T) {
	for _, capacity := range []int{0, 1, 4, 7} {
		for _, sizes := range [][]int{{4}, {3, 4}, {7}, {8}, {15}, {1, 7, 2}, {6, 9}} {
			bulk, ref := NewRing(capacity), NewRing(capacity)
			v := 0.0
			for _, sz := range sizes {
				chunk := make([]float64, sz)
				for i := range chunk {
					v++
					chunk[i] = v
				}
				bulk.PushSlice(chunk)
				for _, x := range chunk {
					ref.Push(x)
				}
			}
			got, want := retained(bulk, capacity), retained(ref, capacity)
			if len(got) != len(want) {
				t.Fatalf("cap %d sizes %v: retained %d vs %d", capacity, sizes, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("cap %d sizes %v: tail %v vs %v", capacity, sizes, got, want)
				}
			}
			if bulk.Count() != ref.Count() {
				t.Fatalf("cap %d sizes %v: count %d vs %d", capacity, sizes, bulk.Count(), ref.Count())
			}
		}
	}
}

// tailOf returns r.LastTail(f), or ok false when LastTail panics.
func tailOf(r *Ring, f float64) (tail []float64, ok bool) {
	defer func() {
		if recover() != nil {
			tail, ok = nil, false
		}
	}()
	return r.LastTail(f), true
}

// ringSkipMismatch replays ops on a ring that skips and on a reference
// ring that pushes instead, then pushes capacity+extra real samples to
// both and describes the first difference in Count, write position or
// any tail, or returns "". Each op byte is a Push (b%3 == 0), a
// PushSlice of b/3 samples (b%3 == 1) or a Skip of b/3 samples
// (b%3 == 2); the reference pushes those skipped samples with values
// that never appear otherwise.
func ringSkipMismatch(capacity, extra int, ops []byte) string {
	r, ref := NewRing(capacity), NewRing(capacity)
	v := 0.0
	next := func() float64 { v++; return v }
	for _, b := range ops {
		n := int(b / 3)
		switch b % 3 {
		case 0:
			x := next()
			r.Push(x)
			ref.Push(x)
		case 1:
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = next()
			}
			r.PushSlice(vals)
			for _, x := range vals {
				ref.Push(x)
			}
		case 2:
			r.Skip(n)
			for i := 0; i < n; i++ {
				ref.Push(-next())
			}
		}
	}
	for i := 0; i < capacity+extra; i++ {
		x := next()
		r.Push(x)
		ref.Push(x)
	}
	if r.Count() != ref.Count() {
		return fmt.Sprintf("count %d, want %d", r.Count(), ref.Count())
	}
	if r.next != ref.next {
		return fmt.Sprintf("write position %d, want %d", r.next, ref.next)
	}
	if got, want := retained(r, capacity), retained(ref, capacity); !slices.Equal(got, want) {
		return fmt.Sprintf("retained(%d) %v, want %v", capacity, got, want)
	}
	for _, f := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		got, gotOK := tailOf(r, f)
		want, wantOK := tailOf(ref, f)
		if gotOK != wantOK || !slices.Equal(got, want) {
			return fmt.Sprintf("LastTail(%v) %v (ok %v), want %v (ok %v)", f, got, gotOK, want, wantOK)
		}
	}
	return ""
}

// Property: skipping samples instead of pushing them is invisible once
// a full ring of real samples follows — same Count, write position and
// tails as pushing everything — for any interleaving of Push, PushSlice
// and Skip.
func TestRingSkipMatchesPush(t *testing.T) {
	f := func(capRaw, extraRaw uint8, ops []byte) bool {
		if d := ringSkipMismatch(int(capRaw%37), int(extraRaw%5), ops); d != "" {
			t.Log(d)
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func FuzzRingSkip(f *testing.F) {
	f.Add(uint8(8), uint8(0), []byte{0, 2 + 3*20, 1 + 3*5})
	f.Add(uint8(1), uint8(3), []byte{2 + 3*1, 0, 2 + 3*7})
	f.Add(uint8(0), uint8(1), []byte{1 + 3*4, 2 + 3*9})
	f.Add(uint8(16), uint8(2), []byte{1 + 3*40, 2 + 3*3, 1 + 3*2, 2 + 3*16})
	f.Fuzz(func(t *testing.T, capRaw, extraRaw uint8, ops []byte) {
		if d := ringSkipMismatch(int(capRaw%65), int(extraRaw%9), ops); d != "" {
			t.Fatal(d)
		}
	})
}

// TestRingTailGuard pins the ring's refusal to return a tail it does not
// hold: a tail longer than the ring, or one that reaches a skipped
// sample, panics, while the genuine samples retained stay readable.
func TestRingTailGuard(t *testing.T) {
	panics := func(r *Ring, f float64) bool {
		_, ok := tailOf(r, f)
		return !ok
	}
	small := NewRing(4)
	for i := 0; i < 10; i++ {
		small.Push(float64(i))
	}
	if !panics(small, 0.5) { // 5 samples from a 4-slot ring
		t.Fatal("LastTail(0.5) of 10 samples in a 4-slot ring did not panic")
	}
	if got := small.LastTail(0.75); !slices.Equal(got, []float64{7, 8, 9}) {
		t.Fatalf("LastTail(0.75) = %v, want [7 8 9]", got)
	}

	r := NewRing(8)
	r.PushSlice([]float64{1, 2, 3, 4})
	r.Skip(4)
	r.Push(5)
	r.Push(6)
	if r.Count() != 10 {
		t.Fatalf("Count = %d, want 10", r.Count())
	}
	if got := r.LastTail(0.8); !slices.Equal(got, []float64{5, 6}) {
		t.Fatalf("LastTail(0.8) = %v, want [5 6]", got)
	}
	if !panics(r, 0.5) {
		t.Fatal("LastTail(0.5) reaching skipped samples did not panic")
	}
	if got := retained(r, 5); !slices.Equal(got, []float64{5, 6}) {
		t.Fatalf("retained(5) = %v, want the genuine [5 6]", got)
	}
	r.Skip(0)
	r.Skip(-3)
	if r.Count() != 10 || len(retained(r, 8)) != 2 {
		t.Fatalf("Skip(0)/Skip(-3) changed the ring: count %d, %d retained", r.Count(), len(retained(r, 8)))
	}

	zero := NewRing(0)
	zero.Push(1)
	zero.Skip(3)
	if zero.Count() != 4 || !panics(zero, 0.5) {
		t.Fatalf("zero-capacity ring: count %d, want 4 and a panicking tail", zero.Count())
	}
	if got := NewRing(3).LastTail(0.5); len(got) != 0 {
		t.Fatalf("empty ring tail = %v, want empty", got)
	}
}
