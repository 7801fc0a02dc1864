package parallel

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestMapOrderPreserved(t *testing.T) {
	out, err := MapCtx(context.Background(), 100, 8, func(_ context.Context, i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestMapSerialFallback(t *testing.T) {
	out, err := MapCtx(context.Background(), 5, 1, func(_ context.Context, i int) (string, error) { return fmt.Sprint(i), nil })
	if err != nil {
		t.Fatal(err)
	}
	if out[3] != "3" {
		t.Fatalf("out = %v", out)
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := MapCtx(context.Background(), 0, 4, func(_ context.Context, i int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

func TestMapNegative(t *testing.T) {
	if _, err := MapCtx(context.Background(), -1, 4, func(_ context.Context, i int) (int, error) { return 0, nil }); err == nil {
		t.Fatal("negative n accepted")
	}
}

// TestMapErrorFailsFast: after the first item error is recorded, no
// further item is claimed, and that error, not a sibling's resulting
// cancellation, is returned. The test assumes nothing about scheduling:
// every other item blocks until its context is canceled, which the pool
// does only once it has recorded item 3's error, then fails with the
// context error. So the four workers claim exactly items 0–3, and any
// call that starts with its context already canceled is a claim made
// after the failure.
func TestMapErrorFailsFast(t *testing.T) {
	boom := errors.New("boom")
	var calls, late atomic.Int64
	_, err := MapCtx(context.Background(), 1000, 4, func(ctx context.Context, i int) (int, error) {
		calls.Add(1)
		if ctx.Err() != nil {
			late.Add(1)
		}
		if i == 3 {
			return 0, boom
		}
		<-ctx.Done()
		return i, ctx.Err()
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n := late.Load(); n != 0 {
		t.Fatalf("%d items claimed after the failure was recorded", n)
	}
	if n := calls.Load(); n != 4 {
		t.Fatalf("%d calls, want exactly the 4 claimed before the failure", n)
	}
}

// A worker panic becomes a per-item PanicError instead of crashing the
// process, and the other items' results are unaffected.
func TestMapCtxPanicRecovered(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := MapCtx(context.Background(), 8, workers, func(_ context.Context, i int) (int, error) {
			if i == 2 {
				panic("item 2 exploded")
			}
			return i, nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want a *PanicError", workers, err)
		}
		if pe.Item != 2 {
			t.Fatalf("workers=%d: panicked item = %d, want 2", workers, pe.Item)
		}
		if !strings.Contains(pe.Error(), "item 2 exploded") || len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: panic error lacks value or stack: %v", workers, pe)
		}
	}
}

func TestMapDefaultWorkers(t *testing.T) {
	out, err := MapCtx(context.Background(), 10, 0, func(_ context.Context, i int) (int, error) { return i, nil })
	if err != nil || len(out) != 10 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

// Property: MapCtx(n, w, identity) is the identity for any worker count.
func TestQuickMapIdentity(t *testing.T) {
	f := func(nRaw, wRaw uint8) bool {
		n := int(nRaw % 64)
		w := int(wRaw % 9)
		out, err := MapCtx(context.Background(), n, w, func(_ context.Context, i int) (int, error) { return i, nil })
		if err != nil || len(out) != n {
			return false
		}
		for i, v := range out {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMapCtxCancelStopsClaiming: item 4 cancels, and every later item
// returns only once that cancel call has returned, so whatever the
// scheduling, the other three workers can have claimed at most items
// 5-7 before it: any further call was claimed after the cancellation.
func TestMapCtxCancelStopsClaiming(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	canceled := make(chan struct{})
	var calls atomic.Int64
	_, err := MapCtx(ctx, 1000, 4, func(_ context.Context, i int) (int, error) {
		calls.Add(1)
		switch {
		case i == 4:
			cancel()
			close(canceled)
		case i > 4:
			<-canceled
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := calls.Load(); n > 8 {
		t.Fatalf("%d calls, want at most 8 (items 0-7): items were claimed after cancellation", n)
	}
}

func TestMapCtxSerialCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls int
	_, err := MapCtx(ctx, 100, 1, func(ctx context.Context, i int) (int, error) {
		calls++
		if i == 3 {
			cancel()
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 4 {
		t.Fatalf("%d calls after serial cancel, want 4", calls)
	}
}

func TestMapCtxErrorBeatsCancellation(t *testing.T) {
	boom := errors.New("boom")
	_, err := MapCtx(context.Background(), 50, 4, func(ctx context.Context, i int) (int, error) {
		if i == 2 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

func TestMapCtxCompletesWithoutCancel(t *testing.T) {
	out, err := MapCtx(context.Background(), 20, 3, func(ctx context.Context, i int) (int, error) {
		return i * 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*2 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}
