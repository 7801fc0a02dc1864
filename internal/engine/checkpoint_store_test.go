package engine

import (
	"context"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/runstore"
)

// TestCheckpointExternalizesToStore pins the cell key format against the
// real run store: every completed cell of a keyed sweep lands under
// sweepcell|Key|seed=CellSeed, and a rerun resolves those entries back
// to bit-identical cells without re-executing anything.
func TestCheckpointExternalizesToStore(t *testing.T) {
	st, err := runstore.Open(t.TempDir(), runstore.Options{Version: "testver"})
	if err != nil {
		t.Fatal(err)
	}
	useCellStore(t, st)

	const n = 9
	cell := func(_ context.Context, i int, seed uint64) (float64, error) {
		return checkpointCellValue(i, seed), nil
	}
	clean, err := Sweep(context.Background(), n, SweepConfig{Workers: 2, BaseSeed: 11}, cell)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Sweep(context.Background(), n, SweepConfig{Workers: 2, BaseSeed: 11, Key: "ext"}, cell); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		key := "sweepcell|ext|seed=" + strconv.FormatUint(CellSeed(11, i), 16)
		if _, ok := st.Get(key); !ok {
			t.Fatalf("cell %d not in the store under %q", i, key)
		}
	}

	var executed atomic.Int64
	resumed, err := Sweep(context.Background(), n, SweepConfig{Workers: 2, BaseSeed: 11, Key: "ext"},
		func(ctx context.Context, i int, seed uint64) (float64, error) {
			executed.Add(1)
			return cell(ctx, i, seed)
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := executed.Load(); got != 0 {
		t.Fatalf("rerun re-executed %d cells, want 0", got)
	}
	for i := range clean {
		if resumed[i] != clean[i] {
			t.Fatalf("cell %d: resumed %v != clean %v", i, resumed[i], clean[i])
		}
	}
}

// TestCheckpointStoreMissRecomputes: cells that no longer resolve (store
// cleared — same effect as eviction or a source-hash change) degrade to
// a cold cell, never an error or a wrong value.
func TestCheckpointStoreMissRecomputes(t *testing.T) {
	st, err := runstore.Open(t.TempDir(), runstore.Options{Version: "testver"})
	if err != nil {
		t.Fatal(err)
	}
	useCellStore(t, st)

	const n = 6
	cell := func(_ context.Context, i int, seed uint64) (float64, error) {
		return checkpointCellValue(i, seed), nil
	}
	clean, err := Sweep(context.Background(), n, SweepConfig{Workers: 1, BaseSeed: 5, Key: "miss"}, cell)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Clear(); err != nil {
		t.Fatal(err)
	}
	var executed atomic.Int64
	resumed, err := Sweep(context.Background(), n, SweepConfig{Workers: 1, BaseSeed: 5, Key: "miss"},
		func(ctx context.Context, i int, seed uint64) (float64, error) {
			executed.Add(1)
			return cell(ctx, i, seed)
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := executed.Load(); got != n {
		t.Fatalf("rerun over a cleared store executed %d cells, want all %d", got, n)
	}
	for i := range clean {
		if resumed[i] != clean[i] {
			t.Fatalf("cell %d: recomputed %v != clean %v", i, resumed[i], clean[i])
		}
	}
}
