package engine

import (
	"context"
	"errors"
	"testing"

	"repro/internal/obs"
)

// stubSubstrate is a no-op substrate for isolating the engine wrapper's
// own cost and behavior from any simulator.
type stubSubstrate struct {
	res *Result
	err error
}

func (s *stubSubstrate) Meta() Meta { return Meta{Flows: 1, Horizon: 1} }
func (s *stubSubstrate) run(context.Context, Spec) (*Result, error) {
	if s.err != nil {
		return nil, s.err
	}
	return s.res, nil
}

// TestRunDisabledAllocFree pins the obs-gate contract on the run path:
// with obs disabled, engine.Run adds zero allocations on top of the
// substrate (the substrate here is a no-op, so the wrapper is all that
// is measured). CI runs this under -race.
func TestRunDisabledAllocFree(t *testing.T) {
	obs.Disable()
	ctx := context.Background()
	spec := Spec{Substrate: &stubSubstrate{res: &Result{Steps: 1}}}
	if avg := testing.AllocsPerRun(1000, func() {
		if _, err := Run(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("Run allocates %.2f times per call with obs disabled, want 0", avg)
	}
}

func TestRunInstrumentedEmitsSpanAndCounters(t *testing.T) {
	obs.Enable()
	defer func() { obs.Disable(); obs.Reset(); obs.ResetFlight() }()
	obs.Reset()
	obs.ResetFlight()

	spec := Spec{Substrate: &stubSubstrate{res: &Result{Steps: 5}}}
	if _, err := Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	// The stub is neither fluid, packet, nor net, so it lands in "other".
	if got := runTelByKind[kOther].runs.Value(); got != 1 {
		t.Fatalf("engine.runs.other = %d, want 1", got)
	}
	if got := runTelByKind[kOther].steps.Value(); got != 5 {
		t.Fatalf("engine.steps.other = %d, want 5", got)
	}
	if got := obs.GetHistogram("span.engine.run.other").Count(); got != 1 {
		t.Fatalf("span.engine.run.other count = %d, want 1", got)
	}

	spec = Spec{Substrate: &stubSubstrate{err: errors.New("boom")}}
	if _, err := Run(context.Background(), spec); err == nil {
		t.Fatal("expected error from failing substrate")
	}
	if got := runTelByKind[kOther].failed.Value(); got != 1 {
		t.Fatalf("engine.runs.failed.other = %d, want 1", got)
	}
}

func TestSweepInstrumentedEmitsCellSpansAndProgress(t *testing.T) {
	obs.Enable()
	defer func() { obs.Disable(); obs.Reset(); obs.ResetFlight() }()
	obs.Reset()
	obs.ResetFlight()
	obs.ReportProgress(0, 0)

	const n = 6
	_, err := Sweep(context.Background(), n, SweepConfig{Workers: 2}, func(ctx context.Context, i int, seed uint64) (int, error) {
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := obs.GetHistogram("span.engine.sweep").Count(); got != 1 {
		t.Fatalf("span.engine.sweep count = %d, want 1", got)
	}
	if got := obs.GetHistogram("span.engine.sweep.cell").Count(); got != n {
		t.Fatalf("span.engine.sweep.cell count = %d, want %d", got, n)
	}
	if p := obs.ProgressState(); p.Done != n || p.Total != n {
		t.Fatalf("ProgressState = %+v, want %d/%d", p, n, n)
	}
}
