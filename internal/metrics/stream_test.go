package metrics

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/fluid"
	"repro/internal/packetsim"
	"repro/internal/protocol"
	"repro/internal/rand64"
	"repro/internal/stats"
	"repro/internal/trace"
)

// sameBits asserts that a summary field equals its trace estimator bit
// for bit (NaN payloads included).
func sameBits(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: summary %v vs trace %v", name, got, want)
	}
}

// checkSummaryMatchesTrace compares every field of st.Summary() — and
// the scores derived from it — with the *FromTrace estimators on tr, a
// recording of the same run. pIdx/qIdx split the senders for
// Friendliness.
func checkSummaryMatchesTrace(t *testing.T, st *Stream, tr *trace.Trace, tailFrac float64, pIdx, qIdx []int) {
	t.Helper()
	sum := st.Summary()
	sameBits(t, "efficiency", sum.Efficiency, EfficiencyFromTrace(tr, tailFrac))
	sameBits(t, "loss avoidance", sum.LossAvoidance, LossAvoidanceFromTrace(tr, tailFrac))
	sameBits(t, "fairness", sum.Fairness(), FairnessFromTrace(tr, tailFrac))
	sameBits(t, "convergence", sum.Convergence, ConvergenceFromTrace(tr, tailFrac))
	sameBits(t, "latency avoidance", sum.LatencyAvoidance, LatencyAvoidanceFromTrace(tr, tailFrac))
	sameBits(t, "utilization", sum.Utilization, stats.Mean(stats.Tail(tr.Utilization(), tailFrac)))
	sameBits(t, "mean loss", sum.MeanLoss, stats.Mean(stats.Tail(tr.Loss(), tailFrac)))
	sameBits(t, "mean rtt", sum.MeanRTT, stats.Mean(stats.Tail(tr.RTT(), tailFrac)))
	sameBits(t, "friendliness", sum.Friendliness(pIdx, qIdx), FriendlinessFromTrace(tr, pIdx, qIdx, tailFrac))
	if len(sum.AvgWindows) != tr.Senders() || len(sum.AvgGoodputs) != tr.Senders() {
		t.Fatalf("summary covers %d/%d senders, trace %d", len(sum.AvgWindows), len(sum.AvgGoodputs), tr.Senders())
	}
	for i := 0; i < tr.Senders(); i++ {
		sameBits(t, "avg window", sum.AvgWindows[i], tr.AvgWindow(i, tailFrac))
		sameBits(t, "avg goodput", sum.AvgGoodputs[i], tr.AvgGoodput(i, tailFrac))
	}
}

// TestStreamMatchesTraceEstimatorsFluid runs one fluid simulation with both
// a Recorder and a streaming observer and checks every summary
// field agrees with its trace estimator.
func TestStreamMatchesTraceEstimatorsFluid(t *testing.T) {
	const steps = 2000
	cfg := fluid.Config{Bandwidth: 1200, PropDelay: 0.05, Buffer: 60}
	protos := []protocol.Protocol{protocol.Reno(), protocol.Reno(), protocol.NewAIMD(2, 0.5)}
	sub := &engine.FluidSpec{Cfg: cfg, Senders: fluid.MixedSenders(protos, nil), Steps: steps}
	st := NewStream(sub.Meta(), DefaultTailFrac)
	rec := engine.NewRecorder(sub.Meta())
	if _, err := engine.Run(context.Background(), engine.Spec{
		Substrate: sub,
		Observers: []engine.Observer{st, rec},
	}); err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace()
	checkSummaryMatchesTrace(t, st, tr, DefaultTailFrac, []int{2}, []int{0, 1})

	// The retained tails must equal stats.Tail of the recorded series.
	wantTail := stats.Tail(tr.Window(0), DefaultTailFrac)
	gotTail := st.TailWindow(0)
	if len(gotTail) != len(wantTail) {
		t.Fatalf("tail length %d, want %d", len(gotTail), len(wantTail))
	}
	for i := range gotTail {
		if gotTail[i] != wantTail[i] {
			t.Fatalf("tail[%d] = %v, want %v", i, gotTail[i], wantTail[i])
		}
	}
	if st.Steps() != steps {
		t.Fatalf("Steps = %d, want %d", st.Steps(), steps)
	}
}

// TestStreamMatchesTraceEstimatorsPacket does the same over the packet
// substrate, whose tick count is only a hint — the ring slack must absorb
// it.
func TestStreamMatchesTraceEstimatorsPacket(t *testing.T) {
	cfg := packetsim.Config{Bandwidth: 500, PropDelay: 0.02, Buffer: 25, Seed: 3}
	flows := []packetsim.Flow{{Proto: protocol.Reno()}, {Proto: protocol.Reno(), Start: 2}}
	sub := &engine.PacketSpec{Cfg: cfg, Flows: flows, Duration: 60}
	st := NewStream(sub.Meta(), DefaultTailFrac)
	rec := engine.NewRecorder(sub.Meta())
	if _, err := engine.Run(context.Background(), engine.Spec{
		Substrate: sub,
		Observers: []engine.Observer{st, rec},
	}); err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace()
	checkSummaryMatchesTrace(t, st, tr, DefaultTailFrac, []int{0}, []int{1})
	if st.Steps() != tr.Len() {
		t.Fatalf("Steps = %d, want %d", st.Steps(), tr.Len())
	}
}

// TestStreamSummaryMatchesTraceEstimatorsRandom is the property behind
// caching summaries instead of rings: on seeded random single-link runs
// (C, τ, n, protocol family, initial windows, tail fraction) every field
// of Stream.Summary() equals the *FromTrace estimator on a recorded
// trace of the same run, bit for bit.
func TestStreamSummaryMatchesTraceEstimatorsRandom(t *testing.T) {
	const steps = 1200
	rng := rand64.New(20171130)
	for trial := 0; trial < 30; trial++ {
		fam := protocolFamilies[trial%len(protocolFamilies)]
		theta := rng.Range(0.005, 0.05)
		capacity := rng.Range(20, 400) // C = B·2Θ, MSS
		cfg := fluid.Config{
			Bandwidth: capacity / (2 * theta),
			PropDelay: theta,
			Buffer:    math.Floor(rng.Range(0, 2*capacity)),
		}
		n := 1 + rng.Intn(4)
		tailFrac := []float64{0.5, DefaultTailFrac, 0.9}[rng.Intn(3)]
		protos := make([]protocol.Protocol, n)
		init := make([]float64, n)
		for i := range protos {
			protos[i] = fam.make(rng)
			init[i] = math.Floor(rng.Range(1, capacity))
		}
		sub := &engine.FluidSpec{Cfg: cfg, Senders: fluid.MixedSenders(protos, init), Steps: steps}
		st := NewStream(sub.Meta(), tailFrac)
		rec := engine.NewRecorder(sub.Meta())
		if _, err := engine.Run(context.Background(), engine.Spec{
			Substrate: sub,
			Observers: []engine.Observer{st, rec},
		}); err != nil {
			t.Fatal(err)
		}
		split := (n + 1) / 2
		pIdx, qIdx := make([]int, split), make([]int, n-split)
		for i := range pIdx {
			pIdx[i] = i
		}
		for i := range qIdx {
			qIdx[i] = split + i
		}
		t.Run(fmt.Sprintf("%d-%s-n%d", trial, fam.name, n), func(t *testing.T) {
			checkSummaryMatchesTrace(t, st, rec.Trace(), tailFrac, pIdx, qIdx)
		})
	}
}

// TestStreamBatchedMatchesPerCell runs one spec grid through the batched
// sweep path — where Streams ingest whole flow-major strips via
// ObserveStrip and bulk ring copies — and through engine.Run on each
// spec, where the same Streams get one Observe per step, and checks
// every summary field and retained tail is bit-identical. 300 steps
// leaves a partial final strip.
func TestStreamBatchedMatchesPerCell(t *testing.T) {
	build := func() ([]engine.Spec, []*Stream) {
		cfg := fluid.Config{Bandwidth: 1200, PropDelay: 0.05, Buffer: 60}
		protos := []protocol.Protocol{protocol.Reno(), protocol.Scalable(), protocol.IIAD(), protocol.SQRT()}
		inits := []float64{1, 40, 10}
		var specs []engine.Spec
		var streams []*Stream
		for _, p := range protos {
			for _, n := range []int{2, 3} {
				senders, err := fluid.HomogeneousSenders(p, n, inits[:n])
				if err != nil {
					t.Fatal(err)
				}
				sub := &engine.FluidSpec{Cfg: cfg, Senders: senders, Steps: 300}
				st := NewStream(sub.Meta(), DefaultTailFrac)
				specs = append(specs, engine.Spec{Substrate: sub, Observers: []engine.Observer{st}})
				streams = append(streams, st)
			}
		}
		return specs, streams
	}
	specsB, batched := build()
	if _, err := engine.SweepSpecs(context.Background(), specsB, engine.SweepConfig{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	specsP, percell := build()
	for i := range specsP {
		if _, err := engine.Run(context.Background(), specsP[i]); err != nil {
			t.Fatal(err)
		}
	}

	same := func(cell int, name string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("cell %d %s: batched %v != per-cell %v", cell, name, got, want)
		}
	}
	for c := range batched {
		b, p := batched[c], percell[c]
		if b.Steps() != p.Steps() {
			t.Fatalf("cell %d: steps %d != %d", c, b.Steps(), p.Steps())
		}
		bs, ps := b.Summary(), p.Summary()
		same(c, "efficiency", bs.Efficiency, ps.Efficiency)
		same(c, "loss avoidance", bs.LossAvoidance, ps.LossAvoidance)
		same(c, "fairness", bs.Fairness(), ps.Fairness())
		same(c, "convergence", bs.Convergence, ps.Convergence)
		same(c, "latency avoidance", bs.LatencyAvoidance, ps.LatencyAvoidance)
		same(c, "utilization", bs.Utilization, ps.Utilization)
		same(c, "mean loss", bs.MeanLoss, ps.MeanLoss)
		same(c, "mean rtt", bs.MeanRTT, ps.MeanRTT)
		tails := [][2][]float64{
			{b.total.LastTail(b.tailFrac), p.total.LastTail(p.tailFrac)},
			{b.TailRTT(), p.TailRTT()},
			{b.TailLoss(), p.TailLoss()},
		}
		for i := 0; i < len(specsB[c].Substrate.(*engine.FluidSpec).Senders); i++ {
			same(c, "avg window", bs.AvgWindows[i], ps.AvgWindows[i])
			same(c, "avg goodput", bs.AvgGoodputs[i], ps.AvgGoodputs[i])
			tails = append(tails, [2][]float64{b.TailWindow(i), p.TailWindow(i)})
		}
		for j, pair := range tails {
			if len(pair[0]) != len(pair[1]) {
				t.Fatalf("cell %d tail %d: length %d != %d", c, j, len(pair[0]), len(pair[1]))
			}
			for k := range pair[0] {
				if math.Float64bits(pair[0][k]) != math.Float64bits(pair[1][k]) {
					t.Fatalf("cell %d tail %d sample %d: %v != %v", c, j, k, pair[0][k], pair[1][k])
				}
			}
		}
	}
}

// summaryDiff names the first field of StreamSummary, every one of them
// by reflection, where got and want differ in their bits, or returns "".
func summaryDiff(got, want *StreamSummary) string {
	g, w := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for f := 0; f < g.NumField(); f++ {
		name := g.Type().Field(f).Name
		switch gf, wf := g.Field(f), w.Field(f); gf.Kind() {
		case reflect.Float64:
			if math.Float64bits(gf.Float()) != math.Float64bits(wf.Float()) {
				return fmt.Sprintf("%s: %v, want %v", name, gf.Float(), wf.Float())
			}
		case reflect.Slice:
			if gf.Len() != wf.Len() {
				return fmt.Sprintf("%s: %d values, want %d", name, gf.Len(), wf.Len())
			}
			for i := 0; i < gf.Len(); i++ {
				if math.Float64bits(gf.Index(i).Float()) != math.Float64bits(wf.Index(i).Float()) {
					return fmt.Sprintf("%s[%d]: %v, want %v", name, i, gf.Index(i).Float(), wf.Index(i).Float())
				}
			}
		default:
			return fmt.Sprintf("%s: unchecked kind %v", name, gf.Kind())
		}
	}
	return ""
}

// unfinished forwards every step to a Stream but hides its Finish, so
// the engine leaves that stream unfinished.
type unfinished struct{ s *Stream }

func (u unfinished) Observe(st engine.Step)       { u.s.Observe(st) }
func (u unfinished) ObserveStrip(st engine.Strip) { u.s.ObserveStrip(st) }
func (u unfinished) TailSteps() int               { return u.s.TailSteps() }

// TestStreamFinishFreezesSummary runs every cell of a grid into two
// streams, one the engine finishes and one it cannot, on the batched and
// on the per-cell path. The summary Finish froze is what Summary returns,
// and it equals the unfinished stream's Summary in every field, bit for
// bit; Steps and the tails still read the rings afterwards. A cell that
// diverges is never finished.
func TestStreamFinishFreezesSummary(t *testing.T) {
	const steps = 300
	build := func() ([]engine.Spec, []*Stream, []*Stream) {
		cfg := fluid.Config{Bandwidth: 1200, PropDelay: 0.05, Buffer: 60}
		protos := []protocol.Protocol{protocol.Reno(), protocol.Scalable(), protocol.IIAD(), protocol.SQRT()}
		var specs []engine.Spec
		var fin, unfin []*Stream
		add := func(cfg fluid.Config, senders []fluid.Sender) {
			sub := &engine.FluidSpec{Cfg: cfg, Senders: senders, Steps: steps}
			f, u := NewStream(sub.Meta(), DefaultTailFrac), NewStream(sub.Meta(), DefaultTailFrac)
			specs = append(specs, engine.Spec{Substrate: sub, Observers: []engine.Observer{f, unfinished{u}}})
			fin, unfin = append(fin, f), append(unfin, u)
		}
		for _, p := range protos {
			for _, n := range []int{1, 2, 3} {
				senders, err := fluid.HomogeneousSenders(p, n, []float64{1, 40, 10}[:n])
				if err != nil {
					t.Fatal(err)
				}
				add(cfg, senders)
			}
		}
		// The last cell diverges: its windows overflow to +Inf.
		add(fluid.Config{Infinite: true, PropDelay: 0.021, MaxWindow: math.Inf(1)}, []fluid.Sender{
			{Proto: protocol.NewMIMD(10, 0.5), Init: 1e300},
			{Proto: protocol.NewMIMD(10, 0.5), Init: 1e300},
		})
		return specs, fin, unfin
	}
	paths := []struct {
		name string
		run  func(specs []engine.Spec) error
	}{
		{"batched", func(specs []engine.Spec) error {
			_, err := engine.SweepSpecs(context.Background(), specs, engine.SweepConfig{Workers: 2})
			return err
		}},
		{"per-cell", func(specs []engine.Spec) error {
			var errs []error
			for i := range specs {
				if _, err := engine.Run(context.Background(), specs[i]); err != nil {
					errs = append(errs, err)
				}
			}
			return errors.Join(errs...)
		}},
	}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			specs, fin, unfin := build()
			var de *fluid.DivergedError
			if err := path.run(specs); !errors.As(err, &de) {
				t.Fatalf("error %v, want the last cell's divergence", err)
			}
			last := len(specs) - 1
			if fin[last].frozen != nil {
				t.Errorf("the diverged cell was finished")
			}
			for c := 0; c < last; c++ {
				f, u := fin[c], unfin[c]
				if f.frozen == nil || u.frozen != nil {
					t.Fatalf("cell %d: finished %v and %v, want true and false", c, f.frozen != nil, u.frozen != nil)
				}
				if got := f.Summary(); got != f.frozen {
					t.Fatalf("cell %d: Summary did not return the frozen summary", c)
				}
				if d := summaryDiff(f.Summary(), u.Summary()); d != "" {
					t.Errorf("cell %d: frozen summary %s", c, d)
				}
				if f.Steps() != steps || u.Steps() != steps {
					t.Errorf("cell %d: Steps %d and %d, want %d", c, f.Steps(), u.Steps(), steps)
				}
				tails := [][2][]float64{{f.TailRTT(), u.TailRTT()}, {f.TailLoss(), u.TailLoss()}}
				for i := range f.frozen.AvgWindows {
					tails = append(tails, [2][]float64{f.TailWindow(i), u.TailWindow(i)})
				}
				for j, pair := range tails {
					if len(pair[0]) == 0 || !reflect.DeepEqual(pair[0], pair[1]) {
						t.Errorf("cell %d tail %d after Finish: %d samples, want the unfinished stream's %d", c, j, len(pair[0]), len(pair[1]))
					}
				}
			}
		})
	}
}

// TestStreamTailLenMatchesStatsTail pins the shared tail-index math.
func TestStreamTailLenMatchesStatsTail(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 100, 4000} {
		for _, f := range []float64{0, 0.5, 0.75, 0.99, 1} {
			xs := make([]float64, n)
			if got, want := stats.TailLen(n, f), len(stats.Tail(xs, f)); got != want {
				t.Fatalf("TailLen(%d, %v) = %d, want %d", n, f, got, want)
			}
		}
	}
}
