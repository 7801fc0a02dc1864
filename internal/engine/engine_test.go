package engine

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/fluid"
	"repro/internal/nettopo"
	"repro/internal/obs"
	"repro/internal/packetsim"
	"repro/internal/protocol"
	"repro/internal/trace"
)

func fluidCfg() fluid.Config {
	return fluid.Config{Bandwidth: 1200, PropDelay: 0.05, Buffer: 60}
}

// equalSeries requires bit-identical float series.
func equalSeries(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s[%d] = %v, want %v", name, i, got[i], want[i])
		}
	}
}

func equalTraces(t *testing.T, got, want *trace.Trace) {
	t.Helper()
	if got.Len() != want.Len() || got.Senders() != want.Senders() {
		t.Fatalf("trace shape (%d steps, %d senders), want (%d, %d)",
			got.Len(), got.Senders(), want.Len(), want.Senders())
	}
	if got.Capacity() != want.Capacity() || got.BaseRTT() != want.BaseRTT() {
		t.Fatalf("trace link (C=%v, base=%v), want (C=%v, base=%v)",
			got.Capacity(), got.BaseRTT(), want.Capacity(), want.BaseRTT())
	}
	for i := 0; i < want.Senders(); i++ {
		equalSeries(t, "window", got.Window(i), want.Window(i))
	}
	equalSeries(t, "rtt", got.RTT(), want.RTT())
	equalSeries(t, "loss", got.Loss(), want.Loss())
	equalSeries(t, "total", got.Total(), want.Total())
}

// withRecorders returns specs with a Recorder appended to each one's
// observers, and the traces the Recorders fill.
func withRecorders(specs []Spec) ([]Spec, []*trace.Trace) {
	traces := make([]*trace.Trace, len(specs))
	for i := range specs {
		rec := NewRecorder(specs[i].Substrate.Meta())
		specs[i].Observers = append(specs[i].Observers[:len(specs[i].Observers):len(specs[i].Observers)], rec)
		traces[i] = rec.Trace()
	}
	return specs, traces
}

// record runs spec with a Recorder after its own observers and returns
// the result and the recorded trace.
func record(t *testing.T, spec Spec) (*Result, *trace.Trace) {
	t.Helper()
	specs, traces := withRecorders([]Spec{spec})
	res, err := Run(context.Background(), specs[0])
	if err != nil {
		t.Fatal(err)
	}
	return res, traces[0]
}

// TestFluidGolden: engine.Run over the fluid adapter, recorded, holds
// bit for bit the steps internal/fluid reports when stepped directly.
func TestFluidGolden(t *testing.T) {
	const steps = 800
	cfg := fluidCfg()
	senders := func() []fluid.Sender {
		s, err := fluid.HomogeneousSenders(protocol.Reno(), 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	l, err := fluid.New(cfg, senders()...)
	if err != nil {
		t.Fatal(err)
	}
	windows := make([][]float64, 3)
	var totals, rtts, losses []float64
	for range steps {
		st := l.Step()
		total := 0.0
		for i, w := range st.Windows {
			windows[i] = append(windows[i], w)
			total += w
		}
		totals, rtts, losses = append(totals, total), append(rtts, st.RTT), append(losses, st.CongLoss)
	}
	res, tr := record(t, Spec{Substrate: &FluidSpec{Cfg: cfg, Senders: senders(), Steps: steps}})
	if res.Steps != steps {
		t.Fatalf("Steps = %d, want %d", res.Steps, steps)
	}
	if tr.Capacity() != cfg.Capacity() || tr.BaseRTT() != cfg.BaseRTT() {
		t.Fatalf("trace link (C=%v, base=%v), want (C=%v, base=%v)", tr.Capacity(), tr.BaseRTT(), cfg.Capacity(), cfg.BaseRTT())
	}
	for i := range windows {
		equalSeries(t, "window", tr.Window(i), windows[i])
	}
	equalSeries(t, "total", tr.Total(), totals)
	equalSeries(t, "rtt", tr.RTT(), rtts)
	equalSeries(t, "loss", tr.Loss(), losses)
}

// TestFluidObserversSeeTrace: streamed steps carry exactly the values the
// trace records, in order.
func TestFluidObserversSeeTrace(t *testing.T) {
	const steps = 400
	cfg := fluidCfg()
	senders, err := fluid.HomogeneousSenders(protocol.NewAIMD(1, 0.7), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var idx int
	var totals, rtts, losses []float64
	obs := ObserverFunc(func(s Step) {
		if s.Index != idx {
			t.Fatalf("step index %d, want %d", s.Index, idx)
		}
		idx++
		totals = append(totals, s.Total)
		rtts = append(rtts, s.RTT)
		losses = append(losses, s.Loss)
		sum := 0.0
		for _, w := range s.Windows {
			sum += w
		}
		if sum != s.Total {
			t.Fatalf("Total %v != window sum %v", s.Total, sum)
		}
	})
	_, tr := record(t, Spec{
		Substrate: &FluidSpec{Cfg: cfg, Senders: senders, Steps: steps},
		Observers: []Observer{obs},
	})
	equalSeries(t, "total", totals, tr.Total())
	equalSeries(t, "rtt", rtts, tr.RTT())
	equalSeries(t, "loss", losses, tr.Loss())
}

// TestPacketGolden: the packet adapter, recorded, reproduces packetsim's
// per-tick samples and delivery counters exactly.
func TestPacketGolden(t *testing.T) {
	cfg := packetsim.Config{Bandwidth: 500, PropDelay: 0.02, Buffer: 25, Seed: 7, RandomLoss: 0.001}
	flows := func() []packetsim.Flow {
		return []packetsim.Flow{
			{Proto: protocol.Reno()},
			{Proto: protocol.NewAIMD(2, 0.5), Start: 1.5},
		}
	}
	windows := make([][]float64, 2)
	var rtts, losses []float64
	want, err := packetsim.RunObserved(context.Background(), cfg, flows(), 20, func(s packetsim.TickSample) {
		for i, w := range s.Windows {
			windows[i] = append(windows[i], w)
		}
		rtts, losses = append(rtts, s.RTT), append(losses, s.Loss)
	})
	if err != nil {
		t.Fatal(err)
	}
	res, tr := record(t, Spec{Substrate: &PacketSpec{Cfg: cfg, Flows: flows(), Duration: 20}})
	if tr.Capacity() != cfg.Capacity() || tr.BaseRTT() != 2*cfg.PropDelay {
		t.Fatalf("trace link (C=%v, base=%v), want (C=%v, base=%v)", tr.Capacity(), tr.BaseRTT(), cfg.Capacity(), 2*cfg.PropDelay)
	}
	for i := range windows {
		equalSeries(t, "window", tr.Window(i), windows[i])
	}
	equalSeries(t, "rtt", tr.RTT(), rtts)
	equalSeries(t, "loss", tr.Loss(), losses)
	for i := range want.Delivered {
		if res.Packet.Delivered[i] != want.Delivered[i] {
			t.Fatalf("Delivered[%d] = %d, want %d", i, res.Packet.Delivered[i], want.Delivered[i])
		}
		equalSeries(t, "delivered series", res.Packet.DeliveredSeries[i], want.DeliveredSeries[i])
	}
}

// TestPacketRecorderKeepsCounters: a packet run keeps the same delivery
// counters whether or not a Recorder observes it.
func TestPacketRecorderKeepsCounters(t *testing.T) {
	cfg := packetsim.Config{Bandwidth: 500, PropDelay: 0.02, Buffer: 25}
	spec := func() Spec {
		return Spec{Substrate: &PacketSpec{Cfg: cfg, Flows: []packetsim.Flow{{Proto: protocol.Reno()}}, Duration: 10}}
	}
	want, err := Run(context.Background(), spec())
	if err != nil {
		t.Fatal(err)
	}
	res, tr := record(t, spec())
	if tr.Len() != res.Steps || res.Steps != want.Steps {
		t.Fatalf("recorded %d ticks of %d, unrecorded run %d", tr.Len(), res.Steps, want.Steps)
	}
	if res.Packet.Delivered[0] != want.Packet.Delivered[0] {
		t.Fatalf("Delivered = %d, want %d", res.Packet.Delivered[0], want.Packet.Delivered[0])
	}
	if got, want := res.Packet.Throughput(0, 0.75), want.Packet.Throughput(0, 0.75); got != want {
		t.Fatalf("Throughput = %v, want %v", got, want)
	}
}

func parkingLotSpecs(k int) ([]nettopo.LinkSpec, []nettopo.FlowSpec) {
	links, flows, err := nettopo.ParkingLot(k, nettopo.LinkSpec{Bandwidth: 1000, PropDelay: 0.02, Buffer: 25}, protocol.Reno(), 2)
	if err != nil {
		panic(err)
	}
	return links, flows
}

// TestTopoRecorder: a Recorder on a network run records every step's
// windows and their sum; a network has no single RTT or loss, so those
// are zero.
func TestTopoRecorder(t *testing.T) {
	const steps = 100
	links, flows := parkingLotSpecs(2)
	seen := &stepCollector{}
	_, tr := record(t, Spec{
		Substrate: &TopoSpec{Links: links, Flows: flows, Steps: steps},
		Observers: []Observer{seen},
	})
	if tr.Len() != steps || tr.Senders() != len(flows) || len(seen.steps) != steps {
		t.Fatalf("recorded %d steps of %d senders, observed %d; want %d of %d", tr.Len(), tr.Senders(), len(seen.steps), steps, len(flows))
	}
	for s, st := range seen.steps {
		for i, w := range st.Windows {
			if tr.Window(i)[s] != w {
				t.Fatalf("step %d sender %d: recorded %v, observed %v", s, i, tr.Window(i)[s], w)
			}
		}
		if tr.Total()[s] != st.Total || tr.RTT()[s] != 0 || tr.Loss()[s] != 0 {
			t.Fatalf("step %d: recorded total %v rtt %v loss %v, want %v, 0, 0", s, tr.Total()[s], tr.RTT()[s], tr.Loss()[s], st.Total)
		}
	}
}

// TestTopoObserver: observers receive the network step stream with
// Topo populated.
func TestTopoObserver(t *testing.T) {
	const steps = 100
	links, flows := parkingLotSpecs(2)
	var seen int
	var lastLoad float64
	obs := ObserverFunc(func(s Step) {
		if s.Topo == nil {
			t.Fatal("nettopo step without Topo")
		}
		if len(s.Topo.LinkLoad) != len(links) {
			t.Fatalf("LinkLoad has %d entries, want %d", len(s.Topo.LinkLoad), len(links))
		}
		lastLoad = s.Topo.LinkLoad[0]
		seen++
	})
	if _, err := Run(context.Background(), Spec{
		Substrate: &TopoSpec{Links: links, Flows: flows, Steps: steps},
		Observers: []Observer{obs},
	}); err != nil {
		t.Fatal(err)
	}
	if seen != steps {
		t.Fatalf("observed %d steps, want %d", seen, steps)
	}
	if lastLoad <= 0 {
		t.Fatalf("final link load %v, want > 0", lastLoad)
	}
}

// TestRunCancellation: a canceled context aborts all three substrates.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	senders, err := fluid.HomogeneousSenders(protocol.Reno(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	specs := []Spec{
		{Substrate: &FluidSpec{Cfg: fluidCfg(), Senders: senders, Steps: 100000}},
		{Substrate: &PacketSpec{Cfg: packetsim.Config{Bandwidth: 500, PropDelay: 0.02, Buffer: 25}, Flows: []packetsim.Flow{{Proto: protocol.Reno()}}, Duration: 10000}},
	}
	nl, nf := parkingLotSpecs(2)
	specs = append(specs, Spec{Substrate: &TopoSpec{Links: nl, Flows: nf, Steps: 1 << 20}})
	for i, spec := range specs {
		if _, err := Run(ctx, spec); err != context.Canceled {
			t.Fatalf("spec %d: err = %v, want context.Canceled", i, err)
		}
	}
}

// TestRunRejectsNegativeHorizon: a negative step count is an error on
// the fluid and topology substrates, recorded or streamed, not a
// makeslice panic or a "successful" run of -5 steps.
func TestRunRejectsNegativeHorizon(t *testing.T) {
	senders, err := fluid.HomogeneousSenders(protocol.Reno(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	nl, nf := parkingLotSpecs(2)
	for _, sub := range []Substrate{
		&FluidSpec{Cfg: fluidCfg(), Senders: senders, Steps: -5},
		&TopoSpec{Links: nl, Flows: nf, Steps: -5},
	} {
		for _, o := range []Observer{NewRecorder(sub.Meta()), ObserverFunc(func(Step) {})} {
			res, err := Run(context.Background(), Spec{Substrate: sub, Observers: []Observer{o}})
			if err == nil || !strings.Contains(err.Error(), "non-negative") {
				t.Errorf("%T observed by %T: result %+v, err %v; want a horizon error", sub, o, res, err)
			}
		}
	}
}

// TestMeta sanity-checks the substrate descriptions observers size from.
func TestMeta(t *testing.T) {
	cfg := fluidCfg()
	senders, _ := fluid.HomogeneousSenders(protocol.Reno(), 2, nil)
	m := (&FluidSpec{Cfg: cfg, Senders: senders, Steps: 500}).Meta()
	if m.Flows != 2 || m.Horizon != 500 || m.Capacity != cfg.Capacity() || m.BaseRTT != cfg.BaseRTT() {
		t.Fatalf("fluid meta = %+v", m)
	}
	pm := (&PacketSpec{Cfg: packetsim.Config{Bandwidth: 500, PropDelay: 0.02}, Flows: []packetsim.Flow{{Proto: protocol.Reno()}}, Duration: 10}).Meta()
	if pm.Flows != 1 || pm.Horizon != int(10/0.04)+1 {
		t.Fatalf("packet meta = %+v", pm)
	}
	nl, nf := parkingLotSpecs(2)
	nm := (&TopoSpec{Links: nl, Flows: nf, Steps: 77}).Meta()
	if nm.Flows != 3 || nm.Horizon != 77 {
		t.Fatalf("topo meta = %+v", nm)
	}
}

// TestRunTelemetry: with obs enabled, Run records per-kind run counts,
// step totals and a wall-time histogram; disabled, it records nothing.
func TestRunTelemetry(t *testing.T) {
	obs.Disable()
	obs.Reset()
	run := func() {
		s, err := fluid.HomogeneousSenders(protocol.Reno(), 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(context.Background(), Spec{
			Substrate: &FluidSpec{Cfg: fluidCfg(), Senders: s, Steps: 200},
		}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if s := obs.TakeSnapshot(); len(s.Counters)+len(s.Histograms) != 0 {
		t.Fatalf("disabled Run recorded metrics: %+v", s)
	}

	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	run()
	s := obs.TakeSnapshot()
	if s.Counters["engine.runs.fluid"] != 1 {
		t.Fatalf("fluid runs = %d, want 1", s.Counters["engine.runs.fluid"])
	}
	if s.Counters["engine.steps.fluid"] != 200 {
		t.Fatalf("fluid steps = %d, want 200", s.Counters["engine.steps.fluid"])
	}
	if s.Histograms["engine.run.duration.fluid"].Count != 1 {
		t.Fatalf("duration histogram = %+v", s.Histograms["engine.run.duration.fluid"])
	}
}
