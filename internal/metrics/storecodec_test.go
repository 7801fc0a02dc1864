package metrics

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/fluid"
	"repro/internal/protocol"
)

// oversizedLength is a payload of the given kind whose first length
// field claims 0xFFFFFFF0 elements while the payload holds none: the
// decoder must reject it without allocating for the claimed length.
func oversizedLength(kind byte) []byte {
	b := []byte{kind}
	if kind == codecKindStream {
		for i := 0; i < 7; i++ { // the seven scalars
			b = putF64(b, 0.5)
		}
	}
	return putU32(b, 0xFFFFFFF0)
}

// codecSeeds returns real encodes of a streamed summary, a settled and a
// never-settled (-1) ext summary, a flowless summary and the two probe
// results, a summary whose mean tail loss and RTT are both nonzero, and
// of a topology summary.
func codecSeeds(tb testing.TB) (runs [][]byte, topo []byte) {
	tb.Helper()
	senders, err := fluid.HomogeneousSenders(protocol.Reno(), 2, []float64{1, 8})
	if err != nil {
		tb.Fatal(err)
	}
	sub := &engine.FluidSpec{Cfg: cap100(), Senders: senders, Steps: 40}
	st := NewStream(sub.Meta(), 0.75)
	if _, err := engine.Run(context.Background(), engine.Spec{Substrate: sub, Observers: []engine.Observer{st}}); err != nil {
		tb.Fatal(err)
	}
	// Reno's halving sawtooth settles into a ±40% band, and its last step
	// lies outside a ±5% one.
	o := Options{Steps: 400}.withDefaults()
	settled, err := extRun(cap100(), protocol.Reno(), 1, nil, 0.4, o)
	if err != nil {
		tb.Fatal(err)
	}
	never, err := extRun(cap100(), protocol.Reno(), 1, nil, 0.05, o)
	if err != nil {
		tb.Fatal(err)
	}
	if settled.settle < 0 || never.settle != -1 {
		tb.Fatalf("ext seeds settle at %d and %d, want ≥ 0 and -1", settled.settle, never.settle)
	}
	empty := NewStream(engine.Meta{Flows: 0, Capacity: 100, BaseRTT: 0.1, Horizon: 100}, 0.75)
	links, flows := topoFixture()
	ts, err := RunTopo(context.Background(), TopoRunSpec{Links: links, Flows: flows, Steps: 40})
	if err != nil {
		tb.Fatal(err)
	}
	return [][]byte{
		encodeStreamSummary(st.Summary()),
		encodeExt(settled),
		encodeExt(never),
		encodeStreamSummary(empty.Summary()),
		encodeFloat(0.75),
		encodeBool(true),
		encodeStreamSummary(lossySummary()),
	}, encodeTopoSummary(ts)
}

// lossySummary is a two-sender summary whose every scalar is set, the
// mean tail loss and RTT included.
func lossySummary() *StreamSummary {
	return &StreamSummary{
		Efficiency: 0.8, LossAvoidance: 0.02, Convergence: 0.6, LatencyAvoidance: 0.4, Utilization: 0.9,
		MeanLoss: 0.005, MeanRTT: 0.05,
		AvgWindows: []float64{40, 60}, AvgGoodputs: []float64{800, 1200},
	}
}

// TestStreamCodecRoundTripAndTruncation: a summary round-trips bit for
// bit, the mean tail loss and RTT included, and every proper prefix of
// its encoding is rejected.
func TestStreamCodecRoundTripAndTruncation(t *testing.T) {
	want := lossySummary()
	payload := encodeStreamSummary(want)
	got, err := decodeStreamSummary(payload)
	if err != nil {
		t.Fatal(err)
	}
	if d := streamSummariesBitEqual(got, want); d != "" {
		t.Fatalf("round trip: %s", d)
	}
	for n := 0; n < len(payload); n++ {
		if _, err := decodeStreamSummary(payload[:n]); err == nil {
			t.Fatalf("%d-byte prefix of a %d-byte payload decoded", n, len(payload))
		}
	}
}

// TestDecodeRejectsInconsistentSummaries: length fields are bounded by
// the payload, parallel arrays must agree in length, and every path must
// be a non-empty list of links the summary carries.
func TestDecodeRejectsInconsistentSummaries(t *testing.T) {
	if _, err := decodeStreamSummary(oversizedLength(codecKindStream)); err == nil {
		t.Error("stream summary claiming 0xFFFFFFF0 senders decoded")
	}
	if _, err := decodeTopoSummary(oversizedLength(codecKindTopo)); err == nil {
		t.Error("topo summary claiming 0xFFFFFFF0 links decoded")
	}

	stream := func(windows, goodputs []float64) []byte {
		return encodeStreamSummary(&StreamSummary{AvgWindows: windows, AvgGoodputs: goodputs})
	}
	topo := func(paths [][]int) []byte {
		return encodeTopoSummary(&TopoSummary{
			Paths:         paths,
			BaseRTT:       make([]float64, len(paths)),
			LinkUtil:      []float64{0.5, 0.9},
			LinkEff:       []float64{0.4, 0.8},
			LinkMaxLoss:   []float64{0, 0.01},
			LinkMeanLoss:  []float64{0, 0.005},
			AvgWindows:    make([]float64, len(paths)),
			AvgGoodputs:   make([]float64, len(paths)),
			RTTInflations: make([]float64, len(paths)),
		})
	}
	for _, c := range []struct {
		name    string
		payload []byte
		decode  func([]byte) error
		ok      bool
	}{
		{"stream", stream([]float64{1, 2}, []float64{3, 4}), streamDecodes, true},
		{"stream goodputs short", stream([]float64{1, 2}, []float64{3}), streamDecodes, false},
		{"topo", topo([][]int{{0, 1}, {1}}), topoDecodes, true},
		{"topo empty path", topo([][]int{{0, 1}, {}}), topoDecodes, false},
		{"topo unknown link", topo([][]int{{0, 2}}), topoDecodes, false},
		{"bool 2", []byte{codecKindBool, 2}, boolDecodes, false},
		{"float short", []byte{codecKindFloat, 1, 2, 3}, floatDecodes, false},
		{"ext settle -2", encodeExt(extSummary{settle: -2}), extDecodes, false},
		{"ext short", encodeExt(extSummary{settle: 3})[:16], extDecodes, false},
	} {
		if err := c.decode(c.payload); (err == nil) != c.ok {
			t.Errorf("%s: decode error %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func streamDecodes(b []byte) error { _, err := decodeStreamSummary(b); return err }
func topoDecodes(b []byte) error   { _, err := decodeTopoSummary(b); return err }
func boolDecodes(b []byte) error   { _, err := decodeBool(b); return err }
func floatDecodes(b []byte) error  { _, err := decodeFloat(b); return err }
func extDecodes(b []byte) error    { _, err := decodeExt(b); return err }

// reencodes decodes data with c and, if accepted, reports whether it
// re-encodes to exactly the same bytes.
func reencodes[T any](c runCodec[T], data []byte) (accepted, same bool) {
	v, err := c.decode(data)
	if err != nil {
		return false, false
	}
	return true, bytes.Equal(c.encode(v), data)
}

// FuzzDecodeRun: the fluid run decoders (summary, ext summary, probe
// float and bool) must reject malformed payloads with an error, never panic or
// allocate beyond the payload's size, and every payload one of them
// accepts must re-encode to the same bytes.
func FuzzDecodeRun(f *testing.F) {
	runs, _ := codecSeeds(f)
	for _, p := range runs {
		f.Add(p)
	}
	f.Add(oversizedLength(codecKindStream))
	f.Fuzz(func(t *testing.T, data []byte) {
		for name, check := range map[string]func([]byte) (bool, bool){
			"stream": func(b []byte) (bool, bool) { return reencodes(streamCodec, b) },
			"ext":    func(b []byte) (bool, bool) { return reencodes(extCodec, b) },
			"float":  func(b []byte) (bool, bool) { return reencodes(floatCodec, b) },
			"bool":   func(b []byte) (bool, bool) { return reencodes(boolCodec, b) },
		} {
			if accepted, same := check(data); accepted && !same {
				t.Fatalf("%s decoder accepted a payload that re-encodes differently:\n%x", name, data)
			}
		}
	})
}

// FuzzDecodeTopoRun is FuzzDecodeRun for topology summaries.
func FuzzDecodeTopoRun(f *testing.F) {
	runs, topo := codecSeeds(f)
	f.Add(topo)
	f.Add(runs[0])
	f.Add(oversizedLength(codecKindTopo))
	f.Fuzz(func(t *testing.T, data []byte) {
		if accepted, same := reencodes(topoCodec, data); accepted && !same {
			t.Fatalf("accepted payload re-encodes differently:\n%x", data)
		}
	})
}
