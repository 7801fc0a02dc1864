package metrics

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/fluid"
	"repro/internal/protocol"
)

// oversizedRing is a payload of the given kind whose first ring claims a
// capacity of 0xFFFFFFF0 samples while retaining none: 41 bytes for a
// one-link topo stream, 45 for a flowless stream. Decoding it used to
// allocate 32 GiB and kill the process.
func oversizedRing(kind byte) []byte {
	b := []byte{kind}
	if kind == codecKindTopo {
		b = putF64(b, 0.75)           // tailFrac
		b = putF64s(b, []float64{10}) // one link
		b = putU32(b, 0)              // no flows
	} else {
		b = putF64(b, 0.75) // tailFrac
		b = putF64(b, 100)  // capacity
		b = putF64(b, 0.1)  // baseRTT
		b = putU32(b, 0)    // no flows
	}
	b = binaryRing(b, 0xFFFFFFF0, 0, nil)
	return b
}

// binaryRing writes a ring header and samples exactly as encodeRing
// lays them out, with no consistency between the fields.
func binaryRing(b []byte, capacity uint32, count uint64, retained []float64) []byte {
	b = putU32(b, int(capacity))
	b = putU64(b, count)
	return putF64s(b, retained)
}

// codecSeeds returns real encodes of a streamed, a recorded, an empty
// and a topology run.
func codecSeeds(tb testing.TB) (runs [][]byte, topo []byte) {
	tb.Helper()
	senders, err := fluid.HomogeneousSenders(protocol.Reno(), 2, []float64{1, 8})
	if err != nil {
		tb.Fatal(err)
	}
	sub := &engine.FluidSpec{Cfg: cap100(), Senders: senders, Steps: 40}
	st := NewStream(sub.Meta(), 0.75)
	res, err := engine.Run(context.Background(), engine.Spec{Substrate: sub, Observers: []engine.Observer{st}, Record: true})
	if err != nil {
		tb.Fatal(err)
	}
	empty := NewStream(engine.Meta{Flows: 1, Capacity: 100, BaseRTT: 0.1, Horizon: 100}, 0.75)
	links, flows := topoFixture()
	ts, err := RunTopo(context.Background(), TopoRunSpec{Links: links, Flows: flows, Steps: 40})
	if err != nil {
		tb.Fatal(err)
	}
	return [][]byte{encodeRun(st, nil), encodeRun(nil, res.Trace), encodeRun(empty, nil)}, encodeTopoRun(ts)
}

// TestDecodeRejectsInconsistentRings: a ring must retain exactly
// min(count, capacity) samples and its capacity is bounded.
func TestDecodeRejectsInconsistentRings(t *testing.T) {
	if _, _, err := decodeRun(oversizedRing(codecKindStream), false); err == nil {
		t.Error("stream payload with a 0xFFFFFFF0-sample ring decoded")
	}
	if _, err := decodeTopoRun(oversizedRing(codecKindTopo)); err == nil {
		t.Error("topo payload with a 0xFFFFFFF0-sample ring decoded")
	}
	for _, c := range []struct {
		name     string
		capacity uint32
		count    uint64
		retained []float64
		ok       bool
	}{
		{"full ring", 2, 5, []float64{1, 2}, true},
		{"partial ring", 4, 1, []float64{1}, true},
		{"too few samples", 4, 3, []float64{1}, false},
		{"too many samples", 2, 1, []float64{1, 2}, false},
		{"negative count", 2, 1 << 63, []float64{1, 2}, false},
		{"capacity over bound", maxDecodeLen + 1, 1, []float64{1}, false},
	} {
		b := []byte{codecKindStream}
		b = putF64(b, 0.75)
		b = putF64(b, 100)
		b = putF64(b, 0.1)
		b = putU32(b, 0)
		for r := 0; r < 3; r++ { // total, rtt, loss
			b = binaryRing(b, c.capacity, c.count, c.retained)
		}
		if _, _, err := decodeRun(b, false); (err == nil) != c.ok {
			t.Errorf("%s: decode error %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// FuzzDecodeRun: decodeRun must reject malformed payloads with an error,
// never panic or allocate without bound, and every payload it accepts
// must re-encode to the same bytes.
func FuzzDecodeRun(f *testing.F) {
	runs, _ := codecSeeds(f)
	for _, p := range runs {
		f.Add(p)
	}
	f.Add(oversizedRing(codecKindStream))
	f.Add(oversizedRing(codecKindTopo))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, recorded := range []bool{false, true} {
			st, tr, err := decodeRun(data, recorded)
			if err != nil {
				continue
			}
			if again := encodeRun(st, tr); !bytes.Equal(again, data) {
				t.Fatalf("accepted payload re-encodes differently:\n%x\n%x", data, again)
			}
		}
	})
}

// FuzzDecodeTopoRun is FuzzDecodeRun for topology streams.
func FuzzDecodeTopoRun(f *testing.F) {
	runs, topo := codecSeeds(f)
	f.Add(topo)
	f.Add(runs[0])
	f.Add(oversizedRing(codecKindTopo))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeTopoRun(data)
		if err != nil {
			return
		}
		if again := encodeTopoRun(s); !bytes.Equal(again, data) {
			t.Fatalf("accepted payload re-encodes differently:\n%x\n%x", data, again)
		}
	})
}
