package metrics

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/stats"
	"repro/internal/trace"
)

// Binary codec for persisted run results. Floats are serialized as their
// IEEE-754 bit patterns (little-endian uint64), so a decoded run is bit-
// identical to the simulation that produced it — the persistent store
// changes cost, never scores. The layout carries no version field of its
// own: the store's canonical key already folds in a schema version and a
// source hash, so any change here must bump runstore.SchemaVersion.

const (
	codecKindStream byte = 1
	codecKindTrace  byte = 2
	codecKindTopo   byte = 3
)

// maxDecodeLen bounds every length the decoder allocates by that the
// payload's own size does not: flow, hop and sender counts and ring
// capacities. Store entries are checksummed, but the decoder still
// rejects what no encoder writes instead of trusting a length field —
// an unbounded ring capacity read from 41 bytes would otherwise
// allocate gigabytes. A run whose tail ring needs more than 2^20 samples
// decodes as a miss and is simulated again.
const maxDecodeLen = 1 << 20

func putU32(b []byte, v int) []byte {
	return binary.LittleEndian.AppendUint32(b, uint32(v))
}

func putU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func putF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func putF64s(b []byte, vs []float64) []byte {
	b = putU32(b, len(vs))
	for _, v := range vs {
		b = putF64(b, v)
	}
	return b
}

// decoder is a cursor over an encoded payload; the first decode error
// sticks and every later read returns zero values, so call sites check
// err once at the end.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) u32() int {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return int(v)
}

func (d *decoder) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *decoder) f64() float64 {
	return math.Float64frombits(d.u64())
}

func (d *decoder) f64s() []float64 {
	n := d.u32()
	if d.err != nil || n < 0 || d.off+8*n > len(d.b) {
		d.fail()
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.f64()
	}
	return out
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("metrics: truncated or malformed store payload")
	}
}

func encodeRing(b []byte, r *stats.Ring) []byte {
	b = putU32(b, r.Cap())
	b = putU64(b, uint64(r.Count()))
	return putF64s(b, r.Dump())
}

// ring reverses encodeRing. Dump retains exactly min(count, capacity)
// samples, so any other retained length is malformed.
func (d *decoder) ring() *stats.Ring {
	capacity := d.u32()
	count := d.u64()
	retained := d.f64s()
	if d.err != nil {
		return nil
	}
	if capacity > maxDecodeLen || count > math.MaxInt64 || len(retained) != min(int(count), capacity) {
		d.fail()
		return nil
	}
	return stats.RestoreRing(capacity, int(count), retained)
}

// encodeRun serializes exactly one of stream or tr (whichever is
// non-nil) into a store payload.
func encodeRun(stream *Stream, tr *trace.Trace) []byte {
	if stream != nil {
		b := make([]byte, 0, 64+8*stream.total.Cap()*(3+2*len(stream.windows)))
		b = append(b, codecKindStream)
		b = putF64(b, stream.tailFrac)
		b = putF64(b, stream.capacity)
		b = putF64(b, stream.baseRTT)
		b = putU32(b, len(stream.windows))
		for i := range stream.windows {
			b = encodeRing(b, stream.windows[i])
			b = encodeRing(b, stream.goodput[i])
		}
		b = encodeRing(b, stream.total)
		b = encodeRing(b, stream.rtt)
		b = encodeRing(b, stream.loss)
		return b
	}
	b := make([]byte, 0, 64+8*tr.Len()*(3+tr.Senders()))
	b = append(b, codecKindTrace)
	b = putF64(b, tr.Capacity())
	b = putF64(b, tr.BaseRTT())
	b = putU32(b, tr.Senders())
	for i := 0; i < tr.Senders(); i++ {
		b = putF64s(b, tr.Window(i))
	}
	b = putF64s(b, tr.RTT())
	b = putF64s(b, tr.Loss())
	b = putF64s(b, tr.Total())
	return b
}

// encodeTopoRun serializes a TopoStream into a store payload. Alongside
// the rings it carries the scoring geometry — link capacities, per-flow
// paths, and base RTTs — so a decoded stream answers every estimator
// without re-deriving the topology.
func encodeTopoRun(s *TopoStream) []byte {
	b := make([]byte, 0, 128)
	b = append(b, codecKindTopo)
	b = putF64(b, s.tailFrac)
	b = putF64s(b, s.linkCap)
	b = putU32(b, len(s.paths))
	for f := range s.paths {
		b = putF64(b, s.baseRTT[f])
		b = putU32(b, len(s.paths[f]))
		for _, l := range s.paths[f] {
			b = putU32(b, l)
		}
	}
	for f := range s.windows {
		b = encodeRing(b, s.windows[f])
		b = encodeRing(b, s.goodput[f])
		b = encodeRing(b, s.flowRTT[f])
	}
	for l := range s.linkLoad {
		b = encodeRing(b, s.linkLoad[l])
		b = encodeRing(b, s.linkLoss[l])
	}
	return b
}

// decodeTopoRun reverses encodeTopoRun.
func decodeTopoRun(payload []byte) (*TopoStream, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("metrics: empty store payload")
	}
	if payload[0] != codecKindTopo {
		return nil, fmt.Errorf("metrics: store payload kind mismatch")
	}
	d := &decoder{b: payload, off: 1}
	s := &TopoStream{
		tailFrac: d.f64(),
		linkCap:  d.f64s(),
	}
	flows := d.u32()
	if d.err != nil || flows < 0 || flows > maxDecodeLen {
		d.fail()
		return nil, d.err
	}
	s.paths = make([][]int, flows)
	s.baseRTT = make([]float64, flows)
	for f := 0; f < flows; f++ {
		s.baseRTT[f] = d.f64()
		hops := d.u32()
		if d.err != nil || hops < 0 || hops > maxDecodeLen {
			d.fail()
			return nil, d.err
		}
		s.paths[f] = make([]int, hops)
		for i := range s.paths[f] {
			l := d.u32()
			if l < 0 || l >= len(s.linkCap) {
				d.fail()
				return nil, d.err
			}
			s.paths[f][i] = l
		}
	}
	s.windows = make([]*stats.Ring, flows)
	s.goodput = make([]*stats.Ring, flows)
	s.flowRTT = make([]*stats.Ring, flows)
	for f := 0; f < flows; f++ {
		s.windows[f] = d.ring()
		s.goodput[f] = d.ring()
		s.flowRTT[f] = d.ring()
	}
	s.linkLoad = make([]*stats.Ring, len(s.linkCap))
	s.linkLoss = make([]*stats.Ring, len(s.linkCap))
	for l := range s.linkCap {
		s.linkLoad[l] = d.ring()
		s.linkLoss[l] = d.ring()
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(payload) {
		return nil, fmt.Errorf("metrics: %d trailing bytes in store payload", len(payload)-d.off)
	}
	return s, nil
}

// decodeRun reverses encodeRun. wantRecorded guards against a key-scheme
// collision ever serving a stream where a trace was asked for (or vice
// versa); in practice the "stream|"/"trace|" key prefixes make the kinds
// disjoint.
func decodeRun(payload []byte, wantRecorded bool) (*Stream, *trace.Trace, error) {
	if len(payload) == 0 {
		return nil, nil, fmt.Errorf("metrics: empty store payload")
	}
	d := &decoder{b: payload, off: 1}
	switch payload[0] {
	case codecKindStream:
		if wantRecorded {
			return nil, nil, fmt.Errorf("metrics: store payload kind mismatch")
		}
		s := &Stream{
			tailFrac: d.f64(),
			capacity: d.f64(),
			baseRTT:  d.f64(),
		}
		flows := d.u32()
		if d.err != nil || flows < 0 || flows > maxDecodeLen {
			d.fail()
			return nil, nil, d.err
		}
		s.windows = make([]*stats.Ring, flows)
		s.goodput = make([]*stats.Ring, flows)
		for i := 0; i < flows; i++ {
			s.windows[i] = d.ring()
			s.goodput[i] = d.ring()
		}
		s.total = d.ring()
		s.rtt = d.ring()
		s.loss = d.ring()
		if d.err != nil {
			return nil, nil, d.err
		}
		if d.off != len(payload) {
			return nil, nil, fmt.Errorf("metrics: %d trailing bytes in store payload", len(payload)-d.off)
		}
		return s, nil, nil
	case codecKindTrace:
		if !wantRecorded {
			return nil, nil, fmt.Errorf("metrics: store payload kind mismatch")
		}
		capacity := d.f64()
		baseRTT := d.f64()
		n := d.u32()
		if d.err != nil || n < 0 || n > maxDecodeLen {
			d.fail()
			return nil, nil, d.err
		}
		windows := make([][]float64, n)
		for i := 0; i < n; i++ {
			windows[i] = d.f64s()
		}
		rtt := d.f64s()
		loss := d.f64s()
		total := d.f64s()
		if d.err != nil {
			return nil, nil, d.err
		}
		if d.off != len(payload) {
			return nil, nil, fmt.Errorf("metrics: %d trailing bytes in store payload", len(payload)-d.off)
		}
		if len(rtt) != len(total) || len(loss) != len(total) {
			return nil, nil, fmt.Errorf("metrics: store payload series length mismatch")
		}
		for _, w := range windows {
			if len(w) != len(total) {
				return nil, nil, fmt.Errorf("metrics: store payload series length mismatch")
			}
		}
		return nil, trace.Restore(windows, rtt, loss, total, capacity, baseRTT), nil
	default:
		return nil, nil, fmt.Errorf("metrics: unknown store payload kind %d", payload[0])
	}
}
