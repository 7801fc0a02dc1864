package metrics

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary codec for persisted run results. Floats are serialized as their
// IEEE-754 bit patterns (little-endian uint64), so a decoded result is
// bit-identical to the simulation that produced it — the persistent store
// changes cost, never scores. The layout carries no version field of its
// own: the store's canonical key already folds in a schema version and a
// source hash, so any change here must bump runstore.SchemaVersion.
//
// Streamed runs persist their frozen summaries (a few hundred bytes),
// the fast-utilization and robustness probes persist their one result,
// and the extension metrics persist a fixed 17-byte summary per run.

const (
	codecKindStream byte = 1 // *StreamSummary
	codecKindExt    byte = 2 // extSummary
	codecKindTopo   byte = 3 // *TopoSummary
	codecKindFloat  byte = 4 // one float64 score
	codecKindBool   byte = 5 // one bool verdict
)

func putU32(b []byte, v int) []byte {
	return binary.LittleEndian.AppendUint32(b, uint32(v))
}

func putU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func putF64(b []byte, v float64) []byte { return putU64(b, math.Float64bits(v)) }

func putF64s(b []byte, vs []float64) []byte {
	b = putU32(b, len(vs))
	for _, v := range vs {
		b = putF64(b, v)
	}
	return b
}

// decoder is a cursor over an encoded payload; the first decode error
// sticks and every later read returns zero values, so call sites check
// err once at the end (see finish).
type decoder struct {
	b   []byte
	off int
	err error
}

// newDecoder checks payload's kind byte and positions a decoder after it.
func newDecoder(payload []byte, kind byte) (*decoder, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("metrics: empty store payload")
	}
	if payload[0] != kind {
		return nil, fmt.Errorf("metrics: store payload kind %d, want %d", payload[0], kind)
	}
	return &decoder{b: payload, off: 1}, nil
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

// count reads a length field for elements of at least size bytes each
// and rejects one the rest of the payload cannot hold, so no length
// field can make the decoder allocate more than the payload's own size.
func (d *decoder) count(size int) int {
	n := d.u32()
	if d.err != nil || n < 0 || n > (len(d.b)-d.off)/size {
		d.fail()
		return 0
	}
	return n
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

func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *decoder) f64s() []float64 {
	n := d.count(8)
	if d.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.f64()
	}
	return out
}

// sameLen fails unless every slice in vs has length n.
func (d *decoder) sameLen(n int, vs ...[]float64) {
	for _, v := range vs {
		if len(v) != n {
			d.fail()
		}
	}
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("metrics: truncated or malformed store payload")
	}
}

// finish reports the sticky error, or an error if bytes remain unread.
func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("metrics: %d trailing bytes in store payload", len(d.b)-d.off)
	}
	return nil
}

// encodeStreamSummary serializes a fluid run's frozen summary.
func encodeStreamSummary(s *StreamSummary) []byte {
	b := make([]byte, 0, 1+7*8+2*(4+8*len(s.AvgWindows)))
	b = append(b, codecKindStream)
	b = putF64(b, s.Efficiency)
	b = putF64(b, s.LossAvoidance)
	b = putF64(b, s.Convergence)
	b = putF64(b, s.LatencyAvoidance)
	b = putF64(b, s.Utilization)
	b = putF64(b, s.MeanLoss)
	b = putF64(b, s.MeanRTT)
	b = putF64s(b, s.AvgWindows)
	return putF64s(b, s.AvgGoodputs)
}

// decodeStreamSummary reverses encodeStreamSummary.
func decodeStreamSummary(payload []byte) (*StreamSummary, error) {
	d, err := newDecoder(payload, codecKindStream)
	if err != nil {
		return nil, err
	}
	s := &StreamSummary{
		Efficiency:       d.f64(),
		LossAvoidance:    d.f64(),
		Convergence:      d.f64(),
		LatencyAvoidance: d.f64(),
		Utilization:      d.f64(),
		MeanLoss:         d.f64(),
		MeanRTT:          d.f64(),
		AvgWindows:       d.f64s(),
		AvgGoodputs:      d.f64s(),
	}
	d.sameLen(len(s.AvgWindows), s.AvgGoodputs)
	if err := d.finish(); err != nil {
		return nil, err
	}
	return s, nil
}

// encodeTopoSummary serializes a nettopo run's frozen summary: the
// per-link arrays first (their length is the link count every path index
// is checked against), then the per-flow arrays and paths.
func encodeTopoSummary(s *TopoSummary) []byte {
	b := make([]byte, 0, 64+8*(4*len(s.LinkUtil)+5*len(s.Paths)))
	b = append(b, codecKindTopo)
	for _, v := range [][]float64{s.LinkUtil, s.LinkEff, s.LinkMaxLoss, s.LinkMeanLoss,
		s.BaseRTT, s.AvgWindows, s.AvgGoodputs, s.RTTInflations} {
		b = putF64s(b, v)
	}
	for _, path := range s.Paths {
		b = putU32(b, len(path))
		for _, l := range path {
			b = putU32(b, l)
		}
	}
	return putF64(b, s.Convergence)
}

// decodeTopoSummary reverses encodeTopoSummary. Every path must be
// non-empty and name only links the summary carries.
func decodeTopoSummary(payload []byte) (*TopoSummary, error) {
	d, err := newDecoder(payload, codecKindTopo)
	if err != nil {
		return nil, err
	}
	s := &TopoSummary{
		LinkUtil:      d.f64s(),
		LinkEff:       d.f64s(),
		LinkMaxLoss:   d.f64s(),
		LinkMeanLoss:  d.f64s(),
		BaseRTT:       d.f64s(),
		AvgWindows:    d.f64s(),
		AvgGoodputs:   d.f64s(),
		RTTInflations: d.f64s(),
	}
	links, flows := len(s.LinkUtil), len(s.BaseRTT)
	d.sameLen(links, s.LinkEff, s.LinkMaxLoss, s.LinkMeanLoss)
	d.sameLen(flows, s.AvgWindows, s.AvgGoodputs, s.RTTInflations)
	if d.err != nil {
		return nil, d.err
	}
	s.Paths = make([][]int, flows)
	for f := range s.Paths {
		hops := d.count(4)
		if d.err != nil || hops == 0 {
			d.fail()
			return nil, d.err
		}
		s.Paths[f] = make([]int, hops)
		for i := range s.Paths[f] {
			l := d.u32()
			if l < 0 || l >= links {
				d.fail()
				return nil, d.err
			}
			s.Paths[f][i] = l
		}
	}
	s.Convergence = d.f64()
	if err := d.finish(); err != nil {
		return nil, err
	}
	return s, nil
}

// encodeExt serializes an extension summary: the settle step as a
// two's-complement int64 (so -1, "never settled", round-trips), then the
// smoothness bits.
func encodeExt(s extSummary) []byte {
	b := putU64([]byte{codecKindExt}, uint64(int64(s.settle)))
	return putF64(b, s.smooth)
}

// decodeExt reverses encodeExt; a settle step below -1 is malformed.
func decodeExt(payload []byte) (extSummary, error) {
	d, err := newDecoder(payload, codecKindExt)
	if err != nil {
		return extSummary{}, err
	}
	s := extSummary{settle: int(int64(d.u64())), smooth: d.f64()}
	if s.settle < -1 {
		d.fail()
	}
	if err := d.finish(); err != nil {
		return extSummary{}, err
	}
	return s, nil
}

// encodeFloat serializes a probe's one float64 score.
func encodeFloat(v float64) []byte { return putF64([]byte{codecKindFloat}, v) }

// decodeFloat reverses encodeFloat.
func decodeFloat(payload []byte) (float64, error) {
	d, err := newDecoder(payload, codecKindFloat)
	if err != nil {
		return 0, err
	}
	v := d.f64()
	return v, d.finish()
}

// encodeBool serializes a probe's one bool verdict as a 0/1 byte.
func encodeBool(v bool) []byte {
	if v {
		return []byte{codecKindBool, 1}
	}
	return []byte{codecKindBool, 0}
}

// decodeBool reverses encodeBool; any byte but 0 or 1 is malformed.
func decodeBool(payload []byte) (bool, error) {
	if len(payload) != 2 || payload[0] != codecKindBool || payload[1] > 1 {
		return false, fmt.Errorf("metrics: malformed bool store payload")
	}
	return payload[1] == 1, nil
}
