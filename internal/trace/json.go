package trace

import (
	"encoding/json"
	"fmt"
	"math"
)

// JSON codec for traces, so results that embed a *Trace (such as the
// engine's Result) round-trip through encoding/json bit-exactly — the
// encoding keyed sweeps persist their cells in. Floats are serialized as their IEEE-754 bit
// patterns (decimal uint64s, which encoding/json reads and writes
// exactly): this survives ±Inf capacities — an infinite link is a
// routine configuration — and NaN payloads, neither of which plain JSON
// floats can carry.

// traceJSON is the wire form of a Trace.
type traceJSON struct {
	Windows  [][]uint64 `json:"windows_bits"`
	RTT      []uint64   `json:"rtt_bits"`
	Loss     []uint64   `json:"loss_bits"`
	Total    []uint64   `json:"total_bits"`
	Capacity uint64     `json:"capacity_bits"`
	BaseRTT  uint64     `json:"base_rtt_bits"`
}

func toBits(vs []float64) []uint64 {
	out := make([]uint64, len(vs))
	for i, v := range vs {
		out[i] = math.Float64bits(v)
	}
	return out
}

func fromBits(bs []uint64) []float64 {
	out := make([]float64, len(bs))
	for i, b := range bs {
		out[i] = math.Float64frombits(b)
	}
	return out
}

// MarshalJSON implements json.Marshaler.
func (tr *Trace) MarshalJSON() ([]byte, error) {
	w := traceJSON{
		Windows:  make([][]uint64, tr.n),
		RTT:      toBits(tr.rtt),
		Loss:     toBits(tr.loss),
		Total:    toBits(tr.total),
		Capacity: math.Float64bits(tr.capac),
		BaseRTT:  math.Float64bits(tr.baseRTT),
	}
	for i, s := range tr.windows {
		w.Windows[i] = toBits(s)
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler. Mismatched series lengths
// are reported as errors rather than panicking, so a corrupt stored
// cell degrades to a recomputed one.
func (tr *Trace) UnmarshalJSON(data []byte) error {
	var w traceJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	steps := len(w.Total)
	if len(w.RTT) != steps || len(w.Loss) != steps {
		return fmt.Errorf("trace: mismatched series lengths in JSON")
	}
	windows := make([][]float64, len(w.Windows))
	for i, s := range w.Windows {
		if len(s) != steps {
			return fmt.Errorf("trace: mismatched series lengths in JSON")
		}
		windows[i] = fromBits(s)
	}
	*tr = *Restore(windows, fromBits(w.RTT), fromBits(w.Loss), fromBits(w.Total),
		math.Float64frombits(w.Capacity), math.Float64frombits(w.BaseRTT))
	return nil
}
