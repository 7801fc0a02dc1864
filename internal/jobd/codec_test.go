package jobd

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/metrics"
)

// scoresBits returns the eight scores' IEEE-754 bit patterns.
func scoresBits(s metrics.Scores) [8]uint64 {
	return [8]uint64{
		math.Float64bits(s.Efficiency), math.Float64bits(s.FastUtilization),
		math.Float64bits(s.LossAvoidance), math.Float64bits(s.Fairness),
		math.Float64bits(s.Convergence), math.Float64bits(s.Robustness),
		math.Float64bits(s.TCPFriendliness), math.Float64bits(s.LatencyAvoidance),
	}
}

// FuzzScoreBitsDecode: ScoreBits arrive as JSON from shards and store
// entries. Decode must never panic on them, and scores it accepts must
// re-encode through EncodeScores to bits that decode identically.
func FuzzScoreBitsDecode(f *testing.F) {
	for _, s := range []metrics.Scores{
		{Efficiency: 0.1 + 0.2, FastUtilization: math.NaN(), LossAvoidance: math.Inf(1), Fairness: math.Copysign(0, -1)},
		{Convergence: math.SmallestNonzeroFloat64, Robustness: 1, TCPFriendliness: 0.9999999999999999, LatencyAvoidance: 42.42},
	} {
		raw, err := json.Marshal(EncodeScores(s))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"eff":"0003ff0000000000","fast":"0","loss":"0","fair":"0","conv":"0","robust":"0","tcpf":"0","lat":"0"}`))
	f.Add([]byte(`{"eff":"zz"}`))
	f.Add([]byte(`{"eff":"1ffffffffffffffff"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var b ScoreBits
		if json.Unmarshal(data, &b) != nil {
			return
		}
		s, err := b.Decode()
		if err != nil {
			return
		}
		again, err := EncodeScores(s).Decode()
		if err != nil {
			t.Fatalf("re-encoded scores do not decode: %v", err)
		}
		if scoresBits(again) != scoresBits(s) {
			t.Fatalf("re-encoded scores decode to different bits:\n%x\n%x", scoresBits(s), scoresBits(again))
		}
	})
}
