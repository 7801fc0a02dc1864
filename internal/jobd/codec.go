package jobd

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/metrics"
)

// ScoreBits is the bit-exact wire form of a metrics.Scores: each of the
// eight floats as IEEE-754 bits in hex. encoding/json cannot represent
// NaN or ±Inf at all, and decimal round-trips invite one-ULP drift at
// every hop (client → store → shard → stream); hex bits make "the
// resubmitted job returned bit-identical scores" a string comparison.
type ScoreBits struct {
	Efficiency       string `json:"eff"`
	FastUtilization  string `json:"fast"`
	LossAvoidance    string `json:"loss"`
	Fairness         string `json:"fair"`
	Convergence      string `json:"conv"`
	Robustness       string `json:"robust"`
	TCPFriendliness  string `json:"tcpf"`
	LatencyAvoidance string `json:"lat"`
}

// EncodeScores packs a Scores into its hex-bits wire form.
func EncodeScores(s metrics.Scores) ScoreBits {
	return ScoreBits{
		Efficiency:       hexBits(s.Efficiency),
		FastUtilization:  hexBits(s.FastUtilization),
		LossAvoidance:    hexBits(s.LossAvoidance),
		Fairness:         hexBits(s.Fairness),
		Convergence:      hexBits(s.Convergence),
		Robustness:       hexBits(s.Robustness),
		TCPFriendliness:  hexBits(s.TCPFriendliness),
		LatencyAvoidance: hexBits(s.LatencyAvoidance),
	}
}

// Decode unpacks the hex-bits form back into a Scores, bit-exact.
func (b ScoreBits) Decode() (metrics.Scores, error) {
	var s metrics.Scores
	for _, f := range []struct {
		hex string
		dst *float64
	}{
		{b.Efficiency, &s.Efficiency},
		{b.FastUtilization, &s.FastUtilization},
		{b.LossAvoidance, &s.LossAvoidance},
		{b.Fairness, &s.Fairness},
		{b.Convergence, &s.Convergence},
		{b.Robustness, &s.Robustness},
		{b.TCPFriendliness, &s.TCPFriendliness},
		{b.LatencyAvoidance, &s.LatencyAvoidance},
	} {
		bits, err := strconv.ParseUint(f.hex, 16, 64)
		if err != nil {
			return s, fmt.Errorf("jobd: score bits %q: %w", f.hex, err)
		}
		*f.dst = math.Float64frombits(bits)
	}
	return s, nil
}

// ScoreDisplay is the scores as ordinary JSON numbers for human
// consumers, with non-finite values (a NaN fairness on a degenerate
// cell) as null rather than breaking the encoder. The fields are in
// alphabetical order of their JSON names, the key order of the
// equivalent JSON object.
type ScoreDisplay struct {
	Convergence      *float64 `json:"convergence"`
	Efficiency       *float64 `json:"efficiency"`
	Fairness         *float64 `json:"fairness"`
	FastUtilization  *float64 `json:"fast_utilization"`
	LatencyAvoidance *float64 `json:"latency_avoidance"`
	LossAvoidance    *float64 `json:"loss_avoidance"`
	Robustness       *float64 `json:"robustness"`
	TCPFriendliness  *float64 `json:"tcp_friendliness"`
}

// Display renders the scores as a ScoreDisplay.
func (b ScoreBits) Display() (*ScoreDisplay, error) {
	s, err := b.Decode()
	if err != nil {
		return nil, err
	}
	shown := func(v *float64) *float64 {
		if finite(*v) {
			return v
		}
		return nil
	}
	return &ScoreDisplay{
		Convergence:      shown(&s.Convergence),
		Efficiency:       shown(&s.Efficiency),
		Fairness:         shown(&s.Fairness),
		FastUtilization:  shown(&s.FastUtilization),
		LatencyAvoidance: shown(&s.LatencyAvoidance),
		LossAvoidance:    shown(&s.LossAvoidance),
		Robustness:       shown(&s.Robustness),
		TCPFriendliness:  shown(&s.TCPFriendliness),
	}, nil
}
