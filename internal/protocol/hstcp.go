package protocol

import (
	"fmt"
	"math"
	"sort"
)

// HighSpeed implements HighSpeed TCP (RFC 3649), the window-dependent
// AIMD generalization designed for large bandwidth-delay products: below
// LowWindow it behaves exactly like standard TCP (AIMD(1, 0.5)); above
// it, the additive increase a(w) grows and the multiplicative decrease
// b(w) shrinks with the window, following the RFC's response function.
// HighSpeed TCP is the classic example of a protocol that buys
// fast-utilization at large windows by giving up TCP-friendliness there —
// exactly the trade Theorem 2 prices — while remaining 1-TCP-friendly in
// the low-window regime.
type HighSpeed struct {
	// LowWindow is the window below which the protocol is standard TCP
	// (RFC 3649 default: 38 MSS).
	LowWindow float64
}

// NewHighSpeed returns HighSpeed TCP with the RFC 3649 default low-window
// threshold of 38 MSS.
func NewHighSpeed() *HighSpeed { return &HighSpeed{LowWindow: 38} }

// hsEntry is one row of the RFC 3649 response table: at window W the
// protocol uses additive increase A and multiplicative decrease factor
// 1−B (the RFC tabulates the decrease fraction B).
type hsEntry struct {
	W float64 // window in MSS
	A float64 // additive increase a(w)
	B float64 // decrease fraction b(w); new window = w·(1−B)
}

// hsTable is an abridgment of the RFC 3649 table (its full version has 71
// rows; these anchor rows preserve the curve's shape and endpoints, and
// intermediate windows are interpolated logarithmically as the RFC
// specifies for implementations).
var hsTable = []hsEntry{
	{38, 1, 0.50},
	{118, 2, 0.44},
	{221, 3, 0.41},
	{347, 4, 0.38},
	{495, 5, 0.37},
	{663, 6, 0.35},
	{1058, 8, 0.33},
	{1627, 10, 0.31},
	{2375, 12, 0.29},
	{3307, 14, 0.28},
	{5063, 17, 0.26},
	{8388, 21, 0.24},
	{12748, 25, 0.23},
	{21864, 31, 0.21},
	{35665, 38, 0.19},
	{56847, 46, 0.18},
	{83981, 53, 0.17},
}

// hsParams returns (a(w), b(w)) by log-linear interpolation of the table,
// clamping to the endpoints.
func hsParams(w float64) (a, b float64) {
	if w <= hsTable[0].W {
		return hsTable[0].A, hsTable[0].B
	}
	last := hsTable[len(hsTable)-1]
	if w >= last.W {
		return last.A, last.B
	}
	i := sort.Search(len(hsTable), func(i int) bool { return hsTable[i].W >= w })
	lo, hi := hsTable[i-1], hsTable[i]
	frac := (math.Log(w) - math.Log(lo.W)) / (math.Log(hi.W) - math.Log(lo.W))
	return lo.A + frac*(hi.A-lo.A), lo.B + frac*(hi.B-lo.B)
}

// Next implements Protocol.
func (p *HighSpeed) Next(fb Feedback) float64 {
	k, _ := p.Kernel()
	return k.Step(fb.Window, fb.Loss)
}

// LossBased implements Protocol.
func (p *HighSpeed) LossBased() bool { return true }

// Name implements Protocol.
func (p *HighSpeed) Name() string {
	return fmt.Sprintf("HSTCP(low=%g)", p.LowWindow)
}

// Clone implements Protocol.
func (p *HighSpeed) Clone() Protocol { c := *p; return &c }
