package jobd

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// goodSpec and badSpecs are the spec-validation cases; they also seed
// FuzzParseSpec.
const goodSpec = `{"protocols":["reno","cubic"],"senders":2,"link":{"mbps":[20],"rtt_ms":[42],"buffer_mss":[100]}}`

var badSpecs = []string{
	`{"senders":2,"link":{"mbps":[20],"rtt_ms":[42],"buffer_mss":[100]}}`,                               // no protocols
	`{"protocols":["reno"],"senders":1,"link":{"mbps":[20],"rtt_ms":[42],"buffer_mss":[100]}}`,          // 1 sender
	`{"protocols":["reno"],"senders":2,"link":{"mbps":[],"rtt_ms":[42],"buffer_mss":[100]}}`,            // empty axis
	`{"protocols":["reno"],"senders":2,"link":{"mbps":[-5],"rtt_ms":[42],"buffer_mss":[100]}}`,          // negative mbps
	`{"protocols":["nosuch"],"senders":2,"link":{"mbps":[20],"rtt_ms":[42],"buffer_mss":[100]}}`,        // unknown protocol
	`{"protocols":["reno"],"senders":2,"link":{"mbps":[20],"rtt_ms":[42],"buffer_mss":[100]},"x":true}`, // unknown field
	`{"protocols":["reno"],"senders":2,"link":{"mbps":[20],"rtt_ms":[42],"buffer_mss":[100]},"chaos":{"events":[{"kind":"bogus","at":1}]}}`,
	`{"protocols":["reno","cubic","nosuch"],"senders":2,"link":{"mbps":[20],"rtt_ms":[42],"buffer_mss":[100]}}`,      // bad value late on the longest axis
	`{"protocols":["reno","cubic","scalable"],"senders":2,"link":{"mbps":[20,-1],"rtt_ms":[42],"buffer_mss":[100]}}`, // bad value late on a shorter axis
	`{"protocols":["reno"],"senders":2,"link":{"mbps":[20],"rtt_ms":[42],"buffer_mss":[100]},"tail_frac":7}`,
	`{"protocols":["reno"],"senders":2,"link":{"mbps":[20],"rtt_ms":[42],"buffer_mss":[100]},"steps":1048577}`,
}

func TestParseSpecValidates(t *testing.T) {
	sp, err := ParseSpec([]byte(goodSpec))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sp.Expand()); got != 2 {
		t.Fatalf("expanded to %d cells, want 2", got)
	}
	for _, b := range badSpecs {
		if _, err := ParseSpec([]byte(b)); err == nil {
			t.Errorf("spec accepted, want error: %s", b)
		}
	}
}

// TestParseSpecRejectsOverflowingGrid: four axes of 2^16 entries each
// multiply to 2^64 cells, which wraps a plain int product to 0. The
// spec (under 1 MB, well inside the server's body limit) must be
// rejected, not expanded.
func TestParseSpecRejectsOverflowingGrid(t *testing.T) {
	axis := func(v string) string { return "[" + strings.Repeat(v+",", 1<<16-1) + v + "]" }
	spec := `{"protocols":` + axis(`"reno"`) + `,"senders":2,"link":{"mbps":` + axis("1") +
		`,"rtt_ms":` + axis("1") + `,"buffer_mss":` + axis("1") + `}}`
	if _, err := ParseSpec([]byte(spec)); err == nil {
		t.Fatal("a 2^64-cell grid was accepted")
	}
}

// FuzzParseSpec: ParseSpec never panics on arbitrary bytes, and every
// spec it accepts expands to between 1 and maxCellsPerJob cells, each
// with a canonical store key.
func FuzzParseSpec(f *testing.F) {
	f.Add([]byte(goodSpec))
	for _, b := range badSpecs {
		f.Add([]byte(b))
	}
	f.Add([]byte(`{"protocols":["reno","aimd:1,0.875"],"senders":3,"link":{"mbps":[10,20],"rtt_ms":[42],"buffer_mss":[0,50]},"steps":800,"tail_frac":0.5,"chaos":{"events":[{"kind":"ge-loss","at":0,"p_good_bad":0.02,"p_bad_good":0.3,"loss_bad":0.08,"flow":-1,"link":-1}]},"chaos_seed":7}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := ParseSpec(data)
		if err != nil {
			return
		}
		cells := sp.Expand()
		if len(cells) < 1 || len(cells) > maxCellsPerJob {
			t.Fatalf("accepted spec expanded to %d cells", len(cells))
		}
		for i := range cells {
			if _, err := cells[i].Key(); err != nil {
				t.Fatalf("cell %d of an accepted spec has no key: %v", i, err)
			}
		}
	})
}

func TestExpandDeterministicOrder(t *testing.T) {
	sp := &Spec{
		Protocols: []string{"reno", "cubic"},
		Senders:   2,
		Link:      LinkGrid{Mbps: []float64{10, 20}, RTTms: []float64{42}, BufferMSS: []float64{50, 100}},
	}
	a, b := sp.Expand(), sp.Expand()
	if len(a) != 8 {
		t.Fatalf("got %d cells, want 8", len(a))
	}
	for i := range a {
		if a[i].Index != i {
			t.Fatalf("cell %d has index %d", i, a[i].Index)
		}
		ka, err := a[i].Key()
		if err != nil {
			t.Fatal(err)
		}
		kb, _ := b[i].Key()
		if ka != kb {
			t.Fatalf("expansion not deterministic at cell %d: %s vs %s", i, ka, kb)
		}
	}
	// Protocols are the outermost axis: the first half is all reno.
	for i := 0; i < 4; i++ {
		if a[i].Proto != "reno" || a[i+4].Proto != "cubic" {
			t.Fatalf("unexpected protocol order at %d: %s / %s", i, a[i].Proto, a[i+4].Proto)
		}
	}
}

func TestCellKeyCanonicalizesProtocolSpelling(t *testing.T) {
	mk := func(proto string) string {
		c := Cell{Proto: proto, Senders: 2, Mbps: 20, RTTms: 42, BufferMSS: 100}
		k, err := c.Key()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	// "reno" is AIMD(1, 0.5): two spellings of the same protocol must
	// share one store key so two jobs share one simulation.
	if mk("reno") != mk("aimd:1,0.5") {
		t.Fatal("reno and aimd:1,0.5 got different cell keys")
	}
	if mk("reno") == mk("aimd:1,0.875") {
		t.Fatal("distinct protocols collided on one cell key")
	}
	if !strings.HasPrefix(mk("reno"), "jobcell|") {
		t.Fatalf("key missing namespace prefix: %s", mk("reno"))
	}
}

func TestSpecTimeoutsFallBack(t *testing.T) {
	sp := &Spec{}
	if got := sp.CellTimeout(time.Minute); got != time.Minute {
		t.Fatalf("CellTimeout default: %v", got)
	}
	sp.CellTimeoutMS = 250
	if got := sp.CellTimeout(time.Minute); got != 250*time.Millisecond {
		t.Fatalf("CellTimeout override: %v", got)
	}
}

func TestScoreBitsRoundTrip(t *testing.T) {
	s := metrics.Scores{
		Efficiency:       0.1 + 0.2, // a value with no short decimal form
		FastUtilization:  math.NaN(),
		LossAvoidance:    math.Inf(1),
		Fairness:         -0.0,
		Convergence:      math.SmallestNonzeroFloat64,
		Robustness:       1,
		TCPFriendliness:  0.9999999999999999,
		LatencyAvoidance: 42.42,
	}
	back, err := EncodeScores(s).Decode()
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, a, b float64) {
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("%s not bit-identical: %x vs %x", name, math.Float64bits(a), math.Float64bits(b))
		}
	}
	check("eff", s.Efficiency, back.Efficiency)
	check("fast", s.FastUtilization, back.FastUtilization)
	check("loss", s.LossAvoidance, back.LossAvoidance)
	check("fair", s.Fairness, back.Fairness)
	check("conv", s.Convergence, back.Convergence)
	check("robust", s.Robustness, back.Robustness)
	check("tcpf", s.TCPFriendliness, back.TCPFriendliness)
	check("lat", s.LatencyAvoidance, back.LatencyAvoidance)

	disp, err := EncodeScores(s).Display()
	if err != nil {
		t.Fatal(err)
	}
	if disp.FastUtilization != nil {
		t.Fatal("NaN must display as null")
	}
	if disp.Efficiency == nil || *disp.Efficiency != s.Efficiency {
		t.Fatal("finite display value mangled")
	}

	if _, err := (ScoreBits{Efficiency: "zz"}).Decode(); err == nil {
		t.Fatal("malformed hex bits decoded")
	}
}
