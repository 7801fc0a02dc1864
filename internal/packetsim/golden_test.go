package packetsim

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/fluid"
	"repro/internal/protocol"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/runs_golden.json")

// goldenDuration is the simulated time of every pinned run: 50 ticks of
// goldenLink's 80 ms sampling interval, which is also the chaos step.
const goldenDuration = 4

// goldenLink is a small bottleneck (C = 20 MSS, 25-packet buffer) that
// congests within the first second, so every run exercises drops.
func goldenLink() Config {
	return Config{Bandwidth: 500, PropDelay: 0.02, Buffer: 25, Tick: 0.08}
}

// dyadicLink is a 512 MSS/s bottleneck with Θ = 1/64 s and the default
// tick: every delay is a power of two, so float sums stay exact and
// events tie often.
func dyadicLink(buffer int) Config {
	return Config{Bandwidth: 512, PropDelay: 1.0 / 64, Buffer: buffer}
}

// goldenCase is one pinned run. setup builds a fresh config and flow set
// on every call: a compiled chaos injector carries its own clock.
type goldenCase struct {
	name  string
	setup func(t *testing.T) (Config, []Flow)
}

// chaosCase runs Reno against Cubic on goldenLink under the schedule.
func chaosCase(name string, events ...chaos.Event) goldenCase {
	return goldenCase{name, func(t *testing.T) (Config, []Flow) {
		cfg := goldenLink()
		inj, err := (&chaos.Schedule{Events: events}).Compile(11, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Perturb = inj
		return cfg, []Flow{{Proto: protocol.Reno(), Init: 1}, {Proto: protocol.CubicLinux(), Init: 8}}
	}}
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{"droptail", func(*testing.T) (Config, []Flow) {
			return goldenLink(), []Flow{{Proto: protocol.Reno(), Init: 1}, {Proto: protocol.Scalable(), Init: 10}}
		}},
		{"red-random-loss", func(*testing.T) (Config, []Flow) {
			cfg := goldenLink()
			cfg.Queue = NewRED(5, 20, 0.1, 25)
			cfg.RandomLoss = 0.01
			cfg.Seed = 9
			return cfg, []Flow{{Proto: protocol.Reno(), Init: 1}, {Proto: protocol.NewRobustAIMD(1, 0.8, 0.01), Init: 4}}
		}},
		{"extra-delay-staggered", func(*testing.T) (Config, []Flow) {
			return goldenLink(), []Flow{
				{Proto: protocol.Reno(), Init: 1, ExtraDelay: 0.01},
				{Proto: protocol.CubicLinux(), Init: 1, ExtraDelay: 0.03, Start: 1.3},
			}
		}},
		{"shared-extra-delay", func(*testing.T) (Config, []Flow) {
			return goldenLink(), []Flow{
				{Proto: protocol.Reno(), Init: 1, ExtraDelay: 0.01},
				{Proto: protocol.CubicLinux(), Init: 2, ExtraDelay: 0.025, Start: 0.7},
				{Proto: protocol.Scalable(), Init: 1, ExtraDelay: 0.01, Start: 1.1},
				{Proto: protocol.NewRobustAIMD(1, 0.8, 0.01), Init: 3, Start: 1.9},
			}
		}},
		{"dyadic-ties", func(*testing.T) (Config, []Flow) {
			// Every time is a binary fraction: service 1/512 s, Θ = 1/64 s
			// and the default tick 2Θ, which equals the ACK's return
			// delay. Departures, arrivals and ACKs land on the same
			// instants thousands of times.
			return dyadicLink(25), []Flow{{Proto: protocol.Reno(), Init: 1}, {Proto: protocol.Scalable(), Init: 10}}
		}},
		{"shared-class-drops", func(*testing.T) (Config, []Flow) {
			// Two senders in one delay class on a shallow dyadic buffer:
			// most drops strike arrivals that tie a departure.
			return dyadicLink(8), []Flow{
				{Proto: protocol.Reno(), Init: 1, ExtraDelay: 1.0 / 256},
				{Proto: protocol.CubicLinux(), Init: 4, ExtraDelay: 1.0 / 256},
			}
		}},
		{"emulab-100-staggered", func(*testing.T) (Config, []Flow) {
			// The paper's 100 Mbps Emulab link (42 ms RTT, 100-packet
			// buffer) with three staggered flows.
			cfg := Config{Bandwidth: fluid.MbpsToMSSps(100), PropDelay: 0.042 / 2, Buffer: 100}
			return cfg, []Flow{
				{Proto: protocol.Reno(), Init: 1},
				{Proto: protocol.CubicLinux(), Init: 1, Start: 0.5},
				{Proto: protocol.Scalable(), Init: 1, Start: 1},
			}
		}},
		chaosCase("rtt-jitter", chaos.Event{Kind: chaos.KindRTTJitter, At: 5, Duration: 40, Amplitude: 0.01}),
		chaosCase("base-rtt-step-down",
			chaos.Event{Kind: chaos.KindBaseRTTStep, At: 10, Delta: 0.02},
			chaos.Event{Kind: chaos.KindBaseRTTStep, At: 25, Delta: -0.035}),
		chaosCase("capacity-flap",
			chaos.Event{Kind: chaos.KindLinkFlap, At: 15, Duration: 5},
			chaos.Event{Kind: chaos.KindCapacityScale, At: 30, Duration: 10, Scale: 0.5}),
		chaosCase("flow-churn",
			chaos.Event{Kind: chaos.KindFlowDepart, At: 15, Flow: 1},
			chaos.Event{Kind: chaos.KindFlowArrive, At: 30, Flow: 1}),
	}
}

// goldenRun is one run's outputs as hex: Delivered as integers, every
// float as its IEEE-754 bit pattern, each series space-separated.
type goldenRun struct {
	Name            string   `json:"name"`
	Delivered       []string `json:"delivered"`
	DeliveredSeries []string `json:"delivered_series"`
	RTT             string   `json:"rtt"`
	Loss            string   `json:"loss"`
}

func hexBits(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatUint(math.Float64bits(v), 16)
	}
	return strings.Join(parts, " ")
}

func measureGoldenRun(t *testing.T, c goldenCase) goldenRun {
	t.Helper()
	cfg, flows := c.setup(t)
	res, tk, err := runTicks(cfg, flows, goldenDuration)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	g := goldenRun{Name: c.name, RTT: hexBits(tk.rtt), Loss: hexBits(tk.loss)}
	for i, d := range res.Delivered {
		g.Delivered = append(g.Delivered, strconv.FormatInt(d, 16))
		g.DeliveredSeries = append(g.DeliveredSeries, hexBits(res.DeliveredSeries[i]))
	}
	return g
}

// TestRunsGolden pins, bit for bit, the delivered counts, per-tick
// delivery series and per-tick RTT/loss of packet runs covering droptail,
// RED with random loss, per-flow extra delay with a staggered start, four
// staggered flows of which two share an extra delay, a dyadic link on
// which events tie at equal times, drops on departure instants within one
// delay class, the paper's 100 Mbps link with three staggered flows, and
// chaos schedules that jitter the RTT, step it down, flap the link and
// churn a flow (testdata/runs_golden.json). The event loop may be
// restructured freely; any change in event order shows here. Regenerate
// only for an intentional change: `go test ./internal/packetsim -run
// TestRunsGolden -update`.
func TestRunsGolden(t *testing.T) {
	var got []goldenRun
	for _, c := range goldenCases() {
		got = append(got, measureGoldenRun(t, c))
	}
	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')
	path := filepath.Join("testdata", "runs_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if bytes.Equal(raw, want) {
		return
	}
	var fx []goldenRun
	if err := json.Unmarshal(want, &fx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(got) || i < len(fx); i++ {
		switch {
		case i >= len(fx):
			t.Errorf("run %q: not in fixture", got[i].Name)
		case i >= len(got):
			t.Errorf("run %q: missing", fx[i].Name)
		default:
			a, _ := json.Marshal(got[i])
			b, _ := json.Marshal(fx[i])
			if !bytes.Equal(a, b) {
				t.Errorf("run %q:\n got %s\nwant %s", got[i].Name, a, b)
			}
		}
	}
	if !t.Failed() {
		t.Errorf("fixture bytes differ from the measured runs:\n%s", raw)
	}
}
