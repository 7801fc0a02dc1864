package scenario

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/fluid"
	"repro/internal/packetsim"
	"repro/internal/protocol"
)

const fluidSpec = `{
  "name": "two-renos",
  "model": "fluid",
  "steps": 1500,
  "link": {"mbps": 20, "rtt_ms": 42, "buffer_mss": 100},
  "flows": [
    {"protocol": "reno", "init": 1},
    {"protocol": "reno", "init": 60}
  ]
}`

func TestLoadAndRunFluid(t *testing.T) {
	s, err := Load(strings.NewReader(fluidSpec))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "two-renos" || s.Model != "fluid" {
		t.Fatalf("spec = %+v", s)
	}
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Flows) != 2 {
		t.Fatalf("flows = %d", len(out.Flows))
	}
	// Two Renos split fairly.
	if math.Abs(out.Flows[0].Share-0.5) > 0.1 {
		t.Errorf("share = %v, want ≈ 0.5", out.Flows[0].Share)
	}
	if out.Summary["efficiency"] < 0.9 {
		t.Errorf("efficiency = %v", out.Summary["efficiency"])
	}
	if out.Summary["jain_goodput"] < 0.95 {
		t.Errorf("jain = %v", out.Summary["jain_goodput"])
	}
}

func TestRunPacketWithREDAndDelays(t *testing.T) {
	spec := `{
	  "name": "red-mix",
	  "model": "packet",
	  "duration": 20,
	  "link": {"mbps": 20, "rtt_ms": 42, "buffer_mss": 100,
	           "red": {"min_thresh": 10, "max_thresh": 40, "max_p": 0.1}},
	  "flows": [
	    {"protocol": "reno"},
	    {"protocol": "cubic", "extra_delay_ms": 20, "start": 2}
	  ]
	}`
	s, err := Load(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Summary["efficiency"] < 0.5 {
		t.Errorf("efficiency = %v", out.Summary["efficiency"])
	}
	// RED keeps the standing queue short.
	if out.Summary["latency_inflation"] > 1 {
		t.Errorf("latency inflation = %v under RED", out.Summary["latency_inflation"])
	}
}

func TestRunNettopoParkingLot(t *testing.T) {
	spec := `{
	  "name": "lot",
	  "model": "nettopo",
	  "steps": 2000,
	  "stochastic_loss": true,
	  "seed": 7,
	  "links": [
	    {"mbps": 20, "rtt_ms": 42, "buffer_mss": 20},
	    {"mbps": 20, "rtt_ms": 42, "buffer_mss": 20}
	  ],
	  "flows": [
	    {"protocol": "reno", "path": [0, 1]},
	    {"protocol": "reno", "path": [0]},
	    {"protocol": "reno", "path": [1]}
	  ]
	}`
	s, err := Load(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The long flow's share is the smallest.
	if out.Flows[0].Share >= out.Flows[1].Share {
		t.Errorf("long flow share %v ≥ short %v", out.Flows[0].Share, out.Flows[1].Share)
	}
}

func TestRunNettopoIncast(t *testing.T) {
	spec := `{
	  "name": "mini-incast",
	  "model": "nettopo",
	  "steps": 1500,
	  "links": [
	    {"mbps": 40, "rtt_ms": 10, "buffer_mss": 20, "src": "s0", "dst": "sw"},
	    {"mbps": 40, "rtt_ms": 10, "buffer_mss": 20, "src": "s1", "dst": "sw"},
	    {"mbps": 20, "rtt_ms": 20, "buffer_mss": 40, "src": "sw", "dst": "sink"}
	  ],
	  "flows": [
	    {"protocol": "reno", "path": [0, 2], "extra_rtt_ms": 5},
	    {"protocol": "reno", "path": [1, 2]}
	  ]
	}`
	s, err := Load(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Flows) != 2 {
		t.Fatalf("got %d flow outcomes", len(out.Flows))
	}
	for i, f := range out.Flows {
		if f.Goodput <= 0 || f.AvgWindow <= 0 {
			t.Errorf("flow %d: goodput %v window %v", i, f.Goodput, f.AvgWindow)
		}
	}
	// Both flows share the core link, so fairness is defined.
	fair, ok := out.Summary["fairness"]
	if !ok || fair <= 0 || fair > 1 {
		t.Errorf("fairness = %v (present=%v)", fair, ok)
	}
	if eff, ok := out.Summary["efficiency"]; !ok || eff <= 0 {
		t.Errorf("efficiency = %v (present=%v)", eff, ok)
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		spec string
		want string
	}{
		{"unknown model", `{"name":"x","model":"ns3","flows":[{"protocol":"reno"}]}`, "unknown model"},
		{"fluid without link", `{"name":"x","model":"fluid","flows":[{"protocol":"reno"}]}`, `needs a "link"`},
		{"unknown model multilink", `{"name":"x","model":"multilink","links":[{"mbps":20,"rtt_ms":42,"buffer_mss":10}],"flows":[{"protocol":"reno","path":[0]}]}`, "unknown model"},
		{"nettopo without links", `{"name":"x","model":"nettopo","flows":[{"protocol":"reno","path":[0]}]}`, `needs "links"`},
		{"no flows", `{"name":"x","model":"fluid","link":{"mbps":20,"rtt_ms":42,"buffer_mss":10},"flows":[]}`, "at least one flow"},
		{"missing protocol", `{"name":"x","model":"fluid","link":{"mbps":20,"rtt_ms":42,"buffer_mss":10},"flows":[{}]}`, "no protocol"},
		{"path on fluid", `{"name":"x","model":"fluid","link":{"mbps":20,"rtt_ms":42,"buffer_mss":10},"flows":[{"protocol":"reno","path":[0]}]}`, "nettopo"},
		{"nettopo flow without path", `{"name":"x","model":"nettopo","links":[{"mbps":20,"rtt_ms":42,"buffer_mss":10}],"flows":[{"protocol":"reno"}]}`, "needs a path"},
		{"unknown field", `{"name":"x","model":"fluid","bogus":1,"link":{"mbps":20,"rtt_ms":42,"buffer_mss":10},"flows":[{"protocol":"reno"}]}`, "bogus"},
		{"links on fluid", `{"name":"x","model":"fluid","link":{"mbps":20,"rtt_ms":42,"buffer_mss":10},"links":[{"mbps":20,"rtt_ms":42,"buffer_mss":10}],"flows":[{"protocol":"reno"}]}`, "nettopo"},
		{"extra_rtt_ms on fluid", `{"name":"x","model":"fluid","link":{"mbps":20,"rtt_ms":42,"buffer_mss":10},"flows":[{"protocol":"reno","extra_rtt_ms":5}]}`, "nettopo"},
		{"cyclic nettopo", `{"name":"x","model":"nettopo","links":[{"mbps":20,"rtt_ms":42,"buffer_mss":10,"src":"a","dst":"b"},{"mbps":20,"rtt_ms":42,"buffer_mss":10,"src":"b","dst":"a"}],"flows":[{"protocol":"reno","path":[0]}]}`, "cycle"},
		{"tail_frac 3", `{"name":"x","model":"fluid","tail_frac":3,"link":{"mbps":20,"rtt_ms":42,"buffer_mss":10},"flows":[{"protocol":"reno"}]}`, "tail_frac"},
		{"tail_frac 1", `{"name":"x","model":"packet","tail_frac":1,"link":{"mbps":20,"rtt_ms":42,"buffer_mss":10},"flows":[{"protocol":"reno"}]}`, "tail_frac"},
		{"negative tail_frac", `{"name":"x","model":"nettopo","tail_frac":-0.5,"links":[{"mbps":20,"rtt_ms":42,"buffer_mss":10}],"flows":[{"protocol":"reno","path":[0]}]}`, "tail_frac"},
		{"discontiguous nettopo path", `{"name":"x","model":"nettopo","links":[{"mbps":20,"rtt_ms":42,"buffer_mss":10,"src":"a","dst":"b"},{"mbps":20,"rtt_ms":42,"buffer_mss":10,"src":"c","dst":"d"}],"flows":[{"protocol":"reno","path":[0,1]}]}`, "contiguous"},
	}
	for _, c := range cases {
		_, err := Load(strings.NewReader(c.spec))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q lacks %q", c.name, err, c.want)
		}
	}
}

func TestBadProtocolSurfacesAtRun(t *testing.T) {
	spec := `{"name":"x","model":"fluid","link":{"mbps":20,"rtt_ms":42,"buffer_mss":10},"flows":[{"protocol":"nosuch"}]}`
	s, err := Load(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil || !strings.Contains(err.Error(), "unknown protocol") {
		t.Fatalf("err = %v", err)
	}
}

func TestOutcomeRenderAndJSON(t *testing.T) {
	s, err := Load(strings.NewReader(fluidSpec))
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	text := out.Render()
	for _, want := range []string{"two-renos", "AIMD(1,0.5)", "efficiency="} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q:\n%s", want, text)
		}
	}
	raw, err := out.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var parsed Outcome
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatalf("JSON round trip: %v", err)
	}
	if parsed.Name != "two-renos" || len(parsed.Flows) != 2 {
		t.Fatalf("parsed = %+v", parsed)
	}
}

func TestUnsyncFlowsInFluidSpec(t *testing.T) {
	spec := `{
	  "name": "unsync",
	  "model": "fluid",
	  "steps": 1500,
	  "link": {"mbps": 20, "rtt_ms": 42, "buffer_mss": 20},
	  "flows": [
	    {"protocol": "reno", "period": 1},
	    {"protocol": "reno", "period": 4}
	  ]
	}`
	s, err := Load(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The slow updater loses.
	if out.Flows[1].AvgWindow >= out.Flows[0].AvgWindow {
		t.Errorf("period-4 flow (%v) ≥ period-1 flow (%v)",
			out.Flows[1].AvgWindow, out.Flows[0].AvgWindow)
	}
}

// TestValidateRejectsNaNTailFrac: JSON cannot carry NaN, but a Spec
// built in code can, and Validate must reject it like any value outside
// [0, 1).
func TestValidateRejectsNaNTailFrac(t *testing.T) {
	s, err := Load(strings.NewReader(fluidSpec))
	if err != nil {
		t.Fatal(err)
	}
	s.TailFrac = math.NaN()
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "tail_frac") {
		t.Fatalf("NaN tail_frac: err = %v", err)
	}
}

// TestValidatePacketFlowsLikePacketsim maps each packet flow value
// packetsim refuses onto a Validate error, so lint rejects what a run
// would: JSON carries the negative values, a Spec built in code the
// non-finite ones. The accepted edge values pass both.
func TestValidatePacketFlowsLikePacketsim(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	cases := []struct {
		name  string
		flow  Flow
		field string // "" when the flow is valid
	}{
		{"negative start", Flow{Start: -1}, "start"},
		{"-Inf start", Flow{Start: -inf}, "start"},
		{"+Inf start", Flow{Start: inf}, "start"},
		{"NaN start", Flow{Start: nan}, "start"},
		{"negative extra delay", Flow{ExtraDelayMs: -5}, "extra_delay_ms"},
		{"+Inf extra delay", Flow{ExtraDelayMs: inf}, "extra_delay_ms"},
		{"NaN extra delay", Flow{ExtraDelayMs: nan}, "extra_delay_ms"},
		{"+Inf init", Flow{Init: inf}, "init"},
		{"-Inf init", Flow{Init: -inf}, "init"},
		{"NaN init", Flow{Init: nan}, "init"},
		{"zero start, delay and init", Flow{}, ""},
		{"late start, long delay, large init", Flow{Start: 0.05, ExtraDelayMs: 1e3, Init: 1e6}, ""},
	}
	for _, c := range cases {
		c.flow.Protocol = "reno"
		s := &Spec{
			Name: c.name, Model: "packet", Duration: 0.1,
			Link:  &Link{Mbps: 20, RTTms: 42, BufferMSS: 20},
			Flows: []Flow{{Protocol: "reno"}, c.flow},
		}
		verr := s.Validate()
		cfg := packetsim.Config{Bandwidth: fluid.MbpsToMSSps(20), PropDelay: 0.021, Buffer: 20}
		_, perr := packetsim.Run(cfg, []packetsim.Flow{c.flow.packetFlow(protocol.Reno())}, 0.1)
		if (verr == nil) != (perr == nil) {
			t.Errorf("%s: Validate err = %v, packetsim err = %v: want both or neither", c.name, verr, perr)
			continue
		}
		if c.field == "" {
			if verr != nil {
				t.Errorf("%s: Validate err = %v, want nil", c.name, verr)
			}
			continue
		}
		if verr == nil || !strings.Contains(verr.Error(), `flow 1: "`+c.field+`"`) {
			t.Errorf("%s: Validate err = %v, want it to name flow 1's %q", c.name, verr, c.field)
		}
	}
}
