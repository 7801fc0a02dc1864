package fluid_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/fluid"
	"repro/internal/protocol"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/trajectories_golden.json")

// goldenSteps is the horizon of every pinned trajectory: several sawtooth
// cycles on goldenLink, and enough for the runaway cases to diverge and
// keep stepping afterwards.
const goldenSteps = 120

// goldenLink is a small bottleneck (C = 20 MSS, τ = 4 MSS) that congests
// within a few steps.
func goldenLink() fluid.Config {
	theta := 0.021
	return fluid.Config{Bandwidth: 20 / (2 * theta), PropDelay: theta, Buffer: 4}
}

// goldenCase is one pinned trajectory. senders builds a fresh sender set
// on every call (protocols carry state); a non-nil sched is compiled
// against the case's flow count and applied as the link's Perturber, or
// as the engine Spec's Chaos.
type goldenCase struct {
	name    string
	cfg     fluid.Config
	senders func() []fluid.Sender
	sched   *chaos.Schedule
	seed    uint64
}

// pair runs two clones of p from windows 1 and 25.
func pair(p protocol.Protocol) func() []fluid.Sender {
	return func() []fluid.Sender { return fluid.MixedSenders([]protocol.Protocol{p, p}, []float64{1, 25}) }
}

// halving is a protocol.Func: +2 on a loss-free step, ×0.7 on a lossy one.
func halving() protocol.Protocol {
	return &protocol.Func{Fn: func(fb protocol.Feedback) float64 {
		if fb.Loss > 0 {
			return fb.Window * 0.7
		}
		return fb.Window + 2
	}}
}

// lossScaled is a protocol.Func whose window after a lossy step is 64
// times the loss it observed: a power-of-two multiple, so every bit of
// that loss reaches the trajectory.
func lossScaled() protocol.Protocol {
	return &protocol.Func{Fn: func(fb protocol.Feedback) float64 {
		if fb.Loss > 0 {
			return 64 * fb.Loss
		}
		return fb.Window + 1
	}}
}

// allFamilies is one sender of every protocol family, kernelized or not.
func allFamilies() []fluid.Sender {
	primed := protocol.CubicLinux()
	primed.Next(protocol.Feedback{Window: 50})
	protos := []protocol.Protocol{
		protocol.Reno(), protocol.Scalable(), protocol.IIAD(), protocol.SQRT(),
		protocol.NewRobustAIMD(1, 0.8, 0.01), protocol.NewHighSpeed(), protocol.CubicLinux(),
		protocol.DefaultPCC(), protocol.DefaultVegas(), protocol.NewBBRish(), protocol.DefaultTFRC(),
		protocol.NewProbeUntilLoss(1), halving(),
	}
	s := fluid.MixedSenders(protos, []float64{1, 30, 5, 12, 2, 80, 50, 10, 4, 7, 3, 1, 9})
	// MixedSenders clones, and a clone is fresh; the primed Cubic keeps
	// its state only as the sender's own instance.
	return append(s, fluid.Sender{Proto: primed, Init: 20})
}

// fourFamilies is a kernelized pair (Reno, Cubic) and an RTT-driven pair
// (PCC, Vegas): the cases that vary the link rather than the protocols.
func fourFamilies() []fluid.Sender {
	protos := []protocol.Protocol{protocol.Reno(), protocol.CubicLinux(), protocol.DefaultPCC(), protocol.DefaultVegas()}
	return fluid.MixedSenders(protos, []float64{1, 30, 10, 4})
}

func withLoss(lp fluid.LossProcess, seed uint64) fluid.Config {
	c := goldenLink()
	c.Loss, c.Seed = lp, seed
	return c
}

func goldenCases() []goldenCase {
	link := goldenLink()
	big := fluid.Config{Bandwidth: 400 / 0.042, PropDelay: 0.021, Buffer: 40}
	churn := &chaos.Schedule{Events: []chaos.Event{
		{Kind: chaos.KindCapacityScale, At: 20, Duration: 15, Scale: 0.5, Link: -1},
		{Kind: chaos.KindLinkFlap, At: 50, Duration: 3, Link: -1},
		{Kind: chaos.KindGELoss, At: 0, PGoodBad: 0.05, PBadGood: 0.3, LossBad: 0.1, Flow: -1, Link: -1},
		{Kind: chaos.KindRTTJitter, At: 0, Amplitude: 0.002, Link: -1},
		{Kind: chaos.KindFlowDepart, At: 30, Flow: 1},
		{Kind: chaos.KindFlowArrive, At: 70, Flow: 1},
	}}
	if err := churn.Normalize(); err != nil {
		panic(err)
	}
	primedCubic := func() []fluid.Sender {
		p := protocol.CubicLinux()
		p.Next(protocol.Feedback{Window: 40})
		return []fluid.Sender{{Proto: p, Init: 10}, {Proto: protocol.Reno(), Init: 1}}
	}
	return []goldenCase{
		{name: "aimd", cfg: link, senders: pair(protocol.Reno())},
		{name: "mimd", cfg: link, senders: pair(protocol.Scalable())},
		{name: "binomial-iiad", cfg: link, senders: pair(protocol.IIAD())},
		{name: "binomial-sqrt", cfg: link, senders: pair(protocol.SQRT())},
		{name: "robust-aimd", cfg: link, senders: pair(protocol.NewRobustAIMD(1, 0.8, 0.05))},
		{name: "highspeed", cfg: big, senders: pair(protocol.NewHighSpeed())},
		{name: "cubic", cfg: link, senders: pair(protocol.CubicLinux())},
		{name: "primed-cubic", cfg: link, senders: primedCubic},
		{name: "pcc", cfg: link, senders: pair(protocol.DefaultPCC())},
		{name: "vegas", cfg: link, senders: pair(protocol.DefaultVegas())},
		{name: "bbrish", cfg: link, senders: pair(protocol.NewBBRish())},
		{name: "tfrc", cfg: link, senders: pair(protocol.DefaultTFRC())},
		{name: "probe-until-loss", cfg: link, senders: pair(protocol.NewProbeUntilLoss(1))},
		{name: "func", cfg: link, senders: pair(halving())},
		{name: "func-loss", cfg: link, senders: pair(lossScaled())},
		{name: "all-families", cfg: big, senders: allFamilies},
		{name: "period-phase", cfg: withLoss(fluid.NewPacketLoss(0.01), 5), senders: func() []fluid.Sender {
			return []fluid.Sender{
				{Proto: protocol.Reno(), Init: 1, Period: 3, Phase: 1},
				{Proto: protocol.CubicLinux(), Init: 20, Period: 2},
				{Proto: protocol.DefaultPCC(), Init: 5, Period: 4, Phase: 3},
				{Proto: protocol.Scalable(), Init: 8, Period: 1},
			}
		}},
		{name: "constant-loss", cfg: withLoss(fluid.NewConstantLoss(0.02), 0), senders: fourFamilies},
		{name: "packet-loss-seeded", cfg: withLoss(fluid.NewPacketLoss(0.01), 17), senders: fourFamilies},
		{name: "onoff-loss", cfg: withLoss(fluid.NewOnOffLoss(0.1, 5, 20), 0), senders: fourFamilies},
		{name: "bandwidth-schedule", cfg: func() fluid.Config {
			c := goldenLink()
			c.BandwidthSchedule = func(step int) float64 {
				if step%40 < 20 {
					return c.Bandwidth
				}
				return c.Bandwidth / 3
			}
			return c
		}(), senders: fourFamilies},
		{name: "chaos-churn", cfg: link, sched: churn, seed: 3, senders: allFamilies},
		{name: "infinite", cfg: fluid.Config{Infinite: true, PropDelay: 0.021, MaxWindow: 1e12, Loss: fluid.NewConstantLoss(0.01)}, senders: fourFamilies},
		{name: "mimd-diverge", cfg: fluid.Config{Infinite: true, PropDelay: 0.021, MaxWindow: math.Inf(1)}, senders: func() []fluid.Sender {
			return []fluid.Sender{
				{Proto: protocol.NewMIMD(10, 0.5), Init: 1e300},
				{Proto: protocol.Reno(), Init: 1},
			}
		}},
		{name: "mimd-diverge-aggregate", cfg: fluid.Config{Infinite: true, PropDelay: 0.021, MaxWindow: math.Inf(1)}, senders: func() []fluid.Sender {
			return []fluid.Sender{
				{Proto: protocol.NewMIMD(10, 0.5), Init: 1e308},
				{Proto: protocol.NewMIMD(10, 0.5), Init: 1e308},
			}
		}},
	}
}

// linkCfg is the case's config with its chaos schedule compiled in.
func (c goldenCase) linkCfg(t *testing.T, flows int) fluid.Config {
	t.Helper()
	cfg := c.cfg
	if c.sched != nil {
		inj, err := c.sched.Compile(c.seed, flows, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Perturb = inj
	}
	return cfg
}

// spec is the case as an engine Spec observed by the Recorder it returns.
func (c goldenCase) spec() (engine.Spec, *engine.Recorder) {
	sub := &engine.FluidSpec{Cfg: c.cfg, Senders: c.senders(), Steps: goldenSteps}
	rec := engine.NewRecorder(sub.Meta())
	return engine.Spec{
		Substrate: sub,
		Observers: []engine.Observer{rec},
		Chaos:     c.sched,
		ChaosSeed: c.seed,
	}, rec
}

// goldenTrajectory is one case's outputs as hex IEEE-754 bit patterns.
// Each entry of Steps is one Link.Step result: the windows in effect,
// the RTT, the congestion loss and the per-sender loss, "|"-separated.
// Err is Link.Err after every step (a diverged link keeps stepping);
// EngineErr is engine.Run's error, which stops at the diverging step.
type goldenTrajectory struct {
	Name      string   `json:"name"`
	Steps     []string `json:"steps"`
	Err       string   `json:"err,omitempty"`
	EngineErr string   `json:"engine_err,omitempty"`
}

func hexBits(vs ...float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatUint(math.Float64bits(v), 16)
	}
	return strings.Join(parts, " ")
}

func stepLine(windows []float64, rtt, congLoss float64, loss []float64) string {
	return hexBits(windows...) + "|" + hexBits(rtt) + "|" + hexBits(congLoss) + "|" + hexBits(loss...)
}

// traceLine is stepLine without the per-sender loss, which a trace does
// not record.
func traceLine(tr *trace.Trace, s int) string {
	w := make([]float64, tr.Senders())
	for i := range w {
		w[i] = tr.Window(i)[s]
	}
	return hexBits(w...) + "|" + hexBits(tr.RTT()[s]) + "|" + hexBits(tr.Loss()[s])
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func measureTrajectory(t *testing.T, c goldenCase) goldenTrajectory {
	t.Helper()
	senders := c.senders()
	l, err := fluid.New(c.linkCfg(t, len(senders)), senders...)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	g := goldenTrajectory{Name: c.name}
	for s := 0; s < goldenSteps; s++ {
		res := l.Step()
		if res.Step != s {
			t.Fatalf("%s: StepResult.Step %d at step %d", c.name, res.Step, s)
		}
		g.Steps = append(g.Steps, stepLine(res.Windows, res.RTT, res.CongLoss, res.Loss))
	}
	g.Err = errString(l.Err())
	spec, _ := c.spec()
	_, err = engine.Run(context.Background(), spec)
	g.EngineErr = errString(err)
	return g
}

// checkTrace asserts a recorded trace carries the golden steps' windows,
// RTT and congestion loss.
func checkTrace(t *testing.T, what string, tr *trace.Trace, want goldenTrajectory) {
	t.Helper()
	if tr == nil || tr.Len() != len(want.Steps) {
		t.Fatalf("%s %s: trace %v, want %d steps", want.Name, what, tr, len(want.Steps))
	}
	for s, line := range want.Steps {
		w := line[:strings.LastIndexByte(line, '|')]
		if got := traceLine(tr, s); got != w {
			t.Fatalf("%s %s step %d:\n got %s\nwant %s", want.Name, what, s, got, w)
		}
	}
}

// TestTrajectoriesGolden pins the fluid model's trajectories bit for bit:
// every protocol family, unsynchronized senders, each loss process, a
// bandwidth schedule, chaos with churn, an infinite link and runaway
// windows, through Link.Step, and recorded by an engine.Recorder through
// engine.Run and the lockstep engine.SweepSpecs path.
func TestTrajectoriesGolden(t *testing.T) {
	cases := goldenCases()
	got := make([]goldenTrajectory, len(cases))
	for i, c := range cases {
		got[i] = measureTrajectory(t, c)
	}
	path := filepath.Join("testdata", "trajectories_golden.json")
	raw, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want []goldenTrajectory
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d cases, want %d", len(want), len(got))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Name != w.Name || g.Err != w.Err || g.EngineErr != w.EngineErr {
			t.Errorf("case %d: got %s (err %q, engine %q), want %s (err %q, engine %q)",
				i, g.Name, g.Err, g.EngineErr, w.Name, w.Err, w.EngineErr)
			continue
		}
		for s := range w.Steps {
			if g.Steps[s] != w.Steps[s] {
				t.Errorf("%s step %d:\n got %s\nwant %s", w.Name, s, g.Steps[s], w.Steps[s])
				break
			}
		}
	}
	if !bytes.Equal(raw, data) && !t.Failed() {
		t.Fatal("golden bytes differ from a re-encoding of equal trajectories")
	}

	// engine.Run records the steps Link.Step reports.
	for i, c := range cases {
		if want[i].EngineErr != "" {
			continue
		}
		spec, rec := c.spec()
		if _, err := engine.Run(context.Background(), spec); err != nil {
			t.Fatalf("%s: engine.Run: %v", c.name, err)
		}
		checkTrace(t, "engine.Run", rec.Trace(), want[i])
	}

	// Every case that runs to the end, twice in one grid, so each forms a
	// lockstep group.
	for _, workers := range []int{1, 3} {
		var specs []engine.Spec
		var recs []*engine.Recorder
		var specWant []goldenTrajectory
		for i, c := range cases {
			if want[i].EngineErr == "" {
				for range 2 {
					spec, rec := c.spec()
					specs, recs = append(specs, spec), append(recs, rec)
					specWant = append(specWant, want[i])
				}
			}
		}
		if _, err := engine.SweepSpecs(context.Background(), specs, engine.SweepConfig{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		for i, rec := range recs {
			checkTrace(t, fmt.Sprintf("SweepSpecs(workers=%d)", workers), rec.Trace(), specWant[i])
		}
	}
}
