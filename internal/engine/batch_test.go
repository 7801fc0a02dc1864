package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/fluid"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// batchFamilies are the kernelized protocol specs the golden matrix
// covers — one per closed-form family (AIMD, MIMD, two Binomial points,
// Robust-AIMD, HighSpeed).
var batchFamilies = []string{"reno", "scalable", "iiad", "sqrt", "raimd:1,0.8,0.01", "hstcp"}

// Initial configurations batchGrid crosses with every family. pairInits
// gives the 12-cell grid of the original matrix. wideInits gives an
// 18-cell one-key grid, which planBatches splits at every worker count
// in splitWorkers. mixedInits is wideInits with every third cell down to
// one sender, so chunk lanes differ from chunk cell counts.
var (
	pairInits  = [][]float64{{1, 40}, {25, 25}}
	wideInits  = [][]float64{{1, 40}, {25, 25}, {7, 3}}
	mixedInits = [][]float64{{1, 40}, {25, 25}, {7}}
)

// batchGrid builds one self-describing spec per (family, init) pair:
// fluid cells with one sender per init value, with per-cell seeds. mutate lets a scenario attach chaos schedules or loss processes
// per cell.
func batchGrid(t *testing.T, steps int, inits [][]float64, mutate func(i int, spec *Spec)) []Spec {
	t.Helper()
	var specs []Spec
	i := 0
	for _, fam := range batchFamilies {
		for _, init := range inits {
			senders, err := fluid.HomogeneousSenders(protocol.MustParse(fam), len(init), init)
			if err != nil {
				t.Fatal(err)
			}
			cfg := fluidCfg()
			cfg.Seed = uint64(1000 + i)
			spec := Spec{Substrate: &FluidSpec{Cfg: cfg, Senders: senders, Steps: steps}}
			if mutate != nil {
				mutate(i, &spec)
			}
			specs = append(specs, spec)
			i++
		}
	}
	return specs
}

// runPerCell runs each spec on its own through Run, the per-cell
// reference the batched path must reproduce.
func runPerCell(t *testing.T, specs []Spec) []*Result {
	t.Helper()
	out := make([]*Result, len(specs))
	for i := range specs {
		res, err := Run(context.Background(), specs[i])
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res
	}
	return out
}

// splitWorkers are the worker counts the split tests sweep: serial, the
// CI machine shapes, and more workers than a 2-cell-minimum split of an
// 18-cell group can use.
var splitWorkers = []int{1, 2, 3, 8}

// wantChunks is the chunk count planBatches must cut a one-key group of
// n cells into for workers workers, written out with its numbers: as
// many chunks as workers, capped at one per 2 cells, or up to 4 per
// worker of at least 16 cells each when that cuts finer.
func wantChunks(workers, n int) int {
	return max(min(workers, n/2), min(4*workers, n/16))
}

// largeInits gives a 216-cell one-key grid with batchGrid, mixed 1- and
// 2-sender cells, large enough that planBatches cuts it into more chunks
// than workers at every worker count in splitWorkers.
var largeInits = func() [][]float64 {
	var inits [][]float64
	for i := 0; i < 36; i++ {
		init := []float64{float64(1 + i), float64(40 - i)}
		inits = append(inits, init[:1+i%2])
	}
	return inits
}()

// runBothPaths evaluates the same grid through SweepSpecs and through
// Run on each spec, each spec recorded, and asserts bit-identical traces.
// The grid is regenerated per run because substrates are single-use.
func runBothPaths(t *testing.T, grid func() []Spec, cfg SweepConfig) []*Result {
	t.Helper()
	batchedSpecs, batchedTraces := withRecorders(grid())
	batched, err := SweepSpecs(context.Background(), batchedSpecs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	scalarSpecs, scalarTraces := withRecorders(grid())
	scalar := runPerCell(t, scalarSpecs)
	for i := range batched {
		if batched[i].Steps != scalar[i].Steps {
			t.Fatalf("cell %d: steps %d != %d", i, batched[i].Steps, scalar[i].Steps)
		}
		equalTraces(t, batchedTraces[i], scalarTraces[i])
	}
	return batched
}

// TestSweepSpecsBitIdentityPlain is the plain column of the golden
// matrix: every batchable family, batched vs per-cell, bit-identical.
// It also pins the batched/fallback telemetry for an all-batchable grid.
func TestSweepSpecsBitIdentityPlain(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	b0, f0 := sweepCellsBatched.Value(), sweepCellsFallback.Value()
	res := runBothPaths(t, func() []Spec { return batchGrid(t, 300, pairInits, nil) }, SweepConfig{Workers: 2})
	n := uint64(len(res))
	if got := sweepCellsBatched.Value() - b0; got != n {
		t.Errorf("batched counter advanced %d, want %d", got, n)
	}
	if got := sweepCellsFallback.Value() - f0; got != 0 {
		t.Errorf("fallback counter advanced %d, want 0", got)
	}
}

// batchChaosSchedule composes every injector mechanism the fluid batch
// must share bit-identically: capacity shocks, link flaps, a seeded
// Gilbert–Elliott loss chain, RTT jitter, and flow churn.
func batchChaosSchedule() *chaos.Schedule {
	s := &chaos.Schedule{Events: []chaos.Event{
		{Kind: chaos.KindCapacityScale, At: 40, Duration: 60, Scale: 0.5, Link: -1},
		{Kind: chaos.KindLinkFlap, At: 150, Duration: 5, Link: -1},
		{Kind: chaos.KindGELoss, At: 0, PGoodBad: 0.02, PBadGood: 0.3, LossBad: 0.1, Flow: -1, Link: -1},
		{Kind: chaos.KindRTTJitter, At: 0, Amplitude: 0.002, Link: -1},
		{Kind: chaos.KindFlowDepart, At: 100, Flow: 1},
		{Kind: chaos.KindFlowArrive, At: 200, Flow: 1},
	}}
	if err := s.Normalize(); err != nil {
		panic(err)
	}
	return s
}

// TestSweepSpecsBitIdentityChaos is the chaos column: cells sharing a
// compiled schedule batch together (one shared injector) and must match
// the per-cell path, where every cell compiles its own injector. Cells
// with a different schedule or seed form separate groups.
func TestSweepSpecsBitIdentityChaos(t *testing.T) {
	schedA, schedB := batchChaosSchedule(), batchChaosSchedule()
	grid := func() []Spec {
		return batchGrid(t, 300, pairInits, func(i int, spec *Spec) {
			// Three chaos groups: schedule A seed 1, schedule A seed 2,
			// schedule B seed 1 — plus identical per-cell fluid seeds so
			// only the chaos grouping varies.
			switch i % 3 {
			case 0:
				spec.Chaos, spec.ChaosSeed = schedA, 1
			case 1:
				spec.Chaos, spec.ChaosSeed = schedA, 2
			case 2:
				spec.Chaos, spec.ChaosSeed = schedB, 1
			}
		})
	}
	obs.Enable()
	defer obs.Disable()
	b0 := sweepCellsBatched.Value()
	res := runBothPaths(t, grid, SweepConfig{Workers: 2})
	// All three chaos groups have ≥ 2 cells, so every cell of the batched
	// leg must actually have batched — a silent fallback would compare
	// per-cell against per-cell and prove nothing.
	if got, want := sweepCellsBatched.Value()-b0, uint64(len(res)); got != want {
		t.Errorf("batched counter advanced %d, want %d", got, want)
	}
}

// TestSweepSpecsBitIdentityRandomLoss is the seeded-randomness column:
// per-cell PacketLoss processes with distinct seeds, exercising the
// per-cell RNG streams inside one batch.
func TestSweepSpecsBitIdentityRandomLoss(t *testing.T) {
	grid := func() []Spec {
		return batchGrid(t, 300, pairInits, func(i int, spec *Spec) {
			fs := spec.Substrate.(*FluidSpec)
			fs.Cfg.Loss = fluid.NewPacketLoss(0.003)
			fs.Cfg.Seed = uint64(77 + i)
		})
	}
	runBothPaths(t, grid, SweepConfig{Workers: 3})
}

// TestSweepSpecsBitIdentitySplit is the split column of the golden
// matrix: one-key grids that planBatches cuts into chunks (plain, one
// shared chaos schedule, per-cell seeded loss, and a large grid cut into
// more chunks than workers) must match Run on each spec bit for bit at
// every worker count, with every cell still counted as batched.
func TestSweepSpecsBitIdentitySplit(t *testing.T) {
	sched := batchChaosSchedule()
	cases := []struct {
		name string
		grid func() []Spec
	}{
		{"plain", func() []Spec { return batchGrid(t, 300, mixedInits, nil) }},
		{"chaos", func() []Spec {
			// Chaos groups key on the flow count, so every cell keeps
			// two senders to stay in the one group.
			return batchGrid(t, 300, wideInits, func(_ int, spec *Spec) {
				spec.Chaos, spec.ChaosSeed = sched, 5
			})
		}},
		{"loss", func() []Spec {
			return batchGrid(t, 300, mixedInits, func(i int, spec *Spec) {
				fs := spec.Substrate.(*FluidSpec)
				fs.Cfg.Loss = fluid.NewPacketLoss(0.003)
				fs.Cfg.Seed = uint64(91 + i)
			})
		}},
		{"large", func() []Spec { return batchGrid(t, 200, largeInits, nil) }},
	}
	obs.Enable()
	defer obs.Disable()
	for _, c := range cases {
		for _, w := range splitWorkers {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, w), func(t *testing.T) {
				n := len(c.grid())
				got := len(planBatches(c.grid(), w))
				if want := wantChunks(w, n); got != want {
					t.Fatalf("planned %d chunks, want %d", got, want)
				}
				if c.name == "large" && got <= w {
					t.Fatalf("planned %d chunks of %d cells for %d workers, want more chunks than workers", got, n, w)
				}
				b0, f0 := sweepCellsBatched.Value(), sweepCellsFallback.Value()
				runBothPaths(t, c.grid, SweepConfig{Workers: w})
				if got := sweepCellsBatched.Value() - b0; got != uint64(n) {
					t.Errorf("batched counter advanced %d, want %d", got, n)
				}
				if got := sweepCellsFallback.Value() - f0; got != 0 {
					t.Errorf("fallback counter advanced %d, want 0", got)
				}
			})
		}
	}
}

// TestPlanBatches pins the chunking rule: k = wantChunks(workers, n)
// contiguous chunks per group, each of at least 16 cells when the group
// is cut finer than one chunk per worker and 2 otherwise, together
// exactly the group, with lanes balanced to within one cell's lanes of
// the group's mean.
func TestPlanBatches(t *testing.T) {
	// cells builds a one-key grid with the given sender count per cell.
	cells := func(lanes ...int) []Spec {
		specs := make([]Spec, len(lanes))
		for i, n := range lanes {
			init := make([]float64, n)
			for j := range init {
				init[j] = float64(1 + j)
			}
			senders, err := fluid.HomogeneousSenders(protocol.Reno(), n, init)
			if err != nil {
				t.Fatal(err)
			}
			specs[i] = Spec{Substrate: &FluidSpec{Cfg: fluidCfg(), Senders: senders, Steps: 100}}
		}
		return specs
	}
	seq := func(lo, hi int) []int {
		var out []int
		for i := lo; i < hi; i++ {
			out = append(out, i)
		}
		return out
	}
	repeat := func(n int, lanes ...int) []int {
		var out []int
		for len(out) < n {
			out = append(out, lanes[len(out)%len(lanes)])
		}
		return out
	}
	cases := []struct {
		name    string
		lanes   []int
		workers int
		want    [][]int // nil: check the invariants only
	}{
		{"one worker", repeat(9, 2), 1, [][]int{{0, 1, 2, 3, 4, 5, 6, 7, 8}}},
		{"auto workers", repeat(4, 2), 0, nil},
		{"even split", repeat(8, 2), 2, [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}},
		{"capped by size", repeat(5, 2), 8, [][]int{{0, 1}, {2, 3, 4}}},
		{"minimum pair", repeat(3, 2), 8, [][]int{{0, 1, 2}}},
		// 4 heavy cells then 4 light ones: the even-count cut (4|4) would
		// give 8 vs 4 lanes; balancing cuts at 3 for 6 vs 6.
		{"lane balanced", []int{2, 2, 2, 2, 1, 1, 1, 1}, 2, [][]int{{0, 1, 2}, {3, 4, 5, 6, 7}}},
		// The minimum chunk size overrides the lane target: balancing
		// alone would give the 6-lane cell a chunk to itself.
		{"minimum wins", []int{6, 1, 1, 1, 1, 1, 1}, 2, [][]int{{0, 1}, {2, 3, 4, 5, 6}}},
		{"mixed 1/2", repeat(24, 1, 2, 2), 3, nil},
		{"mixed 2/1", repeat(23, 2, 1), 8, nil},
		{"mixed odd", repeat(37, 1, 1, 2), 5, nil},
		// From 32 cells a lone worker's group is cut into chunks of 16.
		{"fine one worker", repeat(64, 2), 1, [][]int{seq(0, 16), seq(16, 32), seq(32, 48), seq(48, 64)}},
		{"fine remainder", repeat(35, 2), 1, [][]int{seq(0, 17), seq(17, 35)}},
		// 40 cells make 2 chunks of 16 or more: no finer than per worker.
		{"coarse at 40", repeat(40, 2), 2, [][]int{seq(0, 20), seq(20, 40)}},
		{"fine 48", repeat(48, 2), 2, [][]int{seq(0, 16), seq(16, 32), seq(32, 48)}},
		{"fine capped per worker", repeat(300, 2), 2, nil},
		{"fine mixed 1/2", repeat(180, 1, 2), 2, nil},
		{"fine auto workers", repeat(200, 2, 1), 0, nil},
		{"fine many workers", repeat(216, 1, 2, 2), 8, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			specs := cells(c.lanes...)
			chunks := planBatches(specs, c.workers)
			if c.want != nil && !reflect.DeepEqual(chunks, c.want) {
				t.Fatalf("chunks %v, want %v", chunks, c.want)
			}
			w := c.workers
			if w < 1 {
				w = runtime.GOMAXPROCS(0)
			}
			n := len(specs)
			if len(chunks) != wantChunks(w, n) {
				t.Fatalf("%d chunks of %d cells for %d workers, want %d", len(chunks), n, w, wantChunks(w, n))
			}
			least := 2
			if len(chunks) > min(w, n/2) {
				least = 16
			}
			next, total, maxLanes := 0, 0, 0
			for _, l := range c.lanes {
				total += l
				maxLanes = max(maxLanes, l)
			}
			for k, chunk := range chunks {
				if len(chunk) < least {
					t.Errorf("chunk %d has %d cells, want >= %d", k, len(chunk), least)
				}
				lanes := 0
				for _, i := range chunk {
					if i != next {
						t.Fatalf("chunk %d holds cell %d, want %d (contiguous, in order, no gaps)", k, i, next)
					}
					next++
					lanes += c.lanes[i]
				}
				// Each cut is at most half a cell's lanes from its ideal
				// point, so a chunk is within one cell's lanes of the mean.
				if c.want == nil && math.Abs(float64(lanes)-float64(total)/float64(len(chunks))) > float64(maxLanes) {
					t.Errorf("chunk %d has %d lanes, mean %v", k, lanes, float64(total)/float64(len(chunks)))
				}
			}
			if next != n {
				t.Fatalf("chunks cover %d cells, want %d", next, n)
			}
		})
	}

	// Separate keys are separate groups, each split on its own, in order
	// of first appearance; singleton groups are not batched at all.
	specs := append(cells(repeat(4, 2)...), cells(1)...)
	specs[4].Substrate.(*FluidSpec).Steps = 50 // a singleton key
	specs = append(specs, batchGrid(t, 300, wideInits, nil)[:4]...)
	want := [][]int{{0, 1}, {2, 3}, {5, 6}, {7, 8}}
	if got := planBatches(specs, 2); !reflect.DeepEqual(got, want) {
		t.Fatalf("two-key plan %v, want %v", got, want)
	}
}

// TestSweepSpecsFallbackCoverage is the fallback column: families without
// a kernel (PCC, BBRish, Func, Vegas), stateful instances with live state
// (a primed Cubic), and unsynchronized senders join the lockstep group of
// the kernelized cells, while a cell with its own Cfg.Perturb and a
// singleton key take the per-cell path. Results are bit-identical to Run
// on each spec, and the telemetry splits the grid into batched +
// fallback exactly.
func TestSweepSpecsFallbackCoverage(t *testing.T) {
	nextStepped := []func() fluid.Sender{
		func() fluid.Sender { return fluid.Sender{Proto: protocol.DefaultPCC(), Init: 10} },
		func() fluid.Sender { return fluid.Sender{Proto: protocol.NewBBRish(), Init: 10} },
		func() fluid.Sender {
			return fluid.Sender{Proto: &protocol.Func{Fn: func(fb protocol.Feedback) float64 {
				if fb.Loss > 0 {
					return fb.Window * 0.7
				}
				return fb.Window + 2
			}}, Init: 10}
		},
		func() fluid.Sender { return fluid.Sender{Proto: protocol.DefaultVegas(), Init: 10} },
		func() fluid.Sender {
			// Primed Cubic: its kernel carries the live state.
			p := protocol.CubicLinux()
			p.Next(protocol.Feedback{Window: 50})
			return fluid.Sender{Proto: p, Init: 10}
		},
		// Kernelized family, but unsynchronized feedback.
		func() fluid.Sender { return fluid.Sender{Proto: protocol.Reno(), Init: 10, Period: 3, Phase: 1} },
	}
	grid := func() []Spec {
		specs := batchGrid(t, 300, pairInits, nil)
		for i, mk := range nextStepped {
			cfg := fluidCfg()
			cfg.Seed = uint64(5000 + i)
			specs = append(specs, Spec{
				Substrate: &FluidSpec{
					Cfg:     cfg,
					Senders: []fluid.Sender{mk(), {Proto: protocol.Reno(), Init: 1}},
					Steps:   300,
				},
			})
		}
		// Per-cell: a perturber of the cell's own, and a step count no
		// other cell shares.
		inj, err := batchChaosSchedule().Compile(3, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		perturbed := batchGrid(t, 300, pairInits, nil)[0]
		perturbed.Substrate.(*FluidSpec).Cfg.Perturb = inj
		return append(specs, perturbed, batchGrid(t, 200, pairInits, nil)[1])
	}

	obs.Enable()
	defer obs.Disable()
	b0, f0 := sweepCellsBatched.Value(), sweepCellsFallback.Value()
	res := runBothPaths(t, grid, SweepConfig{Workers: 2})
	if got, want := sweepCellsBatched.Value()-b0, uint64(len(res)-2); got != want {
		t.Errorf("batched counter advanced %d, want %d", got, want)
	}
	if got := sweepCellsFallback.Value() - f0; got != 2 {
		t.Errorf("fallback counter advanced %d, want 2", got)
	}
}

// TestSweepSpecsRejectedCellFailsAlone puts cells the stepper rejects (a
// NaN initial window, a nil protocol) inside a lockstep group: each fails
// with the error Run returns for it alone, and the group's other cells
// still step bit-identically to Run.
func TestSweepSpecsRejectedCellFailsAlone(t *testing.T) {
	bad := map[int]string{
		4: "fluid: sender 1 has a NaN initial window",
		9: "fluid: sender 0 has nil protocol",
	}
	grid := func() []Spec {
		specs := batchGrid(t, 300, pairInits, nil)
		specs[4].Substrate.(*FluidSpec).Senders[1].Init = math.NaN()
		specs[9].Substrate.(*FluidSpec).Senders[0].Proto = nil
		return specs
	}
	cfg := SweepConfig{Workers: 2}
	specs := grid()
	if chunks := planBatches(specs, cfg.Workers); len(chunks) != 2 || len(chunks[0])+len(chunks[1]) != len(specs) {
		t.Fatalf("chunks %v, want the whole grid in two", chunks)
	}
	specs, batchedTraces := withRecorders(specs)
	outs := runBatches(context.Background(), specs, &cfg)
	perCell, perCellTraces := withRecorders(grid())
	for i, out := range outs {
		_, err := Run(context.Background(), perCell[i])
		if want, ok := bad[i]; ok {
			if out == nil || out.err == nil || out.err.Error() != want || err == nil || err.Error() != want {
				t.Errorf("cell %d: batched %+v, Run error %v; want %q from both", i, out, err, want)
			}
			continue
		}
		if err != nil || out == nil || out.err != nil {
			t.Fatalf("cell %d: batched %+v, Run error %v", i, out, err)
		}
		equalTraces(t, batchedTraces[i], perCellTraces[i])
	}
	_, err := SweepSpecs(context.Background(), grid(), SweepConfig{Workers: 1})
	if err == nil || !strings.Contains(err.Error(), bad[4]) {
		t.Fatalf("serial sweep error %v, want the first rejected cell's %q", err, bad[4])
	}
}

// TestSweepSpecsSingletonGroupFallsBack pins minBatchGroup: a group of
// one gains nothing from batching and must route per-cell.
func TestSweepSpecsSingletonGroupFallsBack(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	grid := func() []Spec {
		// Two cells with different step counts → two singleton groups.
		a := batchGrid(t, 200, pairInits, nil)[:1]
		b := batchGrid(t, 300, pairInits, nil)[:1]
		return append(a, b...)
	}
	b0, f0 := sweepCellsBatched.Value(), sweepCellsFallback.Value()
	runBothPaths(t, grid, SweepConfig{Workers: 1})
	if got := sweepCellsBatched.Value() - b0; got != 0 {
		t.Errorf("batched counter advanced %d, want 0", got)
	}
	if got := sweepCellsFallback.Value() - f0; got != 2 {
		t.Errorf("fallback counter advanced %d, want 2 (both cells)", got)
	}
}

// TestSweepSpecsDivergenceFailsFast asserts a diverging batched cell
// surfaces the same DivergedError that Run produces for it alone.
func TestSweepSpecsDivergenceFailsFast(t *testing.T) {
	grid := func() []Spec {
		specs := batchGrid(t, 300, pairInits, nil)
		cfg := fluid.Config{Infinite: true, PropDelay: 0.021, MaxWindow: math.Inf(1)}
		specs = append(specs, Spec{
			Substrate: &FluidSpec{
				Cfg: cfg,
				Senders: []fluid.Sender{
					{Proto: protocol.NewMIMD(10, 0.5), Init: 1e300},
					{Proto: protocol.NewMIMD(10, 0.5), Init: 1e300},
				},
				Steps: 300,
			},
		})
		return specs
	}
	_, err := SweepSpecs(context.Background(), grid(), SweepConfig{Workers: 1})
	if err == nil {
		t.Fatal("diverging grid returned nil error")
	}
	var de *fluid.DivergedError
	if !errors.As(err, &de) {
		t.Fatalf("error %v is not a DivergedError", err)
	}
	specs := grid()
	_, err = Run(context.Background(), specs[len(specs)-1])
	if !errors.As(err, &de) {
		t.Fatalf("Run on the diverging cell: error %v is not a DivergedError", err)
	}
}

// TestSweepSpecsSplitDivergence puts a diverging cell inside the second
// chunk of a split group: every worker count must fail with the error
// the serial sweep returns, which is Run's error for that cell.
func TestSweepSpecsSplitDivergence(t *testing.T) {
	const bad = 13 // at Workers 2 the chunks are cells 0-8 and 9-17
	grid := func() []Spec {
		specs := batchGrid(t, 300, wideInits, nil)
		cfg := fluid.Config{Infinite: true, PropDelay: 0.021, MaxWindow: math.Inf(1)}
		specs[bad].Substrate = &FluidSpec{
			Cfg: cfg,
			Senders: []fluid.Sender{
				{Proto: protocol.NewMIMD(10, 0.5), Init: 1e300},
				{Proto: protocol.NewMIMD(10, 0.5), Init: 1e300},
			},
			Steps: 300,
		}
		return specs
	}
	if chunks := planBatches(grid(), 2); len(chunks) != 2 || !slices.Contains(chunks[1], bad) {
		t.Fatalf("cell %d is not in the second of the chunks %v", bad, chunks)
	}
	_, runErr := Run(context.Background(), grid()[bad])
	var de *fluid.DivergedError
	if !errors.As(runErr, &de) {
		t.Fatalf("Run on the diverging cell: error %v is not a DivergedError", runErr)
	}
	_, serial := SweepSpecs(context.Background(), grid(), SweepConfig{Workers: 1})
	if serial == nil || !strings.Contains(serial.Error(), runErr.Error()) {
		t.Fatalf("serial sweep error %v, want one carrying %v", serial, runErr)
	}
	for _, w := range splitWorkers[1:] {
		_, err := SweepSpecs(context.Background(), grid(), SweepConfig{Workers: w})
		if err == nil || err.Error() != serial.Error() {
			t.Errorf("workers=%d: error %v, want %v", w, err, serial)
		}
	}
}

// stepCollector records every observed step, copying the reused Windows
// slice. It deliberately does NOT implement StripObserver, so on the
// batched path it exercises the per-step fallback (row gather) in the
// strip flush.
type stepCollector struct{ steps []Step }

func (c *stepCollector) Observe(st Step) {
	st.Windows = append([]float64(nil), st.Windows...)
	c.steps = append(c.steps, st)
}

// stripCollector implements StripObserver, expanding flow-major strips
// back into steps while checking the documented layout invariants.
type stripCollector struct {
	stepCollector
	strips int
	t      *testing.T
}

func (c *stripCollector) ObserveStrip(s Strip) {
	c.strips++
	if len(s.Windows) != s.Count*s.Flows {
		c.t.Errorf("strip Windows length %d, want Count×Flows = %d", len(s.Windows), s.Count*s.Flows)
	}
	for k := 0; k < s.Count; k++ {
		w := make([]float64, s.Flows)
		for i := 0; i < s.Flows; i++ {
			w[i] = s.Windows[i*s.Count+k]
		}
		c.steps = append(c.steps, Step{
			Index:   s.Start + k,
			Windows: w,
			Total:   s.Totals[k],
			RTT:     s.RTT[k],
			Loss:    s.Loss[k],
		})
	}
}

// TestSweepSpecsStripObserverEquivalence is the observer column of the
// golden matrix: the batched path must deliver the same step sequence
// whether an observer takes whole strips (flow-major columns), takes the
// per-step fallback, or watches Run on each spec alone. 300 steps is not a
// multiple of emitStrip, so the final partial strip — column compaction
// and all — is exercised too, and the grid mixes 1-, 2- and 3-sender
// cells so column strides differ across the group. The grid is one
// 20-cell key, so every worker count in splitWorkers splits it into
// chunks differently.
func TestSweepSpecsStripObserverEquivalence(t *testing.T) {
	const steps = 300
	run := func(perCell, strip bool, workers int) ([][]Step, int) {
		specs := batchGrid(t, steps, mixedInits, nil)
		for _, n := range []int{3, 3} {
			senders, err := fluid.HomogeneousSenders(protocol.Reno(), n, []float64{1, 20, 40})
			if err != nil {
				t.Fatal(err)
			}
			cfg := fluidCfg()
			cfg.Seed = uint64(9000 + n)
			specs = append(specs, Spec{Substrate: &FluidSpec{Cfg: cfg, Senders: senders, Steps: steps}})
		}
		collectors := make([]*stripCollector, len(specs))
		for i := range specs {
			collectors[i] = &stripCollector{t: t}
			if strip {
				specs[i].Observers = []Observer{collectors[i]}
			} else {
				specs[i].Observers = []Observer{&collectors[i].stepCollector}
			}
		}
		if perCell {
			runPerCell(t, specs)
		} else if _, err := SweepSpecs(context.Background(), specs, SweepConfig{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		out := make([][]Step, len(specs))
		strips := 0
		for i, c := range collectors {
			out[i] = c.steps
			strips += c.strips
		}
		return out, strips
	}

	base, _ := run(true, false, 1) // Run per spec: one Observe per step
	for _, leg := range []struct {
		name  string
		strip bool
	}{{"fallback", false}, {"strip", true}} {
		for _, workers := range splitWorkers {
			name := fmt.Sprintf("%s leg workers=%d", leg.name, workers)
			got, strips := run(false, leg.strip, workers)
			if leg.strip && strips == 0 {
				t.Fatalf("%s delivered no strips; batched path not taken", name)
			}
			for i := range base {
				if len(got[i]) != len(base[i]) {
					t.Fatalf("%s cell %d: %d steps, want %d", name, i, len(got[i]), len(base[i]))
				}
				for k := range base[i] {
					g, w := got[i][k], base[i][k]
					if g.Index != w.Index || g.Total != w.Total || g.RTT != w.RTT || g.Loss != w.Loss {
						t.Fatalf("%s cell %d step %d: %+v, want %+v", name, i, k, g, w)
					}
					for f := range w.Windows {
						if math.Float64bits(g.Windows[f]) != math.Float64bits(w.Windows[f]) {
							t.Fatalf("%s cell %d step %d flow %d: window %v, want %v", name, i, k, f, g.Windows[f], w.Windows[f])
						}
					}
				}
			}
		}
	}
}

// TestRouteWorkers pins the auto-routing rules: explicit Workers wins;
// otherwise min(GOMAXPROCS, n) with a serial floor.
func TestRouteWorkers(t *testing.T) {
	cfg := SweepConfig{Workers: 3}
	routeWorkers(100, &cfg)
	if cfg.Workers != 3 {
		t.Fatalf("explicit Workers overridden to %d", cfg.Workers)
	}
	cfg = SweepConfig{}
	routeWorkers(1, &cfg)
	if cfg.Workers != 1 {
		t.Fatalf("1-cell grid routed to %d workers, want serial", cfg.Workers)
	}
	cfg = SweepConfig{}
	routeWorkers(0, &cfg)
	if cfg.Workers != 1 {
		t.Fatalf("empty grid routed to %d workers, want 1", cfg.Workers)
	}
	cfg = SweepConfig{}
	routeWorkers(1<<20, &cfg)
	if want := runtime.GOMAXPROCS(0); cfg.Workers != want {
		t.Fatalf("large grid routed to %d workers, want GOMAXPROCS=%d", cfg.Workers, want)
	}
}
