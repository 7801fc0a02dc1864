package pareto

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/axioms"
	"repro/internal/fluid"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/runstore"
)

// synthEval is a deterministic closed-form evaluator over the Figure 1
// tradeoff shape: efficiency grows with β and shrinks slightly with α,
// friendliness is the Theorem 2 bound 3(1−β)/(α(1+β)) — monotone in
// opposite directions, so the frontier is a genuine curve along the
// low-α edge. calls/cells record what Explore asked for.
type synthEval struct {
	calls int
	cells int
}

func (s *synthEval) eval(_ context.Context, cells []Cell) ([]CellResult, error) {
	s.calls++
	s.cells += len(cells)
	out := make([]CellResult, len(cells))
	for i, c := range cells {
		eff := c.Beta - 0.05*c.Alpha
		out[i] = CellResult{
			Coords:    []float64{eff, axioms.Theorem2Bound(c.Alpha, c.Beta)},
			Simulated: true,
		}
	}
	return out, nil
}

func TestExploreDeterministicGolden(t *testing.T) {
	run := func() *ExploreResult {
		ev := &synthEval{}
		res, err := Explore(context.Background(), ExploreConfig{
			Coarse:       5,
			Rounds:       2,
			RefineFactor: 2,
			// Tight optimism margin: Theorem2Bound's 1/α blow-up at the
			// low-α corner makes the friendliness spread heavy-tailed, so
			// the default 15% slack would shield every far-side candidate
			// on a grid this coarse.
			PruneSlack: 0.02,
			Eval:       ev.eval,
		})
		if err != nil {
			t.Fatal(err)
		}
		if ev.cells != res.Stats.CellsEvaluated {
			t.Fatalf("evaluator saw %d cells, stats say %d", ev.cells, res.Stats.CellsEvaluated)
		}
		return res
	}
	a, b := run(), run()

	// Bit-identical across invocations: same points in the same order,
	// same frontier, same stats.
	if a.Stats != b.Stats {
		t.Fatalf("stats differ across runs: %+v vs %+v", a.Stats, b.Stats)
	}
	if len(a.Points) != len(b.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		if a.Points[i].Alpha != b.Points[i].Alpha || a.Points[i].Beta != b.Points[i].Beta ||
			!sameCoords(a.Points[i].Coords, b.Points[i].Coords) {
			t.Fatalf("point %d differs across runs: %+v vs %+v", i, a.Points[i], b.Points[i])
		}
	}
	if len(a.Frontier) != len(b.Frontier) {
		t.Fatalf("frontier sizes differ: %d vs %d", len(a.Frontier), len(b.Frontier))
	}

	// Golden structure for this configuration: a 5×5 coarse pass plus two
	// refinement rounds on a 17×17 finest lattice, with the bandit
	// pruning at least one candidate and the coarse budget untouched.
	if a.Stats.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", a.Stats.Rounds)
	}
	if a.Rounds[0].Evaluated != 25 {
		t.Fatalf("coarse pass evaluated %d cells, want 25", a.Rounds[0].Evaluated)
	}
	if a.Stats.CellsPruned == 0 {
		t.Fatal("dominance bandit pruned nothing on a monotone landscape")
	}
	dense := 17 * 17
	if a.Stats.CellsEvaluated >= dense {
		t.Fatalf("explore evaluated %d cells, dense grid is %d — no saving", a.Stats.CellsEvaluated, dense)
	}
	// The frontier of this landscape is the low-α edge: every frontier
	// point must sit on the minimum α the lattice can express.
	for _, p := range a.Frontier {
		if p.Alpha != 0.25 {
			t.Fatalf("frontier point off the low-α edge: %+v", p)
		}
	}
}

// TestExploreDominatesDenseSynthetic is the resolution property on the
// closed-form landscape: every dense-grid frontier point must be matched
// or dominated by an explored point, i.e. the adaptive pass reaches the
// dense frontier exactly (it refines the frontier region down to the
// same finest lattice the dense grid evaluates).
func TestExploreDominatesDenseSynthetic(t *testing.T) {
	cfg := ExploreConfig{Coarse: 5, Rounds: 2, RefineFactor: 2}
	ev := &synthEval{}
	cfg.Eval = ev.eval
	exp, err := Explore(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := ExploreDense(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(dense.Stats.CellsEvaluated) / float64(exp.Stats.CellsEvaluated); ratio < 2 {
		t.Fatalf("explore evaluated %d cells vs dense %d (%.1fx) — refinement is not saving work",
			exp.Stats.CellsEvaluated, dense.Stats.CellsEvaluated, ratio)
	}
	assertDominatesOrMatches(t, exp.Points, dense.Frontier, 0)
}

// assertDominatesOrMatches fails unless every point of want is matched or
// dominated by some point of got, with per-coordinate tolerance tol.
func assertDominatesOrMatches(t *testing.T, got []ExploredPoint, want []ExploredPoint, tol float64) {
	t.Helper()
	for _, d := range want {
		ok := false
		for _, e := range got {
			covered := true
			for k := range d.Coords {
				if !(e.Coords[k] >= d.Coords[k]-tol) {
					covered = false
					break
				}
			}
			if covered {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("dense frontier point (α=%g β=%g) %v not matched or dominated by any explored point",
				d.Alpha, d.Beta, d.Coords)
		}
	}
}

// smallAIMDExplore is the shared shape of the empirical tests: a short
// horizon and a small lattice keep the dense reference affordable.
func smallAIMDExplore(opt metrics.Options) ExploreConfig {
	return ExploreConfig{
		AlphaRange:   [2]float64{0.5, 2},
		BetaRange:    [2]float64{0.3, 0.8},
		Coarse:       4,
		Rounds:       2,
		RefineFactor: 2,
		Eval:         AIMDEvaluator(testLink(), opt),
	}
}

// testLink is the paper's 20 Mbps / 42 ms reference dumbbell with a
// small buffer.
func testLink() fluid.Config {
	return fluid.Config{Bandwidth: fluid.MbpsToMSSps(20), PropDelay: 0.021, Buffer: 4}
}

// TestExploreDominatesDenseEmpirical runs the real AIMD evaluator on a
// small box: the explored frontier must match or dominate the dense-grid
// frontier on the same lattice. Explore and the dense pass share one
// session, so the dense reference reuses every cell Explore already
// simulated.
func TestExploreDominatesDenseEmpirical(t *testing.T) {
	if testing.Short() {
		t.Skip("empirical dense reference is not short")
	}
	opt := metrics.Options{Steps: 300, Session: metrics.NewSession()}
	cfg := smallAIMDExplore(opt)
	exp, err := Explore(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := ExploreDense(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Stats.CellsEvaluated >= dense.Stats.CellsEvaluated {
		t.Fatalf("explore evaluated %d cells, dense %d — no saving", exp.Stats.CellsEvaluated, dense.Stats.CellsEvaluated)
	}
	assertDominatesOrMatches(t, exp.Points, dense.Frontier, 0)

	// The measured coordinates of cells both passes touched must be
	// bit-identical (same keys, same session): spot-check via the
	// frontier overlap.
	densePts := make(map[[2]float64][]float64)
	for _, p := range dense.Points {
		densePts[[2]float64{p.Alpha, p.Beta}] = p.Coords
	}
	for _, p := range exp.Points {
		dc, ok := densePts[[2]float64{p.Alpha, p.Beta}]
		if !ok {
			t.Fatalf("explored cell (α=%v β=%v) missing from the dense lattice — lattices disagree", p.Alpha, p.Beta)
		}
		for k := range p.Coords {
			if math.Float64bits(p.Coords[k]) != math.Float64bits(dc[k]) {
				t.Fatalf("cell (α=%v β=%v) objective %d: explore %v != dense %v", p.Alpha, p.Beta, k, p.Coords[k], dc[k])
			}
		}
	}
}

// TestExploreWarmStoreZeroCells pins the incremental property: a second
// invocation against the same persistent store — fresh session, fresh
// evaluator — simulates zero cells and reproduces the frontier bit for
// bit.
func TestExploreWarmStoreZeroCells(t *testing.T) {
	st, err := runstore.Open(t.TempDir(), runstore.Options{Version: "testver"})
	if err != nil {
		t.Fatal(err)
	}
	run := func() *ExploreResult {
		sess := metrics.NewSession()
		sess.SetStore(st)
		cfg := smallAIMDExplore(metrics.Options{Steps: 200, Session: sess})
		res, err := Explore(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := run()
	if cold.Stats.CellsSimulated == 0 {
		t.Fatal("cold run simulated zero cells — the measurement is vacuous")
	}
	if cold.Stats.CellsSimulated != cold.Stats.CellsEvaluated {
		t.Fatalf("cold run: %d simulated of %d evaluated, want all",
			cold.Stats.CellsSimulated, cold.Stats.CellsEvaluated)
	}
	warm := run()
	if warm.Stats.CellsSimulated != 0 {
		t.Fatalf("warm run simulated %d cells, want 0", warm.Stats.CellsSimulated)
	}
	if warm.Stats.CacheHits != warm.Stats.CellsEvaluated {
		t.Fatalf("warm run: %d cache hits of %d evaluated, want all",
			warm.Stats.CacheHits, warm.Stats.CellsEvaluated)
	}
	if len(warm.Points) != len(cold.Points) {
		t.Fatalf("warm run evaluated %d points, cold %d", len(warm.Points), len(cold.Points))
	}
	for i := range warm.Points {
		if warm.Points[i].Alpha != cold.Points[i].Alpha || warm.Points[i].Beta != cold.Points[i].Beta ||
			!bitsEqual(warm.Points[i].Coords, cold.Points[i].Coords) {
			t.Fatalf("point %d differs warm vs cold: %+v vs %+v", i, warm.Points[i], cold.Points[i])
		}
	}
}

// TestAIMDEvaluatorLookups pins the evaluator's work per round: each of
// k cells requests its 3 homogeneous and 3 p-vs-Reno runs once, so a
// round makes exactly 6k Session lookups. The only hits are the n = 1
// starts where the fair share equals the skewed start (both are one
// sender holding C), one per cell. The coordinates equal the public
// estimators' bit for bit, and a repeated round is all hits.
func TestAIMDEvaluatorLookups(t *testing.T) {
	cells := []Cell{{Alpha: 1, Beta: 0.5}, {Alpha: 2, Beta: 0.7}, {Alpha: 0.5, Beta: 0.3}}
	k := int64(len(cells))
	opt := metrics.Options{Steps: 200, Session: metrics.NewSession()}
	eval := AIMDEvaluator(testLink(), opt)
	res, err := eval(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	st := opt.Session.Stats()
	if lookups := st.Hits + st.DiskHits + st.Misses + st.Uncacheable; lookups != 6*k {
		t.Fatalf("%d lookups for %d cells, want %d: %+v", lookups, k, 6*k, st)
	}
	if st.Hits != k || st.Misses != 5*k || st.DiskHits != 0 || st.Uncacheable != 0 {
		t.Fatalf("want %d hits and %d misses, got %+v", k, 5*k, st)
	}
	for i, c := range cells {
		if !res[i].Simulated {
			t.Errorf("cell %d not marked simulated", i)
		}
		p := protocol.NewAIMD(c.Alpha, c.Beta)
		plain := metrics.Options{Steps: opt.Steps, NoCache: true}
		eff, err := metrics.Efficiency(testLink(), p, 1, plain)
		if err != nil {
			t.Fatal(err)
		}
		friendly, err := metrics.TCPFriendliness(testLink(), p, 1, 1, plain)
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(res[i].Coords, []float64{eff, friendly}) {
			t.Errorf("cell %d: coords %v, estimators %v", i, res[i].Coords, []float64{eff, friendly})
		}
	}
	if _, err := eval(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	if again := opt.Session.Stats(); again.Misses != st.Misses || again.Hits != st.Hits+6*k {
		t.Fatalf("repeated round: %+v after %+v, want %d more hits and no misses", again, st, 6*k)
	}
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestExploreBudget pins the cell budget: the total never exceeds it,
// and rounds report what they deferred.
func TestExploreBudget(t *testing.T) {
	ev := &synthEval{}
	res, err := Explore(context.Background(), ExploreConfig{
		Coarse:       5,
		Rounds:       2,
		RefineFactor: 2,
		BudgetCells:  30,
		Eval:         ev.eval,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CellsEvaluated > 30 {
		t.Fatalf("budget 30 exceeded: %d cells evaluated", res.Stats.CellsEvaluated)
	}
	deferred := 0
	for _, r := range res.Rounds {
		deferred += r.Deferred
	}
	if deferred == 0 {
		t.Fatal("tight budget deferred nothing — budget accounting is dead code")
	}
}

// TestExploreEvaluatorErrors pins error propagation.
func TestExploreEvaluatorErrors(t *testing.T) {
	boom := fmt.Errorf("boom")
	_, err := Explore(context.Background(), ExploreConfig{
		Eval: func(context.Context, []Cell) ([]CellResult, error) { return nil, boom },
	})
	if err != boom {
		t.Fatalf("got %v, want the evaluator error", err)
	}
	if _, err := Explore(context.Background(), ExploreConfig{}); err == nil {
		t.Fatal("nil evaluator must be rejected")
	}
	_, err = Explore(context.Background(), ExploreConfig{
		Eval: func(_ context.Context, cells []Cell) ([]CellResult, error) {
			return make([]CellResult, len(cells)+1), nil
		},
	})
	if err == nil {
		t.Fatal("result/cell count mismatch must be rejected")
	}
}

// TestExploreOnRoundStreams pins the streaming hook: one call per round,
// rounds in order, cumulative counts consistent with the final stats.
func TestExploreOnRoundStreams(t *testing.T) {
	ev := &synthEval{}
	var rounds []RoundSnapshot
	res, err := Explore(context.Background(), ExploreConfig{
		Coarse: 3,
		Rounds: 2,
		Eval:   ev.eval,
		OnRound: func(s RoundSnapshot) {
			rounds = append(rounds, s)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != len(res.Rounds) {
		t.Fatalf("OnRound fired %d times for %d rounds", len(rounds), len(res.Rounds))
	}
	total := 0
	for i, r := range rounds {
		if r.Round != i {
			t.Fatalf("round %d reported as %d", i, r.Round)
		}
		total += r.Evaluated
	}
	if total != res.Stats.CellsEvaluated {
		t.Fatalf("round evaluated sum %d != stats %d", total, res.Stats.CellsEvaluated)
	}
}

// TestExploreContextCancel pins prompt cancellation between rounds.
func TestExploreContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ev := &synthEval{}
	_, err := Explore(ctx, ExploreConfig{
		Coarse: 3,
		Rounds: 4,
		Eval: func(c context.Context, cells []Cell) ([]CellResult, error) {
			cancel() // cancel mid-flight; the next round must not start
			return ev.eval(c, cells)
		},
	})
	if err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if ev.calls != 1 {
		t.Fatalf("evaluator ran %d times after cancellation, want 1", ev.calls)
	}
}
