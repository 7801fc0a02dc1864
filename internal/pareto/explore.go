package pareto

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/obs"
)

// This file implements adaptive Pareto-frontier exploration: instead of
// characterizing a dense (α, β) grid — where almost every cell is
// Pareto-irrelevant — Explore runs a coarse pass and then successive-
// halving refinement rounds that subdivide only the parent cells
// adjacent to the current empirical frontier, with a dominance-pruning
// bandit that drops candidates whose optimistic (upper-confidence)
// score vector is already dominated by a confirmed frontier point. Cells live on an integer
// lattice at the finest resolution the configuration can reach, so every
// round's cell coordinates are bit-reproducible, coincide across
// invocations (which is what makes refinement incremental over the run
// store), and coincide with the dense verification grid of the same
// resolution.

// Cell is one candidate (α, β) parameter point handed to a CellEvaluator.
type Cell struct {
	Alpha, Beta float64
}

// CellResult is the evaluator's measurement of one cell: a higher-is-
// better coordinate vector (every cell must use the same length), plus
// whether resolving it actually executed a simulation (as opposed to
// being served entirely from a session cache or the persistent run
// store). The flag is what Explore's cells-simulated accounting — and
// the warm-store "repeat invocation simulates zero cells" property — is
// measured through.
type CellResult struct {
	Coords    []float64
	Simulated bool
}

// CellEvaluator measures a batch of cells. Explore hands over whole
// rounds at once so implementations can resolve every cell's runs in one
// engine batch (metrics.ResolveRuns → engine.SweepSpecs → fluid.Batch);
// results must be parallel to cells and deterministic.
type CellEvaluator func(ctx context.Context, cells []Cell) ([]CellResult, error)

// ExploredPoint is one measured cell: its (α, β) parameters and its
// oriented score vector.
type ExploredPoint struct {
	Alpha, Beta float64
	Coords      []float64
}

// RoundSnapshot describes one completed exploration round. Round 0 is
// the coarse pass; refinement rounds count up from 1.
type RoundSnapshot struct {
	Round int
	// SpacingAlpha/SpacingBeta is the lattice spacing of cells this round
	// evaluates, in parameter units.
	SpacingAlpha, SpacingBeta float64
	// Evaluated is how many new cells this round measured; Simulated is
	// how many of those executed at least one simulation, and CacheHits
	// is the remainder (resolved entirely from cache/store). Pruned is
	// how many candidates the dominance bandit dropped, and Deferred how
	// many survived pruning but fell outside the round's cell budget.
	Evaluated, Simulated, CacheHits, Pruned, Deferred int
	// Frontier is the empirical frontier over everything evaluated so
	// far, in evaluation order.
	Frontier []ExploredPoint
}

// ExploreStats aggregates a whole Explore call.
type ExploreStats struct {
	CellsEvaluated int
	CellsSimulated int
	CacheHits      int
	CellsPruned    int
	Rounds         int
}

// ExploreResult is what Explore returns: every measured point in
// evaluation order, the final frontier, the per-round snapshots, and the
// aggregate stats.
type ExploreResult struct {
	Points   []ExploredPoint
	Frontier []ExploredPoint
	Rounds   []RoundSnapshot
	Stats    ExploreStats
}

// DefaultPruneSlack is the optimism margin of the dominance bandit, as a
// fraction of each objective's observed spread: a candidate is pruned
// only when even its neighborhood maximum plus this margin is dominated
// by a confirmed frontier point. Larger values prune less (safer,
// slower); 0 prunes on the neighborhood maximum alone.
const DefaultPruneSlack = 0.15

// ExploreConfig parameterizes Explore. The zero value of every field
// except Eval selects a sensible default (documented per field).
type ExploreConfig struct {
	// AlphaRange and BetaRange bound the (α, β) box. Defaults are the
	// paper's Figure 1 box: α ∈ [0.25, 3], β ∈ [0.1, 0.9].
	AlphaRange, BetaRange [2]float64
	// Coarse is the number of coarse-pass grid points per axis
	// (default 7, minimum 2).
	Coarse int
	// Rounds is the number of successive-halving refinement rounds after
	// the coarse pass (default 3; pass a negative value for a coarse-only
	// pass).
	Rounds int
	// RefineFactor divides the lattice spacing each round (default 2,
	// minimum 2). The finest resolution reached is a dense grid of
	// (Coarse−1)·RefineFactor^Rounds + 1 points per axis.
	RefineFactor int
	// BudgetCells caps the total number of cells evaluated, coarse pass
	// included (0 = unlimited). Refinement rounds split the remaining
	// budget evenly over the rounds left, ranking candidates by their
	// optimistic score; the final round takes everything left.
	BudgetCells int
	// PruneSlack overrides DefaultPruneSlack (0 selects the default;
	// negative values mean no slack).
	PruneSlack float64
	// Eval measures candidate cells. Required.
	Eval CellEvaluator
	// OnRound, when non-nil, is called after each round completes —
	// the hook the /frontier NDJSON streaming endpoint attaches to.
	OnRound func(RoundSnapshot)
}

// Explore telemetry, recorded only while obs is enabled.
var (
	exploreCellsSimulated = obs.GetCounter("pareto.explore.cells.simulated")
	exploreCellsPruned    = obs.GetCounter("pareto.explore.cells.pruned")
	exploreCellsCacheHits = obs.GetCounter("pareto.explore.cells.cache_hits")
)

// withDefaults validates the lattice geometry and fills defaults. Eval
// is checked separately by Explore/ExploreDense so that FinestGridSide
// works on evaluator-less configs (wire-spec validation needs it).
func (c ExploreConfig) withDefaults() (ExploreConfig, error) {
	if c.AlphaRange == [2]float64{} {
		c.AlphaRange = [2]float64{0.25, 3}
	}
	if c.BetaRange == [2]float64{} {
		c.BetaRange = [2]float64{0.1, 0.9}
	}
	if c.Coarse == 0 {
		c.Coarse = 7
	}
	if c.Rounds == 0 {
		c.Rounds = 3
	}
	if c.Rounds < 0 {
		c.Rounds = 0
	}
	if c.RefineFactor == 0 {
		c.RefineFactor = 2
	}
	if c.PruneSlack == 0 {
		c.PruneSlack = DefaultPruneSlack
	}
	if c.PruneSlack < 0 {
		c.PruneSlack = 0
	}
	for _, r := range [][2]float64{c.AlphaRange, c.BetaRange} {
		if !(r[0] < r[1]) || math.IsInf(r[0], 0) || math.IsInf(r[1], 0) || math.IsNaN(r[0]) || math.IsNaN(r[1]) {
			return c, fmt.Errorf("pareto: invalid explore range [%v, %v]", r[0], r[1])
		}
	}
	if c.Coarse < 2 {
		return c, fmt.Errorf("pareto: Coarse must be ≥ 2, got %d", c.Coarse)
	}
	if c.RefineFactor < 2 {
		return c, fmt.Errorf("pareto: RefineFactor must be ≥ 2, got %d", c.RefineFactor)
	}
	if c.Rounds > 16 {
		return c, fmt.Errorf("pareto: Rounds must be ≤ 16, got %d", c.Rounds)
	}
	return c, nil
}

// FinestGridSide returns the per-axis point count of the finest lattice
// the configuration can reach — the resolution of the equivalent dense
// grid. It applies the same defaults Explore does.
func (c ExploreConfig) FinestGridSide() (int, error) {
	cc, err := c.withDefaults()
	if err != nil {
		return 0, err
	}
	return (cc.Coarse-1)*intPow(cc.RefineFactor, cc.Rounds) + 1, nil
}

func intPow(base, exp int) int {
	out := 1
	for i := 0; i < exp; i++ {
		out *= base
	}
	return out
}

// latticeValue maps lattice index i ∈ [0, n] onto [lo, hi]. It performs
// the same float64 operations as Grid(lo, hi, n+1), so explored cell
// parameters are bit-identical to the dense grid's — which is what lets
// the run store share cells between Explore and a dense verification
// sweep.
func latticeValue(lo, hi float64, i, n int) float64 {
	if i == n {
		return hi
	}
	step := (hi - lo) / float64(n)
	return lo + float64(i)*step
}

// cellIdx is a lattice coordinate at the finest resolution.
type cellIdx struct{ ia, ib int }

// evalCell is one measured lattice cell.
type evalCell struct {
	idx         cellIdx
	alpha, beta float64
	coords      []float64
	sim         bool
}

func (e *evalCell) point() ExploredPoint {
	return ExploredPoint{Alpha: e.alpha, Beta: e.beta, Coords: e.coords}
}

// explorer is the per-call state of Explore.
type explorer struct {
	cfg    ExploreConfig
	na, nb int // lattice extent per axis (index range [0, na]×[0, nb])
	seen   map[cellIdx]*evalCell
	order  []*evalCell
	res    *ExploreResult
}

// Explore runs the adaptive frontier search. See the file comment for
// the algorithm; the result is deterministic for a deterministic
// evaluator (iteration never depends on map order, and ties in the
// bandit's ranking break on lattice coordinates).
func Explore(ctx context.Context, cfg ExploreConfig) (*ExploreResult, error) {
	if cfg.Eval == nil {
		return nil, fmt.Errorf("pareto: ExploreConfig.Eval is required")
	}
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	f := intPow(c.RefineFactor, c.Rounds)
	ex := &explorer{
		cfg:  c,
		na:   (c.Coarse - 1) * f,
		nb:   (c.Coarse - 1) * f,
		seen: make(map[cellIdx]*evalCell),
		res:  &ExploreResult{},
	}

	// Coarse pass: the full Coarse×Coarse lattice at stride F, row-major
	// (budget truncation, if any, keeps the prefix).
	var coarse []cellIdx
	for ia := 0; ia <= ex.na; ia += f {
		for ib := 0; ib <= ex.nb; ib += f {
			coarse = append(coarse, cellIdx{ia, ib})
		}
	}
	if c.BudgetCells > 0 && len(coarse) > c.BudgetCells {
		coarse = coarse[:c.BudgetCells]
	}
	if err := ex.runRound(ctx, 0, f, coarse, 0, 0); err != nil {
		return nil, err
	}

	stride := f
	for r := 1; r <= c.Rounds; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		stride /= c.RefineFactor
		cands := ex.candidates(stride)
		kept, pruned := ex.prune(cands, stride)
		deferred := 0
		if c.BudgetCells > 0 {
			remaining := c.BudgetCells - len(ex.order)
			if remaining < 0 {
				remaining = 0
			}
			allot := remaining / (c.Rounds - r + 1)
			if r == c.Rounds {
				allot = remaining
			}
			if len(kept) > allot {
				deferred = len(kept) - allot
				kept = kept[:allot]
			}
		}
		if err := ex.runRound(ctx, r, stride, kept, pruned, deferred); err != nil {
			return nil, err
		}
		if len(kept) == 0 && pruned == 0 {
			break // lattice exhausted around the frontier
		}
	}

	ex.res.Frontier = ex.frontierPoints()
	ex.res.Stats.Rounds = len(ex.res.Rounds)
	return ex.res, nil
}

// ExploreDense evaluates the full finest-resolution lattice of cfg in
// one batch — the brute-force reference Explore is measured against.
// BudgetCells, Rounds-driven refinement, and pruning do not apply; the
// result carries a single snapshot. Cell parameters are bit-identical to
// Explore's lattice, so a shared session/store resolves overlapping
// cells once across both.
func ExploreDense(ctx context.Context, cfg ExploreConfig) (*ExploreResult, error) {
	if cfg.Eval == nil {
		return nil, fmt.Errorf("pareto: ExploreConfig.Eval is required")
	}
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	f := intPow(c.RefineFactor, c.Rounds)
	ex := &explorer{
		cfg:  c,
		na:   (c.Coarse - 1) * f,
		nb:   (c.Coarse - 1) * f,
		seen: make(map[cellIdx]*evalCell),
		res:  &ExploreResult{},
	}
	var all []cellIdx
	for ia := 0; ia <= ex.na; ia++ {
		for ib := 0; ib <= ex.nb; ib++ {
			all = append(all, cellIdx{ia, ib})
		}
	}
	if err := ex.runRound(ctx, 0, 1, all, 0, 0); err != nil {
		return nil, err
	}
	ex.res.Frontier = ex.frontierPoints()
	ex.res.Stats.Rounds = 1
	return ex.res, nil
}

// runRound evaluates the given cells (already deduplicated against seen)
// and appends the round's snapshot.
func (ex *explorer) runRound(ctx context.Context, round, stride int, cells []cellIdx, pruned, deferred int) error {
	sp := obs.StartLeafSpan("pareto.explore.round")
	sp.SetDetail("round " + strconv.Itoa(round) + ": " + strconv.Itoa(len(cells)) + " cells")
	defer sp.End()

	if len(cells) > 0 {
		batch := make([]Cell, len(cells))
		for i, ci := range cells {
			batch[i] = Cell{
				Alpha: latticeValue(ex.cfg.AlphaRange[0], ex.cfg.AlphaRange[1], ci.ia, ex.na),
				Beta:  latticeValue(ex.cfg.BetaRange[0], ex.cfg.BetaRange[1], ci.ib, ex.nb),
			}
		}
		out, err := ex.cfg.Eval(ctx, batch)
		if err != nil {
			return err
		}
		if len(out) != len(cells) {
			return fmt.Errorf("pareto: evaluator returned %d results for %d cells", len(out), len(cells))
		}
		for i, r := range out {
			if len(ex.order) > 0 && len(r.Coords) != len(ex.order[0].coords) {
				return fmt.Errorf("pareto: evaluator changed objective count (%d vs %d)", len(r.Coords), len(ex.order[0].coords))
			}
			ec := &evalCell{idx: cells[i], alpha: batch[i].Alpha, beta: batch[i].Beta, coords: r.Coords, sim: r.Simulated}
			ex.seen[cells[i]] = ec
			ex.order = append(ex.order, ec)
			ex.res.Points = append(ex.res.Points, ec.point())
		}
	}

	simulated := 0
	for _, ci := range cells {
		if ex.seen[ci].sim {
			simulated++
		}
	}
	hits := len(cells) - simulated
	snap := RoundSnapshot{
		Round:        round,
		SpacingAlpha: float64(stride) * (ex.cfg.AlphaRange[1] - ex.cfg.AlphaRange[0]) / float64(ex.na),
		SpacingBeta:  float64(stride) * (ex.cfg.BetaRange[1] - ex.cfg.BetaRange[0]) / float64(ex.nb),
		Evaluated:    len(cells),
		Simulated:    simulated,
		CacheHits:    hits,
		Pruned:       pruned,
		Deferred:     deferred,
		Frontier:     ex.frontierPoints(),
	}
	ex.res.Rounds = append(ex.res.Rounds, snap)
	ex.res.Stats.CellsEvaluated += len(cells)
	ex.res.Stats.CellsSimulated += simulated
	ex.res.Stats.CacheHits += hits
	ex.res.Stats.CellsPruned += pruned
	if obs.Enabled() {
		exploreCellsSimulated.Add(uint64(simulated))
		exploreCellsCacheHits.Add(uint64(hits))
		exploreCellsPruned.Add(uint64(pruned))
	}
	if ex.cfg.OnRound != nil {
		ex.cfg.OnRound(snap)
	}
	return nil
}

// frontierCells returns the evaluated cells on the current empirical
// frontier, in evaluation order.
func (ex *explorer) frontierCells() []*evalCell {
	if len(ex.order) == 0 {
		return nil
	}
	pts := make([]Point, len(ex.order))
	for i, ec := range ex.order {
		pts[i] = Point{Label: strconv.Itoa(i), Coords: ec.coords}
	}
	front := Frontier(pts)
	out := make([]*evalCell, len(front))
	for i, p := range front {
		idx, _ := strconv.Atoi(p.Label)
		out[i] = ex.order[idx]
	}
	return out
}

func (ex *explorer) frontierPoints() []ExploredPoint {
	cells := ex.frontierCells()
	out := make([]ExploredPoint, len(cells))
	for i, ec := range cells {
		out[i] = ec.point()
	}
	return out
}

// candidates subdivides the parent-spacing neighborhood of each frontier
// cell: every unevaluated point of the refined lattice within L∞
// distance ≤ RefineFactor·stride (= the previous round's spacing) of a
// frontier cell, sorted by lattice coordinates for determinism. The
// inner ring supplies the halved-resolution detail right at the
// frontier; the outer ring reaches into the adjacent parent cells on
// the dominated side, which is what gives the dominance bandit
// something to prune. NaN-scored cells are always "on" the frontier by
// dominance rules but carry no gradient information, so they do not
// seed refinement.
func (ex *explorer) candidates(stride int) []cellIdx {
	rf := ex.cfg.RefineFactor
	seen := make(map[cellIdx]bool)
	var out []cellIdx
	for _, fc := range ex.frontierCells() {
		if hasNaN(fc.coords) {
			continue
		}
		for di := -rf; di <= rf; di++ {
			for dj := -rf; dj <= rf; dj++ {
				if di == 0 && dj == 0 {
					continue
				}
				ci := cellIdx{fc.idx.ia + di*stride, fc.idx.ib + dj*stride}
				if ci.ia < 0 || ci.ia > ex.na || ci.ib < 0 || ci.ib > ex.nb {
					continue
				}
				if _, done := ex.seen[ci]; done || seen[ci] {
					continue
				}
				seen[ci] = true
				out = append(out, ci)
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].ia != out[b].ia {
			return out[a].ia < out[b].ia
		}
		return out[a].ib < out[b].ib
	})
	return out
}

func hasNaN(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) {
			return true
		}
	}
	return false
}

// prune applies the dominance bandit: each candidate's optimistic score
// vector is the component-wise maximum over the measured cells within
// L∞ lattice distance ≤ radius (the spacing being evaluated this
// round), plus PruneSlack × the objective's observed spread. Candidates
// whose optimistic vector is dominated by a confirmed frontier point
// cannot contribute a frontier cell and are dropped. The optimism
// neighborhood is deliberately tighter than the candidate ring: a
// far-side candidate is judged by its own dominated surroundings, not
// by the frontier cell that proposed it (a neighborhood containing a
// frontier point is unprunable by construction, since nothing dominates
// a frontier point). Survivors are returned ranked by optimistic
// promise (descending, ties on lattice coordinates) so a budget cut
// keeps the most promising cells; the pruned count is returned
// alongside.
func (ex *explorer) prune(cands []cellIdx, radius int) ([]cellIdx, int) {
	if len(cands) == 0 || len(ex.order) == 0 {
		return cands, 0
	}
	dims := len(ex.order[0].coords)

	// Per-objective observed spread and minimum, over finite scores.
	lo := make([]float64, dims)
	hi := make([]float64, dims)
	for k := 0; k < dims; k++ {
		lo[k], hi[k] = math.Inf(1), math.Inf(-1)
	}
	for _, ec := range ex.order {
		for k, v := range ec.coords {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			lo[k] = math.Min(lo[k], v)
			hi[k] = math.Max(hi[k], v)
		}
	}

	front := ex.frontierCells()
	type ranked struct {
		idx     cellIdx
		promise float64
	}
	var kept []ranked
	pruned := 0
	ub := make([]float64, dims)
	for _, ci := range cands {
		known := false
		for k := range ub {
			ub[k] = math.Inf(-1)
		}
		for _, ec := range ex.order {
			if abs(ec.idx.ia-ci.ia) > radius || abs(ec.idx.ib-ci.ib) > radius {
				continue
			}
			for k, v := range ec.coords {
				if math.IsNaN(v) {
					continue
				}
				known = true
				ub[k] = math.Max(ub[k], v)
			}
		}
		if !known {
			// No measured neighborhood: nothing to be optimistic from,
			// nothing that justifies pruning either.
			kept = append(kept, ranked{ci, math.Inf(1)})
			continue
		}
		promise := 0.0
		for k := 0; k < dims; k++ {
			if math.IsInf(ub[k], -1) {
				// No finite information for this objective: optimism, not
				// pessimism — an unknown coordinate must block pruning.
				ub[k] = math.Inf(1)
				continue
			}
			if spread := hi[k] - lo[k]; spread > 0 && !math.IsInf(spread, 0) {
				ub[k] += ex.cfg.PruneSlack * spread
				promise += (ub[k] - lo[k]) / spread
			}
		}
		dominated := false
		for _, fc := range front {
			if hasNaN(fc.coords) {
				continue
			}
			if Dominates(fc.coords, ub) {
				dominated = true
				break
			}
		}
		if dominated {
			pruned++
			continue
		}
		kept = append(kept, ranked{ci, promise})
	}
	sort.Slice(kept, func(a, b int) bool {
		if kept[a].promise != kept[b].promise {
			return kept[a].promise > kept[b].promise
		}
		if kept[a].idx.ia != kept[b].idx.ia {
			return kept[a].idx.ia < kept[b].idx.ia
		}
		return kept[a].idx.ib < kept[b].idx.ib
	})
	out := make([]cellIdx, len(kept))
	for i, r := range kept {
		out[i] = r.idx
	}
	return out, pruned
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
