package metrics

import (
	"encoding/json"
	"errors"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/fluid"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/runstore"
)

// Session is a content-addressed cache of simulation runs shared by the
// axiom estimators. Every run an estimator needs is keyed by a canonical
// fingerprint of its complete inputs — link config, protocol parameters,
// initial windows, horizon, tail fraction, and chaos schedule + seed — so
// a Characterize call simulates each unique (config, init) cell exactly
// once and fans all tail estimators out over the shared result, and a
// sweep that passes one Session through Options reuses cross-cell
// baselines (e.g. the Reno comparator of every friendliness cell).
//
// Runs are deterministic, so a cached result is bit-identical to a fresh
// simulation; the cache changes cost, never scores. Concurrent lookups of
// the same key are single-flighted: one goroutine simulates, the rest
// wait and share. What a key caches is the frozen result its readers
// score from — a *StreamSummary or *TopoSummary for streamed runs, the
// score itself for the fast-utilization and robustness probes, and an
// extSummary (settle step and smoothness) for the extension metrics — so
// a warm hit is a lookup of a few hundred bytes at most. Cached values are
// returned to multiple callers and must be treated as read-only.
//
// Inputs without a canonical identity — a protocol or loss process that
// doesn't implement Fingerprint, a Perturb or BandwidthSchedule closure —
// are never cached: those runs execute directly and count as Uncacheable
// in Stats.
type Session struct {
	mu      sync.Mutex
	entries map[string]*sessionEntry
	stats   SessionStats
	store   *runstore.Store
}

// sessionEntry is one single-flighted run: done closes when the claimant
// finishes, after which exactly one of val (on success) or err is set.
// val holds the payload type of the key's prefix: *StreamSummary for
// "v1|stream|", extSummary for "v1|ext|", float64 for "v1|fastutil|",
// bool for "v1|robust|", *TopoSummary for "v1|topo|".
type sessionEntry struct {
	done chan struct{}
	val  any
	err  error
}

// NewSession returns an empty run cache. A zero-value Session is not
// usable; estimators treat a nil *Session as "no caching". If a default
// persistent store has been installed with SetDefaultStore, the session
// is backed by it; override per session with SetStore.
func NewSession() *Session {
	return &Session{entries: make(map[string]*sessionEntry), store: defaultStore.Load()}
}

// defaultStore is the process-wide persistent tier picked up by every
// NewSession, including the private sessions Characterize and the
// experiment/report drivers create internally — installing it makes the
// whole process store-backed without threading a handle everywhere.
var defaultStore atomic.Pointer[runstore.Store]

// SetDefaultStore installs (or, with nil, removes) the persistent store
// that future NewSession calls inherit. Sessions already created keep
// whatever store they had.
func SetDefaultStore(st *runstore.Store) { defaultStore.Store(st) }

// DefaultStore returns the store installed by SetDefaultStore, or nil.
func DefaultStore() *runstore.Store { return defaultStore.Load() }

// SetStore attaches a persistent store as the session's second tier:
// lookups go memory → disk → simulate, and every simulated cacheable run
// is written back. Call before the session is shared across goroutines.
func (s *Session) SetStore(st *runstore.Store) { s.store = st }

// SessionStats summarizes what a Session saved. StepsSaved/StepsSimulated
// is the dedup factor: how many simulated steps the same calls would have
// cost without the cache, relative to what actually ran.
type SessionStats struct {
	// Hits is the number of runs served from a previous simulation in
	// this session's memory.
	Hits int64
	// DiskHits is the number of runs served from the persistent store
	// (simulated by an earlier process, or by another session in this
	// one).
	DiskHits int64
	// Misses is the number of runs actually simulated through the cache.
	Misses int64
	// Uncacheable is the number of runs executed outside the cache
	// because some input had no canonical fingerprint.
	Uncacheable int64
	// StepsSimulated is the total simulated steps of Misses + Uncacheable.
	StepsSimulated int64
	// StepsSaved is the total simulated steps Hits + DiskHits avoided.
	StepsSaved int64
}

// Simulated returns the number of runs this process actually executed:
// cache misses plus uncacheable runs. A fully warm persistent store
// makes this zero.
func (st SessionStats) Simulated() int64 { return st.Misses + st.Uncacheable }

// Stats returns a snapshot of the session's counters.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Process-wide aggregation across every Session, including the private
// ones experiments and reports create internally. CLIs report these so
// "-store-stats" reflects the whole run, not just one session.
var (
	totalMu    sync.Mutex
	totalStats SessionStats
)

// add accumulates the delta d.
func (st *SessionStats) add(d SessionStats) {
	st.Hits += d.Hits
	st.DiskHits += d.DiskHits
	st.Misses += d.Misses
	st.Uncacheable += d.Uncacheable
	st.StepsSimulated += d.StepsSimulated
	st.StepsSaved += d.StepsSaved
}

// TotalStats returns the aggregated counters of every session in this
// process since the last ResetTotalStats.
func TotalStats() SessionStats {
	totalMu.Lock()
	defer totalMu.Unlock()
	return totalStats
}

// ResetTotalStats zeroes the process-wide counters (used by tests).
func ResetTotalStats() {
	totalMu.Lock()
	totalStats = SessionStats{}
	totalMu.Unlock()
}

// session telemetry, recorded only while obs is enabled. Cached pointers:
// the registry preserves metric identity across Reset.
var (
	sessionHits        = obs.GetCounter("metrics.session.hits")
	sessionDiskHits    = obs.GetCounter("metrics.session.disk_hits")
	sessionMisses      = obs.GetCounter("metrics.session.misses")
	sessionUncacheable = obs.GetCounter("metrics.session.uncacheable")
)

// errSessionPanicked is handed to waiters whose claimant panicked; the
// panic itself propagates on the claimant's goroutine (where the sweep
// harness recovers it into a per-cell PanicError).
var errSessionPanicked = errors.New("metrics: cached run panicked in another goroutine")

// record adds one outcome to the session's counters, the process-wide
// totals and, while obs is enabled, the telemetry counters.
func (s *Session) record(d SessionStats) {
	s.mu.Lock()
	s.stats.add(d)
	s.mu.Unlock()
	totalMu.Lock()
	totalStats.add(d)
	totalMu.Unlock()
	if obs.Enabled() {
		sessionHits.Add(uint64(d.Hits))
		sessionDiskHits.Add(uint64(d.DiskHits))
		sessionMisses.Add(uint64(d.Misses))
		sessionUncacheable.Add(uint64(d.Uncacheable))
	}
}

// evict releases a claim that will not be filled: the key leaves the map
// so later calls claim it afresh, and current waiters wake with err.
func (s *Session) evict(key string, e *sessionEntry, err error) {
	s.mu.Lock()
	delete(s.entries, key)
	s.mu.Unlock()
	e.err = err
	close(e.done)
}

// runCodec is the store encoding of one cached payload type.
type runCodec[T any] struct {
	encode func(T) []byte
	decode func([]byte) (T, error)
}

var (
	streamCodec = runCodec[*StreamSummary]{encode: encodeStreamSummary, decode: decodeStreamSummary}
	extCodec    = runCodec[extSummary]{encode: encodeExt, decode: decodeExt}
	topoCodec   = runCodec[*TopoSummary]{encode: encodeTopoSummary, decode: decodeTopoSummary}
	floatCodec  = runCodec[float64]{encode: encodeFloat, decode: decodeFloat}
	boolCodec   = runCodec[bool]{encode: encodeBool, decode: decodeBool}
)

// load returns key's payload from st if it is present and decodes.
func (c runCodec[T]) load(st *runstore.Store, key string) (T, bool) {
	if payload, ok := st.Get(key); ok {
		if v, err := c.decode(payload); err == nil {
			return v, true
		}
	}
	var zero T
	return zero, false
}

// do resolves one run of steps steps through s. With a nil session it
// just executes; a run whose key has no canonical identity (cacheable
// false) executes uncached and counts as Uncacheable. Otherwise do
// returns the cached result for key, or claims the key and resolves it
// exactly once (see fetch) while concurrent callers wait. Errors are
// returned to the claimant and any current waiters but never cached: the
// claim is evicted so later calls retry (a canceled context must not
// poison the session — and runs are deterministic, so a genuine failure
// simply reproduces). If exec panics, waiters get errSessionPanicked and
// the panic keeps unwinding on the claimant's goroutine.
func do[T any](s *Session, key string, cacheable bool, steps int, c runCodec[T], exec func() (T, error)) (T, error) {
	if s == nil {
		return exec()
	}
	if !cacheable {
		v, err := exec()
		if err == nil {
			s.record(SessionStats{Uncacheable: 1, StepsSimulated: int64(steps)})
		}
		return v, err
	}
	for {
		s.mu.Lock()
		if e, ok := s.entries[key]; ok {
			s.mu.Unlock()
			wsp := obs.StartLeafSpan("metrics.session.wait")
			<-e.done
			wsp.End()
			if e.err == errSessionPanicked {
				var zero T
				return zero, e.err
			}
			if e.err != nil {
				continue // claim was evicted; retry (bounded: we claim next)
			}
			s.record(SessionStats{Hits: 1, StepsSaved: int64(steps)})
			return e.val.(T), nil
		}
		e := &sessionEntry{done: make(chan struct{})}
		s.entries[key] = e
		s.mu.Unlock()

		finished := false
		defer func() {
			if !finished {
				s.evict(key, e, errSessionPanicked)
			}
		}()
		v, fromDisk, err := fetch(s, key, c, exec)
		finished = true
		if err != nil {
			s.evict(key, e, err)
			return v, err
		}
		if fromDisk {
			s.record(SessionStats{DiskHits: 1, StepsSaved: int64(steps)})
		} else {
			s.record(SessionStats{Misses: 1, StepsSimulated: int64(steps)})
		}
		e.val = v
		close(e.done)
		return v, nil
	}
}

// fetch resolves a claimed key through the persistent tier: try the
// store, then take the key's cross-process lock, re-check the store (a
// concurrent process may have just finished the same run), and only then
// simulate and write back. With no store attached, or when the lock
// cannot be taken, it simply executes. The flock makes concurrent
// processes single-flight the same cell the way the in-memory map
// single-flights goroutines.
func fetch[T any](s *Session, key string, c runCodec[T], exec func() (T, error)) (v T, fromDisk bool, err error) {
	simulate := func() (T, error) {
		sp := obs.StartLeafSpan("metrics.session.simulate")
		defer sp.End()
		return exec()
	}
	if s.store == nil {
		v, err = simulate()
		return v, false, err
	}
	if v, ok := c.load(s.store, key); ok {
		return v, true, nil
	}
	unlock, lerr := s.store.LockKey(key)
	if lerr != nil {
		v, err = simulate()
		return v, false, err
	}
	defer unlock()
	if v, ok := c.load(s.store, key); ok {
		return v, true, nil
	}
	if v, err = simulate(); err == nil {
		// A write failure (disk full, permissions) costs persistence,
		// not correctness — the result still serves this process.
		_ = s.store.Put(key, c.encode(v))
	}
	return v, false, err
}

// doBatch resolves a whole grid of streaming runs through the cache in
// one pass, so the cells that actually need simulating reach the engine
// together and can take its grid-batch path (engine.SweepSpecs steps
// compatible cells in lockstep). keys/cacheable are parallel to the
// grid; exec simulates exactly the cells whose indices it is given and
// returns their summaries in that order.
//
// Classification happens under one lock: uncacheable cells always
// simulate; cacheable cells whose key is already in flight (including a
// duplicate key claimed earlier in the same call) become waiters; the
// rest are claimed. Claimed cells are served from the persistent store
// where possible, and the remainder is handed to exec as one batch.
// Claimed entries are filled and released before any waiter is resolved,
// so duplicate keys within one call cannot deadlock on themselves.
//
// Cross-process single-flight holds for the batch path too: the store
// locks of all claimed keys are taken up front in sorted key order — a
// global total order, so two batches can never deadlock on each other,
// and fetch only ever holds one of these at a time — and held
// across the store check and the simulation, so another process either
// finds each cell on disk or blocks until this batch writes it.
//
// The second return is parallel to keys and reports which runs this call
// actually executed: true for cache misses and uncacheable runs, false
// for memory/disk hits and for waiters served by another claimant.
// Explore's incremental accounting is built on it — a warm store makes
// every flag false.
func (s *Session) doBatch(keys []string, cacheable []bool, steps int, exec func(miss []int) ([]*StreamSummary, error)) ([]*StreamSummary, []bool, error) {
	n := len(keys)
	out := make([]*StreamSummary, n)
	sim := make([]bool, n)
	entries := make([]*sessionEntry, n)
	var claimed, waiters, miss []int
	s.mu.Lock()
	for i := 0; i < n; i++ {
		if !cacheable[i] {
			miss = append(miss, i)
			continue
		}
		if e, ok := s.entries[keys[i]]; ok {
			entries[i] = e
			waiters = append(waiters, i)
			continue
		}
		e := &sessionEntry{done: make(chan struct{})}
		s.entries[keys[i]] = e
		entries[i] = e
		claimed = append(claimed, i)
	}
	s.mu.Unlock()

	// Take the claimed keys' cross-process locks in sorted key order (see
	// the doc comment); a lock that cannot be acquired degrades that key
	// to lock-free idempotent behavior, like fetch.
	var unlocks []func()
	if s.store != nil && len(claimed) > 0 {
		order := append([]int(nil), claimed...)
		sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
		for _, i := range order {
			if unlock, lerr := s.store.LockKey(keys[i]); lerr == nil {
				unlocks = append(unlocks, unlock)
			}
		}
	}
	release := func() {
		for _, u := range unlocks {
			u()
		}
		unlocks = nil
	}
	defer release()

	// Serve claimed cells from the persistent store; disk hits are filled
	// and released immediately so concurrent waiters never block on I/O
	// that already finished. The rest join the miss batch.
	var open []int // claimed cells still unresolved (entry not yet closed)
	diskHits := 0
	for _, i := range claimed {
		if s.store != nil {
			if st, ok := streamCodec.load(s.store, keys[i]); ok {
				entries[i].val = st
				close(entries[i].done)
				out[i] = st
				diskHits++
				continue
			}
		}
		open = append(open, i)
		miss = append(miss, i)
	}
	if diskHits > 0 {
		s.record(SessionStats{DiskHits: int64(diskHits), StepsSaved: int64(diskHits) * int64(steps)})
	}
	sort.Ints(miss)

	if len(miss) > 0 {
		// evict releases the still-open claims on failure so other callers
		// retry rather than block; the deferred arm covers an exec panic
		// (as in do), with the panic itself unwinding on this goroutine.
		evict := func(err error) {
			for _, i := range open {
				s.evict(keys[i], entries[i], err)
			}
		}
		finished := false
		defer func() {
			if !finished {
				evict(errSessionPanicked)
			}
		}()
		bsp := obs.StartLeafSpan("metrics.session.simulate.batch")
		bsp.SetDetail(strconv.Itoa(len(miss)) + " cells")
		sums, err := exec(miss)
		bsp.End()
		if err == nil && len(sums) != len(miss) {
			err = errors.New("metrics: batch exec returned wrong cell count")
		}
		if err != nil {
			finished = true
			evict(err)
			return nil, nil, err
		}
		simulated, uncached := 0, 0
		for j, i := range miss {
			out[i] = sums[j]
			sim[i] = true
			if entries[i] == nil {
				uncached++
				continue
			}
			simulated++
			if s.store != nil {
				// A write failure costs persistence, not correctness.
				_ = s.store.Put(keys[i], streamCodec.encode(sums[j]))
			}
			entries[i].val = sums[j]
			close(entries[i].done)
		}
		finished = true
		s.record(SessionStats{
			Misses:         int64(simulated),
			Uncacheable:    int64(uncached),
			StepsSimulated: int64(simulated+uncached) * int64(steps),
		})
	}

	// Every claimed cell is resolved (filled or evicted) by this point,
	// so drop the key locks before touching waiters: blocking on another
	// goroutine's entry while still holding flocks could close a wait
	// cycle through a third process that the sorted acquisition order
	// alone does not rule out.
	release()

	// Waiters resolve through the ordinary single-flight path: normally a
	// pure hit on an entry another goroutine (or this very call) filled;
	// if that claim was evicted by a failure, do re-claims and simulates
	// the cell individually.
	for _, i := range waiters {
		st, err := do(s, keys[i], true, steps, streamCodec, func() (*StreamSummary, error) {
			sums, err := exec([]int{i})
			if err != nil {
				return nil, err
			}
			return sums[0], nil
		})
		if err != nil {
			return nil, nil, err
		}
		out[i] = st
	}
	return out, sim, nil
}

// lossFingerprinter is the optional contract the builtin fluid loss
// processes implement (mirroring protocol.Fingerprinter).
type lossFingerprinter interface{ Fingerprint() string }

// hexBits renders a float64 as the hex of its IEEE-754 bit pattern —
// collision-free, unlike decimal formatting, and cheap to compare.
func hexBits(sb *strings.Builder, v float64) {
	sb.WriteString(strconv.FormatUint(math.Float64bits(v), 16))
}

// runKind names what a cached fluid run's entry holds. It heads the
// run's key, so two kinds never share an entry even for the same inputs.
type runKind string

const (
	keyStream   runKind = "stream"   // *StreamSummary
	keyExt      runKind = "ext"      // extSummary
	keyFastUtil runKind = "fastutil" // FastUtilization's score
	keyRobust   runKind = "robust"   // RobustTo's verdict
)

// runKey builds the canonical content address of one simulated run: the
// payload kind, the defaulted link config, the per-sender protocol
// fingerprints and initial windows (init cycled exactly as the sender
// builders cycle it), the horizon, the chaos schedule + seed, and — for
// streamed runs and ext summaries — the tail fraction the summary was
// taken over. ok is false when any input lacks a canonical identity;
// such runs must execute uncached.
func runKey(cfg fluid.Config, protos []protocol.Protocol, init []float64, o Options, kind runKind) (key string, ok bool) {
	if cfg.Perturb != nil || cfg.BandwidthSchedule != nil {
		return "", false // opaque closures have no canonical identity
	}
	var sb strings.Builder
	sb.WriteString("v1|")
	sb.WriteString(string(kind))
	sb.WriteByte('|')
	if kind == keyStream || kind == keyExt {
		sb.WriteString("tf=")
		hexBits(&sb, o.TailFrac)
		sb.WriteByte('|')
	}
	sb.WriteString("steps=")
	sb.WriteString(strconv.Itoa(o.Steps))
	sb.WriteString("|link=")
	for _, v := range []float64{cfg.Bandwidth, cfg.PropDelay, cfg.Buffer, cfg.MaxWindow, cfg.TimeoutRTT} {
		hexBits(&sb, v)
		sb.WriteByte(',')
	}
	if cfg.Infinite {
		sb.WriteString("inf")
	}
	sb.WriteString("|seed=")
	sb.WriteString(strconv.FormatUint(cfg.Seed, 16))
	sb.WriteByte('|')
	if cfg.Loss != nil {
		fp, ok := cfg.Loss.(lossFingerprinter)
		if !ok {
			return "", false
		}
		sb.WriteString("loss=")
		sb.WriteString(fp.Fingerprint())
		sb.WriteByte('|')
	}
	if o.Chaos != nil {
		raw, err := json.Marshal(o.Chaos)
		if err != nil {
			return "", false
		}
		sb.WriteString("chaos=")
		sb.Write(raw)
		sb.WriteString(";cs=")
		sb.WriteString(strconv.FormatUint(o.ChaosSeed, 16))
		sb.WriteByte('|')
	}
	for i, p := range protos {
		f, ok := p.(protocol.Fingerprinter)
		if !ok {
			return "", false
		}
		sb.WriteString(f.Fingerprint())
		sb.WriteByte('@')
		w := protocol.MinWindow
		if len(init) > 0 {
			w = init[i%len(init)]
		}
		hexBits(&sb, w)
		sb.WriteByte(';')
	}
	return sb.String(), true
}
