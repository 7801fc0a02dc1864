package metrics

import (
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"slices"
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

// storeReaders counts the reader goroutines loadAll has started.
var storeReaders atomic.Int64

// loadAll loads keys[i] from st for every i in idx and returns the
// values and hit flags parallel to idx. The reads spread over up to
// workers goroutines (0 = GOMAXPROCS), the caller's among them; with one
// worker or one key they run inline and start none. A reader's panic is
// re-raised on the caller's goroutine once every reader has stopped.
func (c runCodec[T]) loadAll(st *runstore.Store, keys []string, idx []int, workers int) ([]T, []bool) {
	vals := make([]T, len(idx))
	hit := make([]bool, len(idx))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, len(idx)); workers <= 1 {
		for j, i := range idx {
			vals[j], hit[j] = c.load(st, keys[i])
		}
		return vals, hit
	}
	var next atomic.Int64
	read := func() {
		for j := int(next.Add(1)) - 1; j < len(idx); j = int(next.Add(1)) - 1 {
			vals[j], hit[j] = c.load(st, keys[idx[j]])
		}
	}
	var (
		wg       sync.WaitGroup
		panicked atomic.Pointer[any]
	)
	for w := 1; w < workers; w++ {
		storeReaders.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &r)
				}
			}()
			read()
		}()
	}
	read()
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(*r)
	}
	return vals, hit
}

// resolve resolves one run of steps steps per key through s and returns
// the runs' payloads, parallel to keys. exec simulates exactly the runs
// whose indices it is given, in increasing order, and returns their
// payloads in that order: every run left to simulate in one pass over
// the keys reaches it together, so a grid's misses can take the engine's
// lockstep batch path. The second return is parallel to keys and
// reports which runs this call actually executed: true for cache misses
// and uncacheable runs, false for memory and disk hits and for runs
// another claimant finished. Explore's incremental accounting is built
// on it — a warm store makes every flag false.
//
// With a nil session resolve just executes (and returns no flags).
// Otherwise it classifies the keys under one lock: runs whose key has no
// canonical identity (cacheable false) go to exec and count as
// Uncacheable; keys already in flight — including a duplicate claimed
// earlier in the same call — become waiters; the rest are claimed.
// Claimed keys are read from the persistent store, across up to workers
// goroutines (0 = GOMAXPROCS, 1 = inline on the caller's), and disk hits
// fill their claims at once, in index order. The keys still missing
// take their cross-process locks in sorted key order — a global total
// order, so two callers can never deadlock on each other — and are read
// again, since another process may have just written them. What is
// still missing goes to exec once, is written back and fills its
// claims, and the locks are released before any waiter is touched:
// blocking on another goroutine's entry while holding flocks could close
// a wait cycle through a third process. A lock that cannot be taken
// degrades its key to lock-free, idempotent behavior.
//
// Errors are returned to the claimant but never cached: its claims are
// evicted, so a waiter on one re-enters the loop and claims the key
// itself, and later calls retry (a canceled context must not poison the
// session — and runs are deterministic, so a genuine failure simply
// reproduces). If exec panics, waiters get errSessionPanicked and the
// panic keeps unwinding on the claimant's goroutine.
func resolve[T any](s *Session, keys []string, cacheable []bool, steps, workers int, c runCodec[T], exec func(miss []int) ([]T, error)) ([]T, []bool, error) {
	pending := make([]int, len(keys))
	for i := range pending {
		pending[i] = i
	}
	if s == nil {
		out, err := exec(pending)
		return out, nil, err
	}
	out := make([]T, len(keys))
	sim := make([]bool, len(keys))
	entries := make([]*sessionEntry, len(keys))
	var d SessionStats
	defer func() {
		if d != (SessionStats{}) {
			s.record(d)
		}
	}()
	// fromStore reads the claims across the workers, fills those the
	// store holds in index order and returns the rest.
	fromStore := func(open []int) []int {
		vals, hit := c.loadAll(s.store, keys, open, workers)
		left := open[:0]
		for j, i := range open {
			if hit[j] {
				out[i], entries[i].val = vals[j], vals[j]
				close(entries[i].done)
				d.DiskHits++
				d.StepsSaved += int64(steps)
				continue
			}
			left = append(left, i)
		}
		return left
	}
	// settle resolves one round's claims and uncacheable runs; its
	// deferred calls release the round's locks and then evict whatever
	// claims it leaves open.
	settle := func(open, miss []int) (err error) {
		err = errSessionPanicked // stays set only if exec panics
		defer func() {
			for _, i := range open {
				s.evict(keys[i], entries[i], err)
			}
		}()
		if s.store != nil && len(open) > 0 {
			open = fromStore(open)
			slices.SortFunc(open, func(a, b int) int { return strings.Compare(keys[a], keys[b]) })
			for _, i := range open {
				if unlock, lerr := s.store.LockKey(keys[i]); lerr == nil {
					defer unlock()
				}
			}
			open = fromStore(open)
		}
		miss = append(miss, open...)
		if len(miss) == 0 {
			return nil
		}
		slices.Sort(miss)
		sp := obs.StartLeafSpan("metrics.session.simulate")
		if sp != nil {
			sp.SetDetail(strconv.Itoa(len(miss)) + " cells")
		}
		vs, err := exec(miss)
		sp.End()
		if err == nil && len(vs) != len(miss) {
			err = errors.New("metrics: exec returned the wrong number of runs")
		}
		if err != nil {
			return err
		}
		for j, i := range miss {
			out[i], sim[i] = vs[j], true
			d.StepsSimulated += int64(steps)
			if !cacheable[i] {
				d.Uncacheable++
				continue
			}
			d.Misses++
			if s.store != nil {
				// A write failure (disk full, permissions) costs
				// persistence, not correctness.
				_ = s.store.Put(keys[i], c.encode(vs[j]))
			}
			entries[i].val = vs[j]
			close(entries[i].done)
		}
		open = nil
		return nil
	}
	for len(pending) > 0 {
		var claimed, waiters, miss []int
		s.mu.Lock()
		for _, i := range pending {
			e, inFlight := s.entries[keys[i]]
			switch {
			case !cacheable[i]:
				miss = append(miss, i)
			case inFlight:
				entries[i] = e
				waiters = append(waiters, i)
			default:
				entries[i] = &sessionEntry{done: make(chan struct{})}
				s.entries[keys[i]] = entries[i]
				claimed = append(claimed, i)
			}
		}
		s.mu.Unlock()
		if err := settle(claimed, miss); err != nil {
			return nil, nil, err
		}
		pending = pending[:0]
		for _, i := range waiters {
			e := entries[i]
			wsp := obs.StartLeafSpan("metrics.session.wait")
			<-e.done
			wsp.End()
			switch {
			case e.err == errSessionPanicked:
				return nil, nil, e.err
			case e.err != nil:
				pending = append(pending, i) // claim was evicted: claim it next round
			default:
				out[i] = e.val.(T)
				d.Hits++
				d.StepsSaved += int64(steps)
			}
		}
	}
	return out, sim, nil
}

// resolveOne resolves the single run key through resolve.
func resolveOne[T any](s *Session, key string, cacheable bool, steps int, c runCodec[T], exec func() (T, error)) (T, error) {
	out, _, err := resolve(s, []string{key}, []bool{cacheable}, steps, 1, c, func([]int) ([]T, error) {
		v, err := exec()
		return []T{v}, err
	})
	if err != nil {
		var zero T
		return zero, err
	}
	return out[0], nil
}

// lossFingerprinter is the optional contract the builtin fluid loss
// processes implement (mirroring protocol.Fingerprinter).
type lossFingerprinter interface{ Fingerprint() string }

// appendHexBits appends a float64 as the hex of its IEEE-754 bit
// pattern — collision-free, unlike decimal formatting, and cheap to
// compare.
func appendHexBits(b []byte, v float64) []byte {
	return strconv.AppendUint(b, math.Float64bits(v), 16)
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
	b := make([]byte, 0, 256) // the whole key, on the stack unless it outgrows this
	b = append(b, "v1|"...)
	b = append(b, kind...)
	b = append(b, '|')
	if kind == keyStream || kind == keyExt {
		b = append(b, "tf="...)
		b = appendHexBits(b, o.TailFrac)
		b = append(b, '|')
	}
	b = append(b, "steps="...)
	b = strconv.AppendInt(b, int64(o.Steps), 10)
	b = append(b, "|link="...)
	for _, v := range [...]float64{cfg.Bandwidth, cfg.PropDelay, cfg.Buffer, cfg.MaxWindow, cfg.TimeoutRTT} {
		b = appendHexBits(b, v)
		b = append(b, ',')
	}
	if cfg.Infinite {
		b = append(b, "inf"...)
	}
	b = append(b, "|seed="...)
	b = strconv.AppendUint(b, cfg.Seed, 16)
	b = append(b, '|')
	if cfg.Loss != nil {
		fp, ok := cfg.Loss.(lossFingerprinter)
		if !ok {
			return "", false
		}
		b = append(b, "loss="...)
		b = append(b, fp.Fingerprint()...)
		b = append(b, '|')
	}
	if o.Chaos != nil {
		raw, err := json.Marshal(o.Chaos)
		if err != nil {
			return "", false
		}
		b = append(b, "chaos="...)
		b = append(b, raw...)
		b = append(b, ";cs="...)
		b = strconv.AppendUint(b, o.ChaosSeed, 16)
		b = append(b, '|')
	}
	for i, p := range protos {
		f, ok := p.(protocol.Fingerprinter)
		if !ok {
			return "", false
		}
		b = append(b, f.Fingerprint()...)
		b = append(b, '@')
		w := protocol.MinWindow
		if len(init) > 0 {
			w = init[i%len(init)]
		}
		b = appendHexBits(b, w)
		b = append(b, ';')
	}
	return string(b), true
}
