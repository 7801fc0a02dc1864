package jobd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/retry"
)

// Store is the persistent tier the server dedupes cells through — the
// run store in internal/runstore satisfies it, and tests substitute
// failure-injecting fakes. Get signals corruption as a miss; Put is the
// only operation with an error channel, so it is what feeds the
// circuit breaker.
type Store interface {
	Get(key string) ([]byte, bool)
	Put(key string, payload []byte) error
}

// Config tunes one daemon instance. Zero values select production-ish
// defaults; tests dial everything down.
type Config struct {
	// Tool names the process in observability output (default axiomd).
	Tool string
	// Store is the persistent cell-result tier (nil = memory only).
	Store Store
	// Shards > 0 runs cells in that many child worker processes; 0 runs
	// them on Workers in-process goroutines (Workers 0 = GOMAXPROCS).
	Shards  int
	Workers int
	// MaxQueue bounds jobs admitted but not yet streaming (default 16).
	// Beyond it the server sheds load with 429 + Retry-After.
	MaxQueue int
	// MaxActive bounds concurrently executing jobs (default 2).
	MaxActive int
	// CellTimeout and JobTimeout are the default deadlines; specs may
	// override per job (defaults 2m and 30m).
	CellTimeout time.Duration
	JobTimeout  time.Duration
	// CellRetry paces re-dispatch of cells whose attempt died on a
	// transient failure (shard crash, deadline). Zero = 3 attempts with
	// the package defaults.
	CellRetry retry.Policy
	// Respawn is the budget for restarting a crashed shard (zero = 6
	// attempts, exponential from 5ms).
	Respawn retry.Policy
	// BreakerThreshold consecutive store-write failures trip the
	// breaker; BreakerCooldown is how long it stays open before a
	// half-open probe (defaults 3 and 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
}

// Server is one axiomd instance: HTTP surface, admission control,
// breaker-gated store, and the shard pool.
type Server struct {
	cfg   Config
	pool  *pool
	brk   *breaker
	mux   *http.ServeMux
	slots chan struct{}

	queued   atomic.Int64
	active   atomic.Int64
	draining atomic.Bool
	admitMu  sync.Mutex
	jobs     sync.WaitGroup

	// memo is the in-memory result tier (key → ScoreBits). It is what
	// "cache-only serving" degrades to when the breaker is open, and a
	// fast path in front of the disk store the rest of the time.
	memo sync.Map
}

// New builds a server and starts its shard pool. Close (or Drain) must
// be called to reap child shards.
func New(cfg Config) *Server {
	if cfg.Tool == "" {
		cfg.Tool = "axiomd"
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 16
	}
	if cfg.MaxActive <= 0 {
		cfg.MaxActive = 2
	}
	if cfg.CellTimeout <= 0 {
		cfg.CellTimeout = 2 * time.Minute
	}
	if cfg.JobTimeout <= 0 {
		cfg.JobTimeout = 30 * time.Minute
	}
	if cfg.CellRetry.Attempts <= 0 {
		cfg.CellRetry.Attempts = 3
	}
	if cfg.Respawn.Attempts <= 0 {
		cfg.Respawn.Attempts = 6
	}
	s := &Server{
		cfg:   cfg,
		pool:  newPool(cfg.Shards, cfg.Workers, cfg.Respawn),
		brk:   newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		slots: make(chan struct{}, cfg.MaxActive),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/jobs", s.handleJobs)
	mux.HandleFunc("/frontier", s.handleFrontier)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	obs.AttachExposition(mux, cfg.Tool)
	s.mux = mux
	return s
}

// Handler returns the daemon's HTTP surface: /jobs, /healthz, /readyz,
// plus the obs exposition endpoints (/metrics, /snapshot, /trace).
func (s *Server) Handler() http.Handler { return s.mux }

// Drain stops admitting new jobs, waits for in-flight ones to finish
// streaming (bounded by ctx), then stops the shard pool. Because every
// completed cell was written to the store under its canonical key,
// a drain that runs out of ctx loses no finished work: resubmitting the
// same spec resumes from the store bit-identically.
func (s *Server) Drain(ctx context.Context) error {
	s.admitMu.Lock()
	s.draining.Store(true)
	s.admitMu.Unlock()
	if obs.Enabled() {
		obs.NoteEvent("drain", "jobd.drain", "stopped admitting; waiting for in-flight jobs")
	}
	done := make(chan struct{})
	go func() {
		s.jobs.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.pool.close()
	return err
}

// Close is an immediate shutdown: no grace for in-flight jobs.
func (s *Server) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Drain(ctx) //nolint:errcheck // immediate close ignores the grace error
}

// ---- HTTP handlers ----

func writeJSONError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg}) //nolint:errcheck // client went away
}

// admit runs the admission dance shared by every job-shaped endpoint:
// refuse while draining, shed with 429 + Retry-After past the queue
// bound, then wait for an execution slot (the client may hang up while
// queued). On success the caller must invoke release when the job
// finishes streaming; on failure the response has been written.
//
// The queue bound counts jobs accepted but not yet streaming; past it
// the honest answer is "try later", not an ever-growing pile of
// goroutines all holding client connections.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	s.admitMu.Lock()
	if s.draining.Load() {
		s.admitMu.Unlock()
		writeJSONError(w, http.StatusServiceUnavailable, "draining")
		return nil, false
	}
	if q := s.queued.Add(1); q > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		s.admitMu.Unlock()
		jobsShed.Inc()
		if obs.Enabled() {
			obs.NoteEvent("shed", "jobd.admission", "queue full")
		}
		w.Header().Set("Retry-After", "1")
		writeJSONError(w, http.StatusTooManyRequests, "queue full")
		return nil, false
	}
	s.jobs.Add(1)
	s.admitMu.Unlock()
	queueDepth.Set(float64(s.queued.Load()))

	select {
	case s.slots <- struct{}{}:
	case <-r.Context().Done():
		s.queued.Add(-1)
		queueDepth.Set(float64(s.queued.Load()))
		s.jobs.Done()
		return nil, false
	}
	s.queued.Add(-1)
	queueDepth.Set(float64(s.queued.Load()))
	jobsAdmitted.Inc()
	jobsActive.Set(float64(s.active.Add(1)))
	return func() {
		<-s.slots
		jobsActive.Set(float64(s.active.Add(-1)))
		s.jobs.Done()
	}, true
}

// ndjsonEmitter switches the response into streaming NDJSON mode and
// returns a concurrency-safe emit function that flushes each row.
func ndjsonEmitter(w http.ResponseWriter) func(any) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var emitMu sync.Mutex
	enc := json.NewEncoder(w)
	return func(v any) {
		emitMu.Lock()
		defer emitMu.Unlock()
		enc.Encode(v) //nolint:errcheck // stream errors surface as the client hanging up
		if flusher != nil {
			flusher.Flush()
		}
	}
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSONError(w, http.StatusMethodNotAllowed, "POST a job spec")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 16<<20))
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	sp, err := ParseSpec(body)
	if err != nil {
		jobsRejected.Inc()
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}

	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()

	ctx, cancel := context.WithTimeout(r.Context(), sp.Timeout(s.cfg.JobTimeout))
	defer cancel()
	ctx, span := obs.StartSpan(ctx, "jobd.job")
	span.SetDetail(fmt.Sprintf("%d protocols × link grid", len(sp.Protocols)))
	defer span.End()

	emit := ndjsonEmitter(w)

	start := time.Now()
	sum := s.runJob(ctx, sp, emit)
	emit(sum)
	jobDuration.Observe(time.Since(start))
	if sum.Failed > 0 {
		jobsFailed.Inc()
	} else {
		jobsCompleted.Inc()
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.Encode(map[string]any{ //nolint:errcheck // client went away
		"status":       "ok",
		"draining":     s.draining.Load(),
		"breaker":      s.brk.currentState().String(),
		"queue_depth":  s.queued.Load(),
		"active_jobs":  s.active.Load(),
		"shards_alive": s.pool.aliveShards(),
		"shard_pids":   s.pool.pids(),
		"store":        s.cfg.Store != nil,
	})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSONError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte("{\"ready\":true}\n")) //nolint:errcheck // client went away
}

// ---- job execution ----

// ResultRow is one streamed NDJSON line: a cell's identity, its scores
// both bit-exact (hex) and human-readable, and how the result was
// obtained. Rows stream in completion order; Cell is the grid index.
type ResultRow struct {
	Cell      int           `json:"cell"`
	Proto     string        `json:"proto"`
	Mbps      float64       `json:"mbps"`
	RTTms     float64       `json:"rtt_ms"`
	BufferMSS float64       `json:"buffer_mss"`
	Key       string        `json:"key,omitempty"`
	Scores    *ScoreBits    `json:"scores,omitempty"`
	Display   *ScoreDisplay `json:"display,omitempty"`
	Cached    bool          `json:"cached"`
	Attempts  int           `json:"attempts,omitempty"`
	Retries   int           `json:"retries,omitempty"`
	Err       string        `json:"error,omitempty"`
	ElapsedMS int64         `json:"elapsed_ms"`
}

// Summary is the job's trailer line. Simulated + CacheHits + Failed ==
// Cells; CI's smoke test asserts Simulated == 0 on resubmission, which
// is the externally-checkable form of "a crash caused no duplicate or
// lost work".
type Summary struct {
	Done      bool   `json:"done"`
	Cells     int    `json:"cells"`
	Simulated int    `json:"simulated"`
	CacheHits int    `json:"cache_hits"`
	Failed    int    `json:"failed"`
	Retried   int    `json:"retried"`
	Breaker   string `json:"breaker"`
	ElapsedMS int64  `json:"elapsed_ms"`
}

func (s *Server) runJob(ctx context.Context, sp *Spec, emit func(any)) Summary {
	start := time.Now()
	cells := sp.Expand()
	cellTimeout := sp.CellTimeout(s.cfg.CellTimeout)
	sum := Summary{Cells: len(cells)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := range cells {
		wg.Add(1)
		go func(c Cell) {
			defer wg.Done()
			row := s.runCell(ctx, c, cellTimeout)
			mu.Lock()
			switch {
			case row.Err != "":
				sum.Failed++
			case row.Cached:
				sum.CacheHits++
			default:
				sum.Simulated++
			}
			sum.Retried += row.Retries
			mu.Unlock()
			emit(row)
		}(cells[i])
	}
	wg.Wait()
	sum.Done = true
	sum.Breaker = s.brk.currentState().String()
	sum.ElapsedMS = time.Since(start).Milliseconds()
	return sum
}

func (s *Server) runCell(ctx context.Context, c Cell, timeout time.Duration) (row ResultRow) {
	start := time.Now()
	row = ResultRow{Cell: c.Index, Proto: c.Proto, Mbps: c.Mbps, RTTms: c.RTTms, BufferMSS: c.BufferMSS}
	// row is the named result, so the deferred elapsed/display fill-in
	// reaches the returned value on every path.
	defer func() {
		row.ElapsedMS = time.Since(start).Milliseconds()
		if row.Scores != nil {
			row.Display, _ = row.Scores.Display()
		}
		cellDuration.Observe(time.Since(start))
	}()
	key, err := c.Key()
	if err != nil {
		row.Err = err.Error()
		cellsFailed.Inc()
		return row
	}
	row.Key = key
	if sb, ok := s.lookup(key); ok {
		row.Scores = &sb
		row.Cached = true
		cellsCached.Inc()
		return row
	}
	sb, attempts, retries, err := s.dispatch(ctx, c, key, timeout)
	row.Attempts = attempts
	row.Retries = retries
	if err != nil {
		row.Err = err.Error()
		cellsFailed.Inc()
		return row
	}
	row.Scores = &sb
	cellsSimulated.Inc()
	s.persist(key, sb)
	return row
}

// dispatch pushes the cell through the pool, retrying transient
// failures (shard crash, cell deadline) under the configured backoff.
// The backoff seed derives from the cell so retry pacing is
// deterministic per cell but decorrelated across a grid.
func (s *Server) dispatch(ctx context.Context, c Cell, key string, timeout time.Duration) (ScoreBits, int, int, error) {
	bo := s.cfg.CellRetry.Start(uint64(c.Index)*0x9e3779b97f4a7c15 + c.ChaosSeed + 1)
	var last error
	attempts := 0
	for {
		if err := ctx.Err(); err != nil {
			return ScoreBits{}, attempts, max(attempts-1, 0), fmt.Errorf("jobd: job canceled: %w", err)
		}
		t := &task{cell: c, attempt: attempts, timeout: timeout, done: make(chan taskResult, 1)}
		select {
		case s.pool.tasks <- t:
		case <-ctx.Done():
			return ScoreBits{}, attempts, max(attempts-1, 0), fmt.Errorf("jobd: job canceled: %w", ctx.Err())
		}
		attempts++
		var res taskResult
		select {
		case res = <-t.done:
		case <-ctx.Done():
			return ScoreBits{}, attempts, attempts - 1, fmt.Errorf("jobd: job canceled: %w", ctx.Err())
		}
		if res.err == nil {
			return res.scores, attempts, attempts - 1, nil
		}
		last = res.err
		if errors.Is(res.err, errCellTimeout) {
			cellsTimedOut.Inc()
			if obs.Enabled() {
				obs.NoteEvent("deadline", "jobd.cell.timeout", "cell "+strconv.Itoa(c.Index))
			}
		} else if !errors.Is(res.err, errShardCrashed) {
			// A compute error is deterministic: retrying the same cell
			// would fail identically.
			return ScoreBits{}, attempts, attempts - 1, res.err
		}
		cellsRetried.Inc()
		d, ok := bo.Next()
		if !ok {
			return ScoreBits{}, attempts, attempts - 1, fmt.Errorf("jobd: cell %d failed after %d attempts: %w", c.Index, attempts, last)
		}
		if err := retry.Sleep(ctx, d); err != nil {
			return ScoreBits{}, attempts, attempts - 1, fmt.Errorf("jobd: job canceled: %w", err)
		}
	}
}

// ---- breaker-gated result tiers ----

// lookup checks memory, then (breaker permitting) the persistent store.
func (s *Server) lookup(key string) (ScoreBits, bool) {
	if v, ok := s.memo.Load(key); ok {
		return v.(ScoreBits), true
	}
	if s.cfg.Store == nil || !s.brk.allowGet() {
		return ScoreBits{}, false
	}
	payload, ok := s.cfg.Store.Get(key)
	if !ok {
		return ScoreBits{}, false
	}
	var sb ScoreBits
	if err := json.Unmarshal(payload, &sb); err != nil {
		// Undetected corruption (the store's checksum catches flipped
		// bits, not a wrong-schema payload): treat as a miss and let the
		// recompute overwrite it.
		return ScoreBits{}, false
	}
	if _, err := sb.Decode(); err != nil {
		return ScoreBits{}, false
	}
	s.memo.Store(key, sb)
	return sb, true
}

// persist records a freshly simulated result: always in memory, and in
// the store when the breaker allows. A Put failure feeds the breaker;
// enough of them in a row and the daemon stops paying for a dead disk.
func (s *Server) persist(key string, sb ScoreBits) {
	s.memo.Store(key, sb)
	if s.cfg.Store == nil || !s.brk.allowPut() {
		return
	}
	payload, err := json.Marshal(sb)
	if err != nil {
		return
	}
	s.brk.report(s.cfg.Store.Put(key, payload) == nil)
}
