// Command axiomd is the characterization daemon: POST a sweep spec to
// /jobs and stream per-cell axiom scores back as NDJSON while they
// compute. Cells dedupe against the persistent run store, fan out
// across worker shards (child processes of this binary), and survive
// the chaos a long-lived service actually sees: a shard crash fails its
// cell's attempt, which is retried under the cell backoff while the
// shard respawns under its own budget, slow cells are bounded
// by per-cell deadlines, a failing store trips a circuit breaker into
// cache-only serving, a full queue sheds load with 429, and SIGTERM
// drains gracefully — stop admitting, finish in-flight jobs, flush the
// run record.
//
//	axiomd -listen 127.0.0.1:8080 -shards 4
//	curl -s -X POST --data-binary @job.json http://127.0.0.1:8080/jobs
//	curl -s http://127.0.0.1:8080/healthz
//
// Endpoints: /jobs (POST), /healthz (liveness, always 200), /readyz
// (503 once draining), and the observability surface /metrics,
// /snapshot, /trace.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	axiomcc "repro"
	"repro/internal/jobd"
	"repro/internal/lifecycle"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// obsStop flushes profiles and the run manifest; fatal invokes it so
// error exits still leave valid artifacts behind. Idempotent.
var obsStop func() error

func main() {
	// Worker shards are this same binary re-exec'd by the parent; the
	// env marker routes them into the NDJSON request/reply loop before
	// any flag or store setup.
	if os.Getenv(jobd.WorkerEnv) != "" {
		if err := jobd.WorkerMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "axiomd worker:", err)
			os.Exit(1)
		}
		return
	}

	var (
		listen          = flag.String("listen", "127.0.0.1:8080", "HTTP listen address (port 0 picks a free one)")
		shards          = flag.Int("shards", 0, "worker shard processes (0 = in-process goroutines)")
		workers         = flag.Int("workers", 0, "in-process worker goroutines when -shards=0 (0 = GOMAXPROCS)")
		maxQueue        = flag.Int("max-queue", 16, "admission queue bound; beyond it jobs are shed with 429")
		maxActive       = flag.Int("max-active", 2, "jobs executing concurrently")
		cellTimeout     = flag.Duration("cell-timeout", 2*time.Minute, "default per-cell deadline (specs may override)")
		jobTimeout      = flag.Duration("job-timeout", 30*time.Minute, "default whole-job deadline (specs may override)")
		cellRetries     = flag.Int("cell-retries", 3, "attempts per cell before it fails (transient failures only)")
		drainGrace      = flag.Duration("drain-grace", 30*time.Second, "how long SIGTERM waits for in-flight jobs")
		breakerTrip     = flag.Int("breaker-threshold", 3, "consecutive store failures that trip the breaker")
		breakerCooldown = flag.Duration("breaker-cooldown", 5*time.Second, "breaker open time before a half-open probe")
	)
	ofl := obs.RegisterFlags(flag.CommandLine)
	stfl := axiomcc.RegisterStoreFlags(flag.CommandLine)
	flag.Parse()
	report := stfl.Apply("axiomd")

	stop, err := ofl.Start("axiomd")
	if err != nil {
		fatal(err)
	}
	obsStop = stop

	cfg := jobd.Config{
		Tool:             "axiomd",
		Shards:           *shards,
		Workers:          *workers,
		MaxQueue:         *maxQueue,
		MaxActive:        *maxActive,
		CellTimeout:      *cellTimeout,
		JobTimeout:       *jobTimeout,
		BreakerThreshold: *breakerTrip,
		BreakerCooldown:  *breakerCooldown,
	}
	cfg.CellRetry.Attempts = *cellRetries
	if st := metrics.DefaultStore(); st != nil {
		cfg.Store = st
	}
	srv := jobd.New(cfg)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	fmt.Fprintf(os.Stderr, "axiomd: listening on http://%s (shards=%d store=%v)\n",
		ln.Addr(), *shards, cfg.Store != nil)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	// Graceful drain: the first SIGTERM/SIGINT stops admission (readyz
	// flips 503), lets in-flight jobs finish streaming within the grace
	// window, then flushes observability artifacts. A second signal
	// skips the grace and exits immediately.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	var sig os.Signal
	select {
	case sig = <-sigc:
	case err := <-serveErr:
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "axiomd: %v: draining (grace %v)\n", sig, *drainGrace)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "axiomd: second signal, exiting now")
		os.Exit(130)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "axiomd: drain grace expired with jobs in flight: %v\n", err)
	}
	httpSrv.Shutdown(ctx) //nolint:errcheck // jobs already drained; expiry is reported above
	report()
	lifecycle.Drain("axiomd", sig.String(), stop)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "axiomd:", err)
	if obsStop != nil {
		obsStop()
	}
	os.Exit(1)
}
