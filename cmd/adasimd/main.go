// Command adasimd is the campaign service daemon: it serves the
// fault-injection campaign engine over HTTP/JSON (see internal/service
// for the API) with a bounded job queue, a run pool of long-lived
// simulation platforms, and a content-addressed result cache.
//
// Examples:
//
//	adasimd                                  # :8080, GOMAXPROCS workers
//	adasimd -addr :9090 -workers 8 -queue 128
//	adasimd -cache-dir /var/cache/adasim     # persistent result store
//	adasimd -journal-dir /var/lib/adasim     # crash-safe task journal
//	adasimd -log-format json -log-level debug
//	adasimd -pprof                           # /debug/pprof/* profiling
//
// Distributed execution: remote worker nodes (see cmd/adasim-worker)
// register over HTTP and lease run batches; tasks fan out across the
// fleet automatically and fall back to the local pool when no worker
// is attached. -lease-ttl and -worker-batch tune the lease protocol;
// `adasimctl workers` shows the fleet.
//
// With -journal-dir every accepted task is appended to a write-ahead
// journal before it is queued, and on boot the daemon replays the
// journal: tasks that never reached a terminal state are re-submitted
// in their original order (runs already in the result cache are served
// from it, so recovery is mostly cache hits).
//
// Observability: Prometheus-format metrics at GET /metrics (queue,
// cache, journal, and per-route HTTP series), per-task lifecycle
// timelines at GET /v1/tasks/{id}/events (JSON, or a live SSE stream
// with Accept: text/event-stream), structured logs on stderr
// (-log-format text|json, -log-level), and -pprof for the standard
// net/http/pprof handlers. Note -write-timeout bounds an SSE stream's
// lifetime like any other response; raise it to follow very long
// tasks.
//
// SIGINT/SIGTERM triggers a graceful drain: submissions are rejected
// with 503, queued and running tasks finish (canceled ones are
// skipped), then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"adasim/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "adasimd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "runs executed at once, each on a long-lived platform (0 = GOMAXPROCS)")
		queueSize    = flag.Int("queue", 64, "bounded job queue capacity")
		cacheEntries = flag.Int("cache-entries", 4096, "in-memory result cache entries")
		cacheDir     = flag.String("cache-dir", "", "optional on-disk result store directory")
		cacheMax     = flag.Int64("cache-max-bytes", 0, "on-disk result store byte budget; coldest segments GC'd past it (0 = unbounded)")
		ageAfter     = flag.Int("age-after", 0, "promote waiting bulk work after this many interactive overtakes (0 = default 4)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Minute, "max time to finish tasks on shutdown")
		journalDir   = flag.String("journal-dir", "", "optional write-ahead task journal directory (enables restart recovery)")
		runRetries   = flag.Int("run-retries", 0, "extra attempts per failing run (0 = default 2, negative = disabled)")
		leaseTTL     = flag.Duration("lease-ttl", 0, "remote-worker lease TTL (0 = default 10s)")
		workerBatch  = flag.Int("worker-batch", 0, "runs per remote-worker lease (0 = default 16)")
		readTimeout  = flag.Duration("read-timeout", 30*time.Second, "max time to read a request (headers + body)")
		writeTimeout = flag.Duration("write-timeout", 5*time.Minute, "max time to write a response (bounds SSE streams too)")
		idleTimeout  = flag.Duration("idle-timeout", 2*time.Minute, "max keep-alive idle time per connection")
		logLevel     = flag.String("log-level", "info", "log level: debug, info, warn, or error")
		logFormat    = flag.String("log-format", "text", "log format: text or json")
		pprofOn      = flag.Bool("pprof", false, "expose net/http/pprof handlers under /debug/pprof/")
	)
	flag.Parse()

	logger, err := newLogger(*logLevel, *logFormat)
	if err != nil {
		return err
	}

	d, err := service.NewDispatcher(service.Config{
		Workers:       *workers,
		QueueSize:     *queueSize,
		CacheEntries:  *cacheEntries,
		CacheDir:      *cacheDir,
		CacheMaxBytes: *cacheMax,
		AgeAfter:      *ageAfter,
		JournalDir:    *journalDir,
		RunRetries:    *runRetries,
		LeaseTTL:      *leaseTTL,
		WorkerBatch:   *workerBatch,
		Logger:        logger,
	})
	if err != nil {
		return err
	}

	var handler http.Handler = service.NewServer(d)
	if *pprofOn {
		handler = withPprof(handler)
	}
	srv := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// Server-side timeouts bound what a slow or stuck client can pin:
		// a connection trickling its request, a response nobody reads, an
		// idle keep-alive. Write generously covers long task-wait polls,
		// multi-MB result bodies, and SSE event streams.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}
	// Catch SIGTERM before the listener is up: a client that sees the
	// daemon ready may signal it at once, and the default action would
	// kill it without a drain.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "workers", d.Workers(),
			"queue", *queueSize, "cache_entries", *cacheEntries,
			"cache_dir", *cacheDir, "journal_dir", *journalDir, "pprof", *pprofOn)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	logger.Info("draining", "timeout", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := d.Drain(drainCtx); err != nil {
		// Shut the listener down regardless; report the drain failure.
		srv.Shutdown(drainCtx)
		return err
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		return err
	}
	logger.Info("drained, bye")
	return nil
}

// newLogger builds the daemon's stderr slog logger from the -log-level
// and -log-format flags.
func newLogger(level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
}

// withPprof mounts the standard net/http/pprof handlers under
// /debug/pprof/ in front of the service routes. Registration is
// explicit (not the package's DefaultServeMux side effect), so
// profiling is exposed only when -pprof asks for it.
func withPprof(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", next)
	return mux
}
