package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"siesta/internal/server"
)

// runServe implements the `siesta serve` verb: it exposes the synthesis
// pipeline as an HTTP service with a bounded job queue, a worker pool, a
// content-addressed artifact cache, and a /metrics endpoint. SIGINT/SIGTERM
// trigger a graceful drain: the listener stops accepting, queued jobs run to
// completion, and only then does the process exit.
func runServe(args []string) {
	fs := flag.NewFlagSet("siesta serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	workers := fs.Int("workers", 2, "synthesis worker-pool size")
	queue := fs.Int("queue", 16, "job queue depth (a full queue answers 429)")
	jobTimeout := fs.Duration("job-timeout", 120*time.Second, "per-job wall-clock budget")
	cacheSize := fs.Int("cache-size", 128, "artifact cache entry budget")
	maxParallel := fs.Int("max-parallel", 0, "per-job synthesis parallelism cap (0 = GOMAXPROCS)")
	drainTimeout := fs.Duration("drain-timeout", 5*time.Minute, "shutdown budget for in-flight jobs before hard cancel")
	logLevel := fs.String("log-level", "", "log job events as slog text records at this verbosity (debug, info, warn, error); empty = JSON lines at debug")
	stateDir := fs.String("state-dir", "", "directory for the job journal, phase checkpoints, and disk artifact cache; enables crash recovery (empty = in-memory only)")
	maxRetries := fs.Int("max-retries", 3, "in-process retry budget for transient durability failures (also the cap on a request's max_retries field)")
	fs.Parse(args)

	die := func(err error) {
		fmt.Fprintf(os.Stderr, "siesta serve: %v\n", err)
		os.Exit(1)
	}

	logger, err := eventLogger(*logLevel)
	if err != nil {
		die(err)
	}
	svc, err := server.New(server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		JobTimeout:     *jobTimeout,
		CacheSize:      *cacheSize,
		MaxParallelism: *maxParallel,
		Logger:         logger,
		StateDir:       *stateDir,
		MaxRetries:     *maxRetries,
	})
	if err != nil {
		die(err)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: svc.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "siesta serve: listening on %s (%d workers, queue %d)\n",
		*addr, *workers, *queue)

	select {
	case err := <-errCh:
		die(err) // bind failure etc.
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills us
	fmt.Fprintln(os.Stderr, "siesta serve: draining...")

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "siesta serve: http shutdown: %v\n", err)
	}
	if err := svc.Shutdown(drainCtx); err != nil {
		die(fmt.Errorf("drain: %w", err))
	}
	fmt.Fprintln(os.Stderr, "siesta serve: drained, bye")
}
