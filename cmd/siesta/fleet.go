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

	"siesta/internal/fleet"
	"siesta/internal/server"
)

// runGateway implements the `siesta gateway` verb: the fleet's routing
// front door. It embeds the worker registry by default (point workers'
// -registry at the gateway address) and consistent-hash-routes every
// synthesize request by its artifact cache key to the worker that owns it,
// failing jobs over — with their replicated phase-boundary checkpoint —
// when a worker dies. See DESIGN.md §13.
func runGateway(args []string) {
	fs := flag.NewFlagSet("siesta gateway", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8090", "listen address")
	registryURL := fs.String("registry", "", "external registry base URL (empty = embed the registry in this process)")
	ttl := fs.Duration("ttl", fleet.DefaultTTL, "embedded registry heartbeat TTL; a worker silent this long is dropped")
	refresh := fs.Duration("route-refresh", 500*time.Millisecond, "route-table refresh and failover-scan interval")
	logLevel := fs.String("log-level", "", "log routing events as slog text records at this verbosity (debug, info, warn, error); empty = JSON lines")
	fs.Parse(args)

	die := func(err error) {
		fmt.Fprintf(os.Stderr, "siesta gateway: %v\n", err)
		os.Exit(1)
	}
	logger, err := eventLogger(*logLevel)
	if err != nil {
		die(err)
	}

	gw := fleet.NewGateway(fleet.GatewayConfig{
		RegistryURL:  *registryURL,
		TTL:          *ttl,
		RouteRefresh: *refresh,
		Logger:       logger,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: gw.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go gw.Run(ctx)

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	role := "embedded registry"
	if *registryURL != "" {
		role = "registry " + *registryURL
	}
	fmt.Fprintf(os.Stderr, "siesta gateway: listening on %s (%s, ttl %v)\n", *addr, role, *ttl)

	select {
	case err := <-errCh:
		die(err)
	case <-ctx.Done():
	}
	stop()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "siesta gateway: http shutdown: %v\n", err)
	}
	fmt.Fprintln(os.Stderr, "siesta gateway: bye")
}

// runWorker implements the `siesta worker` verb: one fleet synthesis node.
// It wraps the `siesta serve` service with fleet membership — registration
// and heartbeats against the registry, the peer API for artifact and
// checkpoint exchange — and advertises itself at -advertise (defaulting to
// the listen address). See DESIGN.md §13.
func runWorker(args []string) {
	fs := flag.NewFlagSet("siesta worker", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8081", "listen address")
	advertise := fs.String("advertise", "", "base URL peers reach this worker at (default http://<addr>)")
	id := fs.String("id", "", "stable worker identity on the hash ring (default the advertise address)")
	registryURL := fs.String("registry", "http://127.0.0.1:8090", "registry base URL (the gateway, unless running a standalone registry)")
	heartbeat := fs.Duration("heartbeat", time.Second, "registration refresh cadence; must be well inside the registry TTL")
	workers := fs.Int("workers", 2, "synthesis worker-pool size")
	queue := fs.Int("queue", 16, "job queue depth (a full queue answers 429)")
	jobTimeout := fs.Duration("job-timeout", 120*time.Second, "per-job wall-clock budget")
	cacheSize := fs.Int("cache-size", 128, "artifact cache entry budget")
	maxParallel := fs.Int("max-parallel", 0, "per-job synthesis parallelism cap (0 = GOMAXPROCS)")
	drainTimeout := fs.Duration("drain-timeout", 5*time.Minute, "shutdown budget for in-flight jobs before hard cancel")
	stateDir := fs.String("state-dir", "", "directory for the job journal, phase checkpoints, and disk artifact cache (empty = in-memory only; checkpoints still replicate to peers)")
	maxRetries := fs.Int("max-retries", 3, "in-process retry budget for transient durability failures")
	logLevel := fs.String("log-level", "", "log job events as slog text records at this verbosity (debug, info, warn, error); empty = JSON lines at debug")
	fs.Parse(args)

	die := func(err error) {
		fmt.Fprintf(os.Stderr, "siesta worker: %v\n", err)
		os.Exit(1)
	}

	adv := *advertise
	if adv == "" {
		adv = "http://" + *addr
	}
	wid := *id
	if wid == "" {
		wid = adv
	}
	logger, err := eventLogger(*logLevel)
	if err != nil {
		die(err)
	}

	w, err := fleet.NewWorker(fleet.WorkerConfig{
		ID:           wid,
		AdvertiseURL: adv,
		RegistryURL:  *registryURL,
		Heartbeat:    *heartbeat,
		Server: server.Config{
			Workers:        *workers,
			QueueDepth:     *queue,
			JobTimeout:     *jobTimeout,
			CacheSize:      *cacheSize,
			MaxParallelism: *maxParallel,
			Logger:         logger,
			StateDir:       *stateDir,
			MaxRetries:     *maxRetries,
		},
	})
	if err != nil {
		die(err)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: w.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go w.Run(ctx)

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "siesta worker: %s listening on %s, registering with %s\n",
		wid, *addr, *registryURL)

	select {
	case err := <-errCh:
		die(err)
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "siesta worker: draining...")

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "siesta worker: http shutdown: %v\n", err)
	}
	if err := w.Close(drainCtx); err != nil {
		var derr *fleet.DeregisterError
		if !errors.As(err, &derr) {
			die(fmt.Errorf("drain: %w", err))
		}
		fmt.Fprintf(os.Stderr, "siesta worker: warning: %v\n", err)
	}
	fmt.Fprintln(os.Stderr, "siesta worker: drained, bye")
}
