// Command baryonsimd serves simulations as a job service over HTTP/JSON:
// submit a job, stream its status while it runs, fetch its canonical result
// bundle. Jobs are content-addressed by their spec hash — re-submitting an
// identical job is served from the result cache byte-identically without
// re-simulating, and concurrent identical submissions collapse into one
// simulation.
//
//	go run ./cmd/baryonsimd -addr 127.0.0.1:8080 -cache-dir /var/tmp/baryon
//	curl -s -X POST http://127.0.0.1:8080/api/v1/run \
//	    -d '{"design":"Baryon","workload":"505.mcf_r","seed":1,"accesses":20000}'
//
// On SIGINT/SIGTERM the daemon drains: new submissions get 503, in-flight
// jobs finish (bounded by -drain-timeout), then it exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"baryon/internal/config"
	"baryon/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stderr)
	stop()
	os.Exit(code)
}

// run is the daemon's lifecycle from its arguments to its exit code: it
// serves until ctx is done, then drains.
func run(ctx context.Context, args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("baryonsimd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (use 127.0.0.1:0 for an ephemeral port)")
	workers := fs.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	cacheEntries := fs.Int("cache-entries", 1024, "in-memory result cache capacity in entries")
	cacheDir := fs.String("cache-dir", "", "persist result bundles to this directory; a restarted daemon re-serves them")
	accesses := fs.Int("accesses", 0, "base accesses per core for jobs that leave accesses unset (0 = config default)")
	drainTimeout := fs.Duration("drain-timeout", time.Minute, "wall-clock budget for in-flight jobs after a shutdown signal")
	maxQueue := fs.Int("max-queue", 256, "max accepted-but-unfinished async jobs; beyond it submissions get 429 + Retry-After (0 = unbounded)")
	maxSyncWaiters := fs.Int("max-sync-waiters", 64, "max synchronous cache-miss requests waiting for a simulation; beyond it requests get 429 + Retry-After (0 = unbounded)")
	requestTimeout := fs.Duration("request-timeout", 0, "default and maximum per-request execution budget; clients lower it via the X-Baryon-Deadline header (0 = none)")
	writeTimeout := fs.Duration("write-timeout", time.Minute, "per-response write deadline: a slower client has its connection dropped (0 = none)")
	common := service.RegisterFlags(fs, service.FlagDesignFiles, "")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	if err := nonNegativeFlags(fs); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	// Setup registers -design-files specs so clients can run custom designs
	// by name. No timeout flag: the daemon runs until signalled.
	_, _, cleanup, err := common.Setup(ctx, stderr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	defer cleanup()

	cfg := config.Scaled()
	if *accesses > 0 {
		cfg.AccessesPerCore = *accesses
	}
	svc, err := service.New(service.Options{
		Workers:        *workers,
		CacheEntries:   *cacheEntries,
		CacheDir:       *cacheDir,
		BaseConfig:     &cfg,
		MaxQueue:       *maxQueue,
		MaxSyncWaiters: *maxSyncWaiters,
		Log:            stderr,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	// The address announcement is a contract: scripts/serve_smoke.sh parses
	// this exact line to find an ephemeral port.
	fmt.Fprintf(stderr, "baryonsimd listening on http://%s\n", ln.Addr())

	// Async jobs run on runCtx, not the signal context: a drain lets them
	// finish and only cancels them if the drain budget expires.
	runCtx, cancelRuns := context.WithCancel(context.Background())
	defer cancelRuns()
	handler := service.NewHandlerOpts(svc, service.HandlerOptions{
		RunCtx:         runCtx,
		RequestTimeout: *requestTimeout,
		WriteTimeout:   *writeTimeout,
		Log:            stderr,
	})
	srv := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case <-ctx.Done():
	case err := <-errc:
		fmt.Fprintf(stderr, "baryonsimd: serve: %v\n", err)
		return 1
	}

	fmt.Fprintln(stderr, "baryonsimd: draining (shutdown signal received)")
	svc.Drain()
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintf(stderr, "baryonsimd: shutdown: %v\n", err)
	}
	if err := svc.Wait(dctx); err != nil {
		cancelRuns()
		fmt.Fprintln(stderr, "baryonsimd: drain budget expired; cancelling in-flight jobs")
		return 1
	}
	fmt.Fprintln(stderr, "baryonsimd: drained cleanly")
	return 0
}

// nonNegativeFlags rejects a negative value of any int or duration flag,
// naming the flag: none of the daemon's counts, bounds or budgets has a
// meaning below zero.
func nonNegativeFlags(fs *flag.FlagSet) error {
	var err error
	fs.VisitAll(func(f *flag.Flag) {
		if err != nil {
			return
		}
		switch v := f.Value.(flag.Getter).Get().(type) {
		case int:
			if v < 0 {
				err = fmt.Errorf("-%s must be >= 0, got %d", f.Name, v)
			}
		case time.Duration:
			if v < 0 {
				err = fmt.Errorf("-%s must be >= 0, got %v", f.Name, v)
			}
		}
	})
	return err
}
